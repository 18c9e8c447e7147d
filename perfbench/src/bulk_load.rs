//! `bulk-load`: one large document through every front end, plus a corpus.
//!
//! One ~1.25M-node document (18 fields, depth 6, 10 keys, branching 8) and
//! a 24-document corpus (15 fields, depth 4, 10 keys, branching 6).  A
//! single-client closed loop rotates DOM validate and DOM shred (text →
//! `Document::parse_str` → `CorpusBundle::process`), stream validate and
//! stream shred (`CorpusBundle::stream_check` / `stream_shred`), and a
//! whole-corpus validate+shred (`CorpusBundle::run`, jobs = 2).

use xmlprop_pipeline::{CorpusBundle, CorpusOptions, CorpusResult, Jobs, RequestScratch};
use xmlprop_reldb::Database;
use xmlprop_workload::{generate_corpus, generate_document_with_report, CorpusConfig, DocConfig};
use xmlprop_xmlkeys::Violation;
use xmlprop_xmltransform::Transformation;
use xmlprop_xmltree::{Document, LabelUniverse, StreamParser};

use crate::common::{closed_loop, fixed_schema, gate, timed, Cfg, Fnv, Op, Outcome};
use crate::trace::Tracer;

const ROUND: [&str; 5] = [
    "validate",
    "shred",
    "stream_validate",
    "stream_shred",
    "corpus",
];
const CORPUS_JOBS: usize = 2;
const SETUPS: usize = 40;
const SETUPS_PER_ROUND: usize = 8;

fn universal_only(rule: &xmlprop_xmltransform::TableRule) -> Transformation {
    Transformation::new(vec![rule.clone()])
}

fn options(shred: bool, validate: bool, jobs: usize) -> CorpusOptions {
    CorpusOptions {
        jobs: Jobs::new(jobs).expect("valid thread count"),
        shred,
        validate,
        covers: false,
        stream: false,
    }
}

/// Tokenizes `text` to the end, as the front ends' first stage does.
pub fn drain(text: &str, universe: Option<&LabelUniverse>) -> usize {
    let mut parser = match universe {
        Some(u) => StreamParser::with_universe(text, u),
        None => StreamParser::new(text),
    };
    let mut events = 0;
    while let Ok(Some(_)) = parser.next_event() {
        events += 1;
    }
    events
}

/// What one op produced, for the gates.
enum Output {
    Violations(Vec<Violation>),
    Database(Database),
    Corpus(CorpusResult),
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let big = fixed_schema(18, 6, 10);
    let (doc, report) = generate_document_with_report(
        &big,
        &DocConfig {
            branching: 8,
            omission_probability: 0.1,
            seed: cfg.sub_seed("document"),
            depth: Some(6),
        },
    );
    let text = xmlprop_xmltree::to_xml(&doc);
    drop(doc);
    let small = fixed_schema(15, 4, 10);
    let (generated, corpus_report) = generate_corpus(
        &small,
        &CorpusConfig {
            documents: 24,
            base: DocConfig {
                branching: 6,
                omission_probability: 0.1,
                seed: cfg.sub_seed("corpus"),
                depth: Some(4),
            },
        },
    );
    let corpus_texts: Vec<String> = generated.iter().map(xmlprop_xmltree::to_xml).collect();
    drop(generated);
    let mut sum = Fnv::new();
    sum.str(&text);
    for t in &corpus_texts {
        sum.str(t);
    }
    out.checksum = sum.finish();
    out.fact("document_nodes", report.nodes);
    out.fact("document_bytes", text.len());
    out.fact("corpus_documents", corpus_report.documents);
    out.fact("corpus_nodes", corpus_report.total_nodes);

    // Set-up: preparing both bundles and loading the corpus from its text.
    // This first repetition builds what the loop uses.  The recorded ones
    // run between the rounds after the warm-up (outside the measured
    // window), so they all see the same heap and a slow stretch of the host
    // does not decide the figure.
    let load = || {
        timed(|| {
            let docs: Result<Vec<Document>, _> = corpus_texts
                .iter()
                .map(|t| Document::parse_str(t))
                .collect();
            (
                CorpusBundle::prepare(big.sigma.clone(), universal_only(&big.universal)),
                CorpusBundle::prepare(small.sigma.clone(), universal_only(&small.universal)),
                docs,
            )
        })
    };
    let (_, (bundle, corpus_bundle, docs)) = load();
    let docs = docs.map_err(|e| format!("generated corpus reparses: {e}"))?;

    // Gates: DOM, stream and sequential-corpus references must agree before
    // anything is timed; every timed op is then checked against them.
    let mut scratch = RequestScratch::for_bundle(&bundle);
    let parsed = Document::parse_str(&text).map_err(|e| format!("generated text reparses: {e}"))?;
    let dom = bundle.process(&parsed, &mut scratch, &options(true, true, 1));
    drop(parsed);
    let streamed_keys = bundle.stream_check(&text).map_err(|e| e.to_string())?;
    let streamed_db = bundle
        .stream_shred(&text, None)
        .map_err(|e| e.to_string())?;
    let ref_violations = dom.violations;
    let ref_db = dom.database;
    gate(streamed_keys.per_key.concat() == ref_violations, || {
        "stream validation disagrees with DOM validation".into()
    })?;
    gate(streamed_db == ref_db, || {
        "stream shred disagrees with DOM shred".into()
    })?;
    let ref_corpus = corpus_bundle.run_sequential(&docs, &options(true, true, 1));
    out.fact(
        "document_tuples",
        ref_db.relations().map(|r| r.len()).sum::<usize>(),
    );

    let mut tracer = cfg.trace.then(Tracer::new);
    closed_loop(cfg.window(), 2, |round| {
        // Round 0 warms up: the first pass over the large document runs on
        // a fresh heap and ran up to twice as fast as every later one, set-up
        // repetitions included.  Its ops are gated but not recorded, and its
        // time does not count against the window.
        let warm_up = round == 0;
        let round_start = std::time::Instant::now();
        let mut setup_ms = 0.0;
        for _ in 0..SETUPS_PER_ROUND {
            if !warm_up && out.setup_s.len() < SETUPS {
                let (ms, _) = load();
                out.setup_s.push(ms / 1e3);
                setup_ms += ms;
            }
        }
        // A traced run repeats the whole round traced, so every op follows
        // the same kind of op in both passes.
        for (&traced, kind) in cfg
            .passes()
            .iter()
            .flat_map(|t| ROUND.iter().map(move |k| (t, *k)))
        {
            out.attempted += 1;
            let output = match tracer.as_mut().filter(|_| traced && !warm_up) {
                None if traced => continue,
                None => {
                    let (ms, output) = timed(|| {
                        untraced_op(kind, &bundle, &corpus_bundle, &text, &docs, &mut scratch)
                    });
                    if output.is_ok() && !warm_up {
                        out.ops.push(Op { kind, ms });
                    }
                    output
                }
                Some(tr) => traced_op(
                    tr,
                    kind,
                    &bundle,
                    &corpus_bundle,
                    &text,
                    &docs,
                    &mut scratch,
                ),
            };
            match output {
                Ok(Output::Violations(v)) => gate(v == ref_violations, || {
                    format!("{kind} violations differ from the reference")
                })?,
                Ok(Output::Database(db)) => gate(db == ref_db, || {
                    format!("{kind} database differs from the reference")
                })?,
                Ok(Output::Corpus(c)) => gate(c.documents == ref_corpus.documents, || {
                    "parallel corpus result differs from the sequential run".into()
                })?,
                Err(_) => out.failed += 1,
            }
        }
        if warm_up {
            return Ok(round_start.elapsed().as_secs_f64());
        }
        Ok(setup_ms / 1e3)
    })?;
    out.tracer = tracer;
    Ok(out)
}

fn untraced_op(
    kind: &str,
    bundle: &CorpusBundle,
    corpus_bundle: &CorpusBundle,
    text: &str,
    docs: &[Document],
    scratch: &mut RequestScratch,
) -> Result<Output, String> {
    Ok(match kind {
        "validate" | "shred" => {
            let doc = Document::parse_str(text).map_err(|e| e.to_string())?;
            let shred = kind == "shred";
            let outcome = bundle.process(&doc, scratch, &options(shred, !shred, 1));
            if shred {
                Output::Database(outcome.database)
            } else {
                Output::Violations(outcome.violations)
            }
        }
        "stream_validate" => Output::Violations(
            bundle
                .stream_check(text)
                .map_err(|e| e.to_string())?
                .per_key
                .concat(),
        ),
        "stream_shred" => {
            Output::Database(bundle.stream_shred(text, None).map_err(|e| e.to_string())?)
        }
        _ => Output::Corpus(corpus_bundle.run(docs, &options(true, true, CORPUS_JOBS))),
    })
}

/// The traced form of each op: the op's own calls as root spans, with
/// their inner public calls re-run as children.
fn traced_op(
    tr: &mut Tracer,
    kind: &'static str,
    bundle: &CorpusBundle,
    corpus_bundle: &CorpusBundle,
    text: &str,
    docs: &[Document],
    scratch: &mut RequestScratch,
) -> Result<Output, String> {
    tr.begin_op(kind);
    let input_mb = text.len() as f64 / 1e6;
    Ok(match kind {
        "validate" | "shred" => {
            let (tree, doc) = tr.time("xmltree.tree", None, || Document::parse_str(text));
            let doc = doc.map_err(|e| e.to_string())?;
            tr.time("xmltree.tokenize", Some(tree), || drain(text, None));
            tr.count("xmltree.nodes", doc.len() as f64);
            tr.count("xmltree.input_mb", input_mb);
            let shred = kind == "shred";
            let (process, outcome) = tr.time("pipeline.process", None, || {
                bundle.process(&doc, scratch, &options(shred, !shred, 1))
            });
            let (_, index) = tr.time("xmltree.index", Some(process), || {
                scratch.index_document(&doc)
            });
            if shred {
                let (_, tuples) = tr.time("xmltransform.shred", Some(process), || {
                    scratch.shred_scratch().reset();
                    bundle
                        .plan()
                        .plans()
                        .iter()
                        .map(|plan| plan.shred_with(&doc, &index, scratch.shred_scratch()).len())
                        .sum::<usize>()
                });
                tr.count("xmltransform.tuples", tuples as f64);
                tr.time("xmltree.free", None, || drop(doc));
                Output::Database(outcome.database)
            } else {
                let (_, found) = tr.time("xmlkeys.validate", Some(process), || {
                    (0..bundle.sigma().len())
                        .map(|k| bundle.keys().violations_of(k, &doc, &index).len())
                        .sum::<usize>()
                });
                tr.count("xmlkeys.violations", found as f64);
                tr.time("xmltree.free", None, || drop(doc));
                Output::Violations(outcome.violations)
            }
        }
        "stream_validate" => {
            let (root, report) =
                tr.time("xmlkeys.stream_check", None, || bundle.stream_check(text));
            tr.time("xmltree.tokenize", Some(root), || {
                drain(text, Some(bundle.universe()))
            });
            tr.count("xmltree.input_mb", input_mb);
            let report = report.map_err(|e| e.to_string())?;
            tr.count("xmlkeys.peak_open", report.peak_open_contexts as f64);
            let violations = report.per_key.concat();
            tr.count("xmlkeys.violations", violations.len() as f64);
            Output::Violations(violations)
        }
        "stream_shred" => {
            let (root, db) = tr.time("xmltransform.stream_shred", None, || {
                bundle.stream_shred(text, None)
            });
            tr.time("xmltree.tokenize", Some(root), || {
                drain(text, Some(bundle.universe()))
            });
            tr.count("xmltree.input_mb", input_mb);
            let db = db.map_err(|e| e.to_string())?;
            tr.count(
                "xmltransform.tuples",
                db.relations().map(|r| r.len()).sum::<usize>() as f64,
            );
            Output::Database(db)
        }
        _ => {
            let (par, result) = tr.time("pipeline.corpus_par", None, || {
                corpus_bundle.run(docs, &options(true, true, CORPUS_JOBS))
            });
            // The sequential run is a reference beside the op, not part of it.
            let (seq_ms, _) = timed(|| corpus_bundle.run_sequential(docs, &options(true, true, 1)));
            tr.count("pipeline.corpus_seq_ms", seq_ms);
            let efficiency = seq_ms / (CORPUS_JOBS as f64 * tr.duration(par));
            tr.count("pipeline.fanout_efficiency", efficiency);
            Output::Corpus(result)
        }
    })
}
