//! `serve-mix`: the resident server over loopback.
//!
//! An in-process `Server` serves a bundle prepared from the generator's
//! 15-field, depth-4, 10-key schema: the universal rule `U` plus one
//! per-level rule `L3` (the deepest level's chain key and attributes),
//! written here as rules text, so that a query joining `U` to `L3` on the
//! chain key plans as a key lookup.  Two client connections run a closed
//! loop with a seeded verb mix (40% validate, 30% shred, 15% query, 10%
//! propagate, 5% cover) over a pool of distinct ~7k-node documents, two of
//! which carry a duplicated key value.

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use xmlprop_core::PropagationEngine;
use xmlprop_pipeline::{parse_rules_text, CorpusBundle, Jobs, RequestScratch};
use xmlprop_query::{execute, parse_query, plan, Catalog, JoinKind};
use xmlprop_reldb::Fd;
use xmlprop_server::{render, Client, Request, Response, ScratchCache, Server, ServerState};
use xmlprop_workload::{generate_corpus, random_fd, CorpusConfig, DocConfig, Workload};
use xmlprop_xmltree::Document;

use crate::bulk_load::drain;
use crate::common::{fixed_schema, gate, timed, Cfg, Fnv, Op, Outcome};
use crate::trace::Tracer;

const DEPTH: usize = 4;
const POOL: usize = 20;
const BROKEN: usize = 2;
const PROBES: usize = 32;
const CLIENTS: usize = 2;
/// Set-up repetitions before the measured window, and again after it, so
/// that one slow stretch of the host does not decide `setup_s`.
const SETUPS_EACH_SIDE: usize = 8;
/// Requests per closed-loop round of one client.
const ROUND: usize = 20;
/// Cumulative verb mix, in percent.
const MIX: [(&str, u32); 5] = [
    ("validate", 40),
    ("shred", 70),
    ("query", 85),
    ("propagate", 95),
    ("cover", 100),
];

/// Inputs and the expected payload of every request the loop can send.
struct Inputs {
    docs: Vec<String>,
    fds: Vec<String>,
    query: String,
    validate: Vec<String>,
    shred: Vec<String>,
    queried: Vec<String>,
    propagated: Vec<String>,
    cover: String,
}

impl Inputs {
    fn request(&self, kind: &str, rng: &mut StdRng) -> (Request, &str) {
        let d = rng.gen_range(0..self.docs.len());
        match kind {
            "validate" => (
                Request::Validate {
                    document: self.docs[d].clone(),
                },
                &self.validate[d],
            ),
            "shred" => (
                Request::Shred {
                    document: self.docs[d].clone(),
                    relation: None,
                },
                &self.shred[d],
            ),
            "query" => (
                Request::Query {
                    document: self.docs[d].clone(),
                    query: self.query.clone(),
                },
                &self.queried[d],
            ),
            "propagate" => {
                let p = rng.gen_range(0..self.fds.len());
                (
                    Request::Propagate {
                        relation: "U".into(),
                        fd: self.fds[p].clone(),
                    },
                    &self.propagated[p],
                )
            }
            _ => (
                Request::Cover {
                    relation: Some("U".into()),
                },
                &self.cover,
            ),
        }
    }
}

/// A per-level rule, as rules text: the level's chain key plus every field
/// of the level that the universal rule's propagated FDs say the chain key
/// determines (so the chain key is a key of the new relation).
fn level_rule(w: &Workload, level: usize) -> String {
    let engine = PropagationEngine::new(&w.sigma, &w.universal);
    let chain = w.chain_key(level);
    let determined = |f: &&String| {
        engine.propagation(&Fd::new(
            chain.clone(),
            std::iter::once((*f).clone()).collect(),
        ))
    };
    let attrs: Vec<&String> = w.attr_fields_per_level[level]
        .iter()
        .skip(1)
        .filter(determined)
        .collect();
    let elements: Vec<&String> = w.element_fields_per_level[level]
        .iter()
        .filter(determined)
        .collect();
    let mut body = String::new();
    for l in 0..=level {
        let step = if l == 0 {
            format!("xr//{}", w.level_labels[0])
        } else {
            format!("v{}/{}", l - 1, w.level_labels[l])
        };
        body.push_str(&format!("    v{l} := {step};\n"));
        body.push_str(&format!("    w_{f} := v{l}/@{f};\n", f = w.id_field(l)));
    }
    for f in &attrs {
        body.push_str(&format!("    w_{f} := v{level}/@{f};\n"));
    }
    for f in &elements {
        body.push_str(&format!("    w_{f} := v{level}/{f}_el;\n"));
    }
    let fields: Vec<&str> = (0..=level)
        .map(|l| w.id_field(l))
        .chain(attrs.iter().chain(&elements).map(|f| f.as_str()))
        .collect();
    for f in &fields {
        body.push_str(&format!("    {f} := value(w_{f});\n"));
    }
    format!("rule L{level}({}) {{\n{body}}}\n", fields.join(", "))
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let w = fixed_schema(15, DEPTH, 10);
    let level = DEPTH - 1;
    let rules_text = format!("{}\n\n{}", w.universal, level_rule(&w, level));
    let transformation =
        parse_rules_text(&rules_text, "serve-mix rules").map_err(|e| e.to_string())?;
    let (mut docs, report) = generate_corpus(
        &w,
        &CorpusConfig {
            documents: POOL,
            base: DocConfig {
                branching: 6,
                omission_probability: 0.1,
                seed: cfg.sub_seed("pool"),
                depth: Some(DEPTH),
            },
        },
    );
    let mut rng = cfg.rng("broken");
    let leaf = w.level_labels[level].clone();
    let key_attr = format!("@{}", w.id_field(level));
    let mut broken = BTreeSet::new();
    while broken.len() < BROKEN {
        let d = rng.gen_range(0..POOL);
        if broken.insert(d) {
            duplicate_key(&mut docs[d], &leaf, &key_attr, &mut rng)?;
        }
    }
    let texts: Vec<String> = docs.iter().map(xmlprop_xmltree::to_xml).collect();
    drop(docs);
    let mut rng = cfg.rng("probes");
    let fds: Vec<String> = (0..PROBES)
        .map(|_| {
            let lhs = rng.gen_range(1..4);
            random_fd(&w, &mut rng, lhs).to_string()
        })
        .collect();
    let chain: Vec<String> = (0..=level)
        .map(|l| format!("U.{f} = L{level}.{f}", f = w.id_field(l)))
        .collect();
    let query = format!(
        "select U.{}, L{level}.{} from U join L{level} on {}",
        w.id_field(0),
        w.id_field(level),
        chain.join(" and ")
    );

    let mut sum = Fnv::new();
    sum.str(&rules_text);
    sum.str(&query);
    for t in texts.iter().chain(&fds) {
        sum.str(t);
    }
    out.checksum = sum.finish();
    out.fact("pool_documents", POOL);
    out.fact("pool_nodes_mean", report.total_nodes / POOL);
    out.fact(
        "pool_bytes_mean",
        texts.iter().map(String::len).sum::<usize>() / POOL,
    );
    out.fact("documents_with_duplicate_key", format!("{broken:?}"));

    // Set-up: time to the first response — bundle preparation, server
    // bind, connect, and one `validate` round trip.  Repeated before and
    // after the measured window (the median is reported).
    let keys = w.sigma.clone();
    let first = texts[0].clone();
    let set_up = |out: &mut Outcome| {
        let (ms, ready) = timed(|| -> Result<Server, String> {
            let bundle = CorpusBundle::prepare(keys.clone(), transformation.clone());
            let server = Server::bind("127.0.0.1:0", bundle, Jobs::new(CLIENTS).expect("valid"))
                .map_err(|e| e.to_string())?;
            let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
            client
                .send(&Request::Validate {
                    document: first.clone(),
                })
                .map_err(|e| e.to_string())?;
            Ok(server)
        });
        out.setup_s.push(ms / 1e3);
        ready
    };
    let mut server = set_up(&mut out)?;
    for _ in 1..SETUPS_EACH_SIDE {
        server.shutdown();
        server = set_up(&mut out)?;
    }
    let bundle = CorpusBundle::prepare(keys.clone(), transformation.clone());

    // Expected payloads, rendered in-process.
    let mut scratch = RequestScratch::for_bundle(&bundle);
    let parsed: Vec<Document> = texts
        .iter()
        .map(|t| Document::parse_str(t))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let engine = render::require_rule(&bundle, "U").map_err(|e| e.to_string())?;
    let inputs = Inputs {
        validate: parsed
            .iter()
            .map(|d| render::validate_report(&bundle, d, &mut scratch).1)
            .collect(),
        shred: parsed
            .iter()
            .map(|d| render::shred_report(&bundle, d, &mut scratch, None).map(|r| r.1))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?,
        queried: parsed
            .iter()
            .map(|d| render::query_report(&bundle, d, &mut scratch, &query).map(|r| r.1))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?,
        propagated: fds
            .iter()
            .map(|f| {
                render::parse_fd(f)
                    .map(|fd| render::propagate_report(&engine.propagation_explained(&fd)).1)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?,
        cover: render::cover_report(&bundle, Some("U"))
            .map_err(|e| e.to_string())?
            .1,
        docs: texts,
        fds,
        query,
    };
    drop(parsed);
    gate(inputs.queried[0].contains("[key lookup]"), || {
        format!(
            "the U-L join does not plan as a key lookup: {}",
            inputs.queried[0].lines().next().unwrap_or("")
        )
    })?;
    gate(
        inputs
            .validate
            .iter()
            .filter(|v| v.contains("[FAIL]"))
            .count()
            == BROKEN,
        || "the documents with a duplicated key do not fail validation".into(),
    )?;

    let addr = server.local_addr();
    let state = Arc::clone(server.state());
    let lockstep = cfg.trace.then(|| Lockstep {
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
    });
    let results: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (inputs, bundle, state) = (&inputs, &bundle, &state);
                let rng = cfg.rng(&format!("client-{c}"));
                let lockstep = lockstep.as_ref();
                scope.spawn(move || client_loop(cfg, addr, inputs, bundle, state, rng, lockstep))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut tracer = cfg.trace.then(Tracer::new);
    for r in results {
        let r = r?;
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.wall_s = Some(out.wall_s.unwrap_or(0.0).max(r.elapsed));
        out.ops.extend(r.ops);
        if let (Some(all), Some(mine)) = (tracer.as_mut(), r.tracer) {
            all.merge(mine);
        }
    }
    out.tracer = tracer;
    let drained = server.shutdown();
    out.fact("server_drain", format!("{drained:?}"));
    for _ in 0..SETUPS_EACH_SIDE {
        set_up(&mut out)?.shutdown();
    }
    Ok(out)
}

/// Gives one leaf entity its sibling's key value.
fn duplicate_key(
    doc: &mut Document,
    leaf: &str,
    key_attr: &str,
    rng: &mut StdRng,
) -> Result<(), String> {
    let candidates: Vec<_> = doc
        .descendants(doc.root())
        .into_iter()
        .filter(|&n| doc.label(n) == leaf)
        .filter_map(|n| {
            let parent = doc.parent(n)?;
            let sibling = doc
                .element_children(parent)
                .find(|&s| s != n && doc.label(s) == leaf)?;
            Some((
                doc.attribute_node(n, key_attr)?,
                doc.attribute(sibling, key_attr)?.to_string(),
            ))
        })
        .collect();
    if candidates.is_empty() {
        return Err("no leaf entity with a sibling to copy a key from".into());
    }
    let (node, value) = candidates[rng.gen_range(0..candidates.len())].clone();
    doc.set_text(node, value);
    Ok(())
}

struct ClientRunData {
    ops: Vec<Op>,
    attempted: u64,
    failed: u64,
    elapsed: f64,
    tracer: Option<Tracer>,
}

type ClientRun = Result<ClientRunData, String>;

/// In the traced run the clients move in lockstep: both start each pass of
/// a request together, so a traced round trip overlaps the other client's
/// round trip as an untraced one does, and the traced pass re-runs the
/// server's inner calls only once both round trips are done.  Both clients
/// stop after the same round.
struct Lockstep {
    barrier: Barrier,
    stop: AtomicBool,
}

fn client_loop(
    cfg: &Cfg,
    addr: std::net::SocketAddr,
    inputs: &Inputs,
    bundle: &CorpusBundle,
    state: &ServerState,
    mut rng: StdRng,
    lockstep: Option<&Lockstep>,
) -> ClientRun {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut run = ClientRunData {
        ops: Vec::new(),
        attempted: 0,
        failed: 0,
        elapsed: 0.0,
        tracer: cfg.trace.then(Tracer::new),
    };
    let mut cache = ScratchCache::new();
    let mut scratch = RequestScratch::for_bundle(bundle);
    // A failed gate is kept and reported after the loop: in lockstep an
    // early return would leave the other client waiting at the barrier.
    let mut mismatch = None;
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        let done = rounds > 0 && start.elapsed().as_secs_f64() >= cfg.window();
        let done = match lockstep {
            Some(ls) => {
                if ls.barrier.wait().is_leader() {
                    ls.stop.store(done, Ordering::SeqCst);
                }
                ls.barrier.wait();
                ls.stop.load(Ordering::SeqCst)
            }
            None => done,
        };
        if done {
            break;
        }
        for _ in 0..ROUND {
            let roll = rng.gen_range(0..100);
            let kind = MIX
                .iter()
                .find(|(_, upto)| roll < *upto)
                .expect("mix covers 0..100")
                .0;
            let (request, expected) = inputs.request(kind, &mut rng);
            for &traced in cfg.passes() {
                if let Some(ls) = lockstep {
                    ls.barrier.wait();
                }
                run.attempted += 1;
                let response = match run.tracer.as_mut().filter(|_| traced) {
                    None => {
                        let (ms, response) = timed(|| client.send(&request));
                        if matches!(&response, Ok(r) if !r.is_err()) {
                            run.ops.push(Op { kind, ms });
                        }
                        response
                    }
                    Some(tr) => traced_request(
                        tr,
                        kind,
                        &request,
                        &mut client,
                        (state, bundle),
                        (&mut cache, &mut scratch),
                        lockstep,
                    ),
                };
                match response {
                    Ok(r) if !r.is_err() => {
                        if r.payload != expected && mismatch.is_none() {
                            mismatch = Some(format!(
                                "correctness gate failed: served {kind} response differs \
                                 from the in-process renderer"
                            ));
                        }
                    }
                    _ => run.failed += 1,
                }
            }
        }
        rounds += 1;
    }
    run.elapsed = start.elapsed().as_secs_f64();
    match mismatch {
        Some(e) => Err(e),
        None => Ok(run),
    }
}

fn wire_bytes(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> f64 {
    let mut buf = Vec::new();
    write(&mut buf).map_or(0.0, |()| buf.len() as f64)
}

/// One request, traced: the round trip, then the server's `respond` for
/// the same request in-process, then the public calls `respond` makes.
fn traced_request(
    tr: &mut Tracer,
    kind: &'static str,
    request: &Request,
    client: &mut Client,
    (state, bundle): (&ServerState, &CorpusBundle),
    (cache, scratch): (&mut ScratchCache, &mut RequestScratch),
    lockstep: Option<&Lockstep>,
) -> Result<Response, xmlprop_pipeline::Error> {
    tr.begin_op(kind);
    let (wire, response) = tr.time("server.wire", None, || client.send(request));
    if let Some(ls) = lockstep {
        ls.barrier.wait();
    }
    tr.count("server.bytes_in", wire_bytes(|b| request.write_to(b)));
    if let Ok(r) = &response {
        tr.count("server.bytes_out", wire_bytes(|b| r.write_to(b)));
        tr.count("server.errors", f64::from(u8::from(r.is_err())));
    }
    let (respond, _) = tr.time("server.respond", Some(wire), || {
        state.respond(request, cache)
    });
    let document = match request {
        Request::Validate { document }
        | Request::Shred { document, .. }
        | Request::Query { document, .. } => Some(document),
        _ => None,
    };
    let doc = match document {
        Some(text) => {
            let (tree, doc) = tr.time("xmltree.tree", Some(respond), || Document::parse_str(text));
            tr.time("xmltree.tokenize", Some(tree), || drain(text, None));
            tr.count("xmltree.input_mb", text.len() as f64 / 1e6);
            let doc = doc.expect("pool documents parse");
            tr.count("xmltree.nodes", doc.len() as f64);
            Some(doc)
        }
        None => None,
    };
    let engine = render::require_rule(bundle, "U").expect("U is served");
    match (request, doc) {
        (Request::Validate { .. }, Some(doc)) => {
            let (render_id, _) = tr.time("server.render", Some(respond), || {
                render::validate_report(bundle, &doc, scratch)
            });
            let (_, index) = tr.time("xmltree.index", Some(render_id), || {
                scratch.index_document(&doc)
            });
            let (_, found) = tr.time("xmlkeys.validate", Some(render_id), || {
                (0..bundle.sigma().len())
                    .map(|k| bundle.keys().violations_of(k, &doc, &index).len())
                    .sum::<usize>()
            });
            tr.count("xmlkeys.violations", found as f64);
        }
        (Request::Shred { .. }, Some(doc)) => {
            let (render_id, _) = tr.time("server.render", Some(respond), || {
                render::shred_report(bundle, &doc, scratch, None)
            });
            let (_, index) = tr.time("xmltree.index", Some(render_id), || {
                scratch.index_document(&doc)
            });
            let (_, tuples) = tr.time("xmltransform.shred", Some(render_id), || {
                scratch.shred_scratch().reset();
                bundle
                    .plan()
                    .plans()
                    .iter()
                    .map(|p| p.shred_with(&doc, &index, scratch.shred_scratch()).len())
                    .sum::<usize>()
            });
            tr.count("xmltransform.tuples", tuples as f64);
        }
        (Request::Query { query, .. }, Some(doc)) => {
            let (render_id, _) = tr.time("server.render", Some(respond), || {
                render::query_report(bundle, &doc, scratch, query)
            });
            let (_, covers) = tr.time("core.cover", Some(render_id), || {
                bundle
                    .engines()
                    .iter()
                    .map(|e| e.minimum_cover())
                    .collect::<Vec<_>>()
            });
            let (_, parsed) = tr.time("query.parse", Some(render_id), || parse_query(query));
            let parsed = parsed.expect("the benchmark query parses");
            let (_, planned) = tr.time("query.plan", Some(render_id), || {
                let mut catalog = Catalog::new();
                for (e, cover) in bundle.engines().iter().zip(&covers) {
                    catalog.add_relation(e.rule().schema().clone(), cover);
                }
                plan(&parsed, &catalog)
            });
            let planned = planned.expect("the benchmark query plans");
            tr.count(
                "query.key_lookups",
                planned
                    .joins
                    .iter()
                    .filter(|j| j.kind == JoinKind::KeyLookup)
                    .count() as f64,
            );
            let (_, index) = tr.time("xmltree.index", Some(render_id), || {
                scratch.index_document(&doc)
            });
            let (_, database) = tr.time("xmltransform.shred", Some(render_id), || {
                scratch.shred_scratch().reset();
                let mut db = xmlprop_reldb::Database::new();
                for p in bundle.plan().plans() {
                    db.insert(p.shred_with(&doc, &index, scratch.shred_scratch()));
                }
                db
            });
            let (_, rows) = tr.time("query.exec", Some(render_id), || {
                execute(&planned, &database).map(|r| r.len())
            });
            tr.count("query.rows_out", rows.unwrap_or(0) as f64);
        }
        (Request::Propagate { fd, .. }, _) => {
            let fd = render::parse_fd(fd).expect("probe FDs parse");
            let (_, outcomes) = tr.time("core.propagate", Some(respond), || {
                engine.propagation_explained(&fd)
            });
            tr.time("server.render", Some(respond), || {
                render::propagate_report(&outcomes)
            });
        }
        _ => {
            let (render_id, _) = tr.time("server.render", Some(respond), || {
                render::cover_report(bundle, Some("U"))
            });
            let (_, (_, stats)) = tr.time("core.cover", Some(render_id), || {
                engine.minimum_cover_with_stats()
            });
            tr.count("core.implication_calls", stats.implication_calls as f64);
            tr.count("core.generated_fds", stats.generated_fds as f64);
        }
    }
    response
}
