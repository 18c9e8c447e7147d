//! `edit-churn`: delta maintenance of one large document.
//!
//! The bulk-load document (18 fields, depth 6, 10 keys, branching 8,
//! ~1.25M nodes) is opened once with `CorpusBundle::open_incremental`
//! (set-up: parse + open).  A closed loop on one thread then applies a
//! seeded edit script through `CorpusBundle::apply_delta`: `SetText`, text
//! node remove + re-insert, and deepest-level subtree remove + re-insert
//! (pairs, so the size stays steady), at targets drawn uniformly over
//! document order.  Every 100 events an entity's key attribute takes a
//! sibling's value (a key violation) and 20 events later gets its own back.

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use xmlprop_pipeline::CorpusBundle;
use xmlprop_workload::{generate_document_with_report, DocConfig};
use xmlprop_xmlkeys::IncrementalValidator;
use xmlprop_xmltransform::{IncrementalShredder, Transformation};
use xmlprop_xmltree::{AppliedDelta, Delta, DocIndex, Document, Fragment, NodeId, NodeKind};

use crate::common::{closed_loop, fixed_schema, gate, timed, Cfg, Fnv, Op, Outcome};
use crate::trace::Tracer;

const DEPTH: usize = 6;
/// Edits generated up front; a run that uses them all stops early.
const SCRIPT_EDITS: usize = 6000;
/// Edits per closed-loop round.
const ROUND: usize = 10;
/// Set-up repetitions before the measured window; as many again follow
/// it, so that one slow stretch of the host does not decide `setup_s`.
const SETUPS_EACH_SIDE: usize = 4;

/// One scripted edit and what it does to the injected key violations: +1
/// injects one, -1 repairs one, 0 leaves them alone.
struct Edit {
    delta: Delta,
    injects: i32,
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let w = fixed_schema(18, DEPTH, 10);
    let (doc, report) = generate_document_with_report(
        &w,
        &DocConfig {
            branching: 8,
            omission_probability: 0.1,
            seed: cfg.sub_seed("document"),
            depth: Some(DEPTH),
        },
    );
    let text = xmlprop_xmltree::to_xml(&doc);
    drop(doc);
    // The script names nodes by the ids a parse of the text assigns.
    let parsed = Document::parse_str(&text).map_err(|e| format!("generated text reparses: {e}"))?;
    let script = make_script(&parsed, &mut cfg.rng("edits"));
    drop(parsed);
    let mut sum = Fnv::new();
    sum.str(&text);
    for edit in &script {
        sum.str(&format!("{:?}", edit.delta));
    }
    out.checksum = sum.finish();
    out.fact("document_nodes", report.nodes);
    out.fact("document_bytes", text.len());
    out.fact("script_edits", script.len());

    let bundle = CorpusBundle::prepare(
        w.sigma.clone(),
        Transformation::new(vec![w.universal.clone()]),
    );
    // Set-up: parse + open, repeated before and after the measured window
    // (the median is reported).  Only one opened state is alive at a time.
    let set_up = |out: &mut Outcome| {
        let (ms, opened) =
            timed(|| Document::parse_str(&text).map(|doc| bundle.open_incremental(doc)));
        out.setup_s.push(ms / 1e3);
        opened.map_err(|e| e.to_string())
    };
    let mut state = set_up(&mut out)?;
    for _ in 1..SETUPS_EACH_SIDE {
        drop(state);
        state = set_up(&mut out)?;
    }
    gate(state.violation_count() == 0, || {
        "the generated document does not satisfy its keys".into()
    })?;

    // Untimed gates: after every edit, the maintained violation count is
    // non-zero exactly while an injected duplicate is pending; at the first
    // round that ends with one pending, and at the end, the maintained
    // violations and database equal a from-scratch pass.
    let mut next = 0;
    let mut pending = 0;
    let mut checked_pending = false;
    closed_loop(cfg.seconds, 1, |_| {
        for edit in script.iter().skip(next).take(ROUND) {
            out.attempted += 1;
            let (ms, applied) = timed(|| bundle.apply_delta(&mut state, &edit.delta));
            match applied {
                Ok(report) => {
                    out.ops.push(Op { kind: "edit", ms });
                    pending += edit.injects;
                    pending_gate(report.violations, pending, out.failed)?;
                }
                Err(_) => out.failed += 1,
            }
        }
        next += ROUND;
        if pending == 0 || checked_pending {
            return Ok(0.0);
        }
        checked_pending = true;
        let (ms, checked) = timed(|| {
            check(
                &bundle,
                state.document(),
                &state.violations(),
                &state.database(&bundle),
            )
        });
        checked.map(|()| ms / 1e3)
    })?;
    check(
        &bundle,
        state.document(),
        &state.violations(),
        &state.database(&bundle),
    )?;
    let edited = cfg.trace.then(|| state.document().clone());
    drop(state);
    for _ in 0..SETUPS_EACH_SIDE {
        drop(set_up(&mut out)?);
    }

    if let Some(doc) = edited {
        // An edit cannot be repeated, so the traced window follows the
        // untraced one: it drives the four public calls `apply_delta`
        // makes, a span each, on a copy of the edited document.  Editing a
        // second copy in step with the first was tried: the copy ran 25%
        // faster than the original, which skewed the comparison more than
        // the host's drift between the two windows does.
        let mut mirror = Mirror::open(&bundle, doc);
        let mut tr = Tracer::new();
        closed_loop(cfg.seconds, 1, |_| {
            for edit in script.iter().skip(next).take(ROUND) {
                out.attempted += 1;
                if mirror.traced_apply(&mut tr, &bundle, &edit.delta) {
                    pending += edit.injects;
                    pending_gate(mirror.validator.violation_count(), pending, out.failed)?;
                } else {
                    out.failed += 1;
                }
            }
            next += ROUND;
            Ok(0.0)
        })?;
        check(
            &bundle,
            &mirror.doc,
            &mirror.validator.violations(),
            &mirror.shredder.database(bundle.plan()),
        )?;
        out.tracer = Some(tr);
    }
    out.fact("edits_applied", next.min(script.len()));
    if next > script.len() {
        println!("# note: the edit script ran out before the measured window ended");
    }
    Ok(out)
}

/// The state `CorpusBundle::apply_delta` maintains, held in the open so
/// each of its steps can be timed.
struct Mirror {
    doc: Document,
    universe: xmlprop_xmltree::LabelUniverse,
    index: DocIndex,
    validator: IncrementalValidator,
    shredder: IncrementalShredder,
}

impl Mirror {
    fn open(bundle: &CorpusBundle, doc: Document) -> Mirror {
        let mut universe = bundle.worker_universe();
        let index = DocIndex::build(&doc, &mut universe);
        let validator = IncrementalValidator::new(bundle.keys(), &doc, &index);
        let shredder = IncrementalShredder::new(bundle.plan(), &doc, &index);
        Mirror {
            doc,
            universe,
            index,
            validator,
            shredder,
        }
    }

    /// One edit as `apply_delta` makes it, a span per step; false when the
    /// edit does not apply.
    fn traced_apply(&mut self, tr: &mut Tracer, bundle: &CorpusBundle, delta: &Delta) -> bool {
        tr.begin_op("edit");
        let before = match delta {
            Delta::RemoveSubtree { node } => Some(self.index.position(*node)),
            _ => None,
        };
        let root = tr.open("pipeline.apply_delta", None);
        let (_, applied) = tr.time("xmltree.apply", Some(root), || self.doc.apply(delta));
        let Ok(applied) = applied else {
            tr.close(root);
            return false;
        };
        let (ix, _) = tr.time("xmltree.index_delta", Some(root), || {
            self.index
                .apply_delta(&self.doc, &applied, &mut self.universe)
        });
        tr.time("xmlkeys.incr", Some(root), || {
            self.validator
                .apply(bundle.keys(), &self.doc, &self.index, &applied)
        });
        let (_, relations) = tr.time("xmltransform.incr", Some(root), || {
            self.shredder
                .apply(bundle.plan(), &self.doc, &self.index, &applied)
        });
        tr.close(root);
        let changed: usize = relations
            .iter()
            .map(|r| r.inserted().len() + r.deleted().len())
            .sum();
        tr.count("xmltransform.delta_tuples", changed as f64);
        let splice = match applied {
            AppliedDelta::Insert { root, .. } => Some(self.index.position(root)),
            AppliedDelta::Remove { .. } => before,
            AppliedDelta::SetText { .. } => None,
        };
        if let Some(pos) = splice {
            let len = self.index.len() as f64;
            tr.count("xmltree.renumbered", len - f64::from(pos));
            let share = f64::from(pos) / len;
            if share < 0.25 {
                tr.count("xmltree.index_delta_front_ms", tr.duration(ix));
            } else if share > 0.75 {
                tr.count("xmltree.index_delta_back_ms", tr.duration(ix));
            }
        }
        true
    }
}

/// While no edit has failed, the maintained violation count must be
/// non-zero exactly while an injected duplicate key is pending.  (A failed
/// injection would leave its repair unmatched, so the count is not checked
/// after one.)
fn pending_gate(violations: usize, pending: i32, failed: u64) -> Result<(), String> {
    gate(failed > 0 || (violations > 0) == (pending > 0), || {
        format!("{violations} maintained violations with {pending} injected duplicates pending")
    })
}

/// The maintained violations and database must equal a from-scratch
/// index + validation + shred of the current document.
fn check(
    bundle: &CorpusBundle,
    doc: &Document,
    violations: &[xmlprop_xmlkeys::Violation],
    database: &xmlprop_reldb::Database,
) -> Result<(), String> {
    let mut universe = bundle.worker_universe();
    let index = DocIndex::build(doc, &mut universe);
    gate(violations == bundle.keys().violations(doc, &index), || {
        "maintained violations differ from a from-scratch validation".into()
    })?;
    gate(*database == bundle.plan().shred_all(doc, &index), || {
        "maintained database differs from a from-scratch shred".into()
    })
}

/// Generates the edit script against the freshly parsed document.
fn make_script(doc: &Document, rng: &mut StdRng) -> Vec<Edit> {
    let order = doc.all_nodes();
    let leaf_label = format!("e{}", DEPTH - 1);
    let id_label = format!("@id{}", DEPTH - 1);
    let values: Vec<NodeId> = order
        .iter()
        .copied()
        .filter(|&n| match doc.kind(n) {
            NodeKind::Text => true,
            NodeKind::Attribute => !doc.label(n).starts_with("@id"),
            NodeKind::Element => false,
        })
        .collect();
    let texts: Vec<NodeId> = order
        .iter()
        .copied()
        .filter(|&n| doc.kind(n).is_text())
        .collect();
    let leaves: Vec<NodeId> = order
        .iter()
        .copied()
        .filter(|&n| doc.kind(n) == NodeKind::Element && doc.label(n) == leaf_label)
        .collect();
    let mut dead = vec![false; doc.arena_len()];
    let mut reserved = vec![false; doc.arena_len()];
    let mut current: HashMap<NodeId, String> = HashMap::new();
    let mut script: Vec<Edit> = Vec::with_capacity(SCRIPT_EDITS);
    let plain = |delta| Edit { delta, injects: 0 };
    let mut repairs: Vec<(usize, Delta)> = Vec::new();
    let mut events = 0usize;
    while script.len() < SCRIPT_EDITS {
        events += 1;
        if let Some(i) = repairs.iter().position(|(at, _)| *at <= events) {
            script.push(Edit {
                delta: repairs.swap_remove(i).1,
                injects: -1,
            });
            continue;
        }
        if events.is_multiple_of(100) {
            // Key violation: a leaf takes its sibling's key value.
            let x = leaves[rng.gen_range(0..leaves.len())];
            let parent = doc.parent(x).expect("leaves have parents");
            let sibling = doc.element_children(parent).find(|&s| {
                s != x && doc.label(s) == leaf_label && !dead[s.index()] && !reserved[s.index()]
            });
            if let (false, Some(y)) = (dead[x.index()] || reserved[x.index()], sibling) {
                let (Some(xa), Some(ya)) = (
                    doc.attribute_node(x, &id_label),
                    doc.attribute_node(y, &id_label),
                ) else {
                    continue;
                };
                reserved[x.index()] = true;
                reserved[y.index()] = true;
                let own = doc.text_value(xa).unwrap_or_default().to_string();
                let theirs = doc.text_value(ya).unwrap_or_default().to_string();
                script.push(Edit {
                    delta: Delta::SetText {
                        node: xa,
                        text: theirs,
                    },
                    injects: 1,
                });
                repairs.push((
                    events + 20,
                    Delta::SetText {
                        node: xa,
                        text: own,
                    },
                ));
            }
            continue;
        }
        match rng.gen_range(0..4) {
            0 | 1 => {
                let node = values[rng.gen_range(0..values.len())];
                if dead[node.index()] {
                    continue;
                }
                let text = format!("edit-{events}");
                current.insert(node, text.clone());
                script.push(plain(Delta::SetText { node, text }));
            }
            2 => {
                let node = texts[rng.gen_range(0..texts.len())];
                if dead[node.index()] {
                    continue;
                }
                let parent = doc.parent(node).expect("text nodes have parents");
                let position = doc
                    .children(parent)
                    .position(|c| c == node)
                    .expect("child of its parent");
                let value = current
                    .get(&node)
                    .cloned()
                    .unwrap_or_else(|| doc.text_value(node).unwrap_or_default().to_string());
                dead[node.index()] = true;
                script.push(plain(Delta::RemoveSubtree { node }));
                script.push(plain(Delta::InsertSubtree {
                    parent,
                    position,
                    fragment: Fragment::Text(value),
                }));
            }
            _ => {
                let node = leaves[rng.gen_range(0..leaves.len())];
                if dead[node.index()] || reserved[node.index()] {
                    continue;
                }
                let parent = doc.parent(node).expect("leaves have parents");
                let position = doc
                    .children(parent)
                    .position(|c| c == node)
                    .expect("child of its parent");
                let mut copy = Document::new(doc.label(node));
                let root = copy.root();
                copy_children(doc, node, &mut copy, root, &current);
                for n in doc.descendants_or_self(node) {
                    dead[n.index()] = true;
                }
                script.push(plain(Delta::RemoveSubtree { node }));
                script.push(plain(Delta::InsertSubtree {
                    parent,
                    position,
                    fragment: Fragment::Element(copy),
                }));
            }
        }
    }
    // Repairs still pending are appended so every violation is undone.
    script.extend(
        repairs
            .into_iter()
            .map(|(_, delta)| Edit { delta, injects: -1 }),
    );
    script
}

/// Copies the children of `from` (with any earlier `SetText` values) under
/// `to` in `copy`.
fn copy_children(
    doc: &Document,
    from: NodeId,
    copy: &mut Document,
    to: NodeId,
    current: &HashMap<NodeId, String>,
) {
    for child in doc.children(from) {
        let value = || {
            current
                .get(&child)
                .cloned()
                .unwrap_or_else(|| doc.text_value(child).unwrap_or_default().to_string())
        };
        match doc.kind(child) {
            NodeKind::Attribute => {
                copy.add_attribute(to, doc.label(child), value());
            }
            NodeKind::Text => {
                copy.add_text(to, value());
            }
            NodeKind::Element => {
                let element = copy.add_element(to, doc.label(child));
                copy_children(doc, child, copy, element, current);
            }
        }
    }
}
