//! Prepared shredding: the compiled form of a table rule.
//!
//! The string-based [`shred_rule`](crate::shred) walk clones a whole
//! `BTreeMap<String, Option<NodeId>>` binding per row per variable and
//! re-evaluates every path through string label comparisons.  A
//! [`ShredPlan`] does the per-rule work once:
//!
//! * every variable gets a dense [`VarId`] (parent-before-child order), so
//!   a binding is a flat row of `u32` DFS positions instead of a string-keyed
//!   map — extending the Cartesian product is a `memcpy`, not a tree clone;
//! * every edge path is compiled ([`xmlprop_xmlpath::CompiledExpr`]) against
//!   a shared [`LabelUniverse`] and evaluated over a prepared
//!   [`DocIndex`] with reusable scratch frontiers;
//! * the `value()` serialization of each bound node is **memoized** per
//!   node, so a node reached by many rows (the upper levels of the product)
//!   is serialized once.
//!
//! The binding table is columnar in spirit — one `u32` slot per
//! (row, variable), stored as fixed-stride rows so row replication on
//! multi-node bindings stays a contiguous copy; rows that bind at most one
//! node per variable (the common case) are extended **in place** with no
//! reallocation at all.
//!
//! [`TableRule::prepare`] builds a plan for one rule;
//! [`Transformation::prepare`] builds a [`TransformationPlan`] covering
//! every rule against one universe, whose
//! [`shred_all`](TransformationPlan::shred_all) shares the `value()` memo
//! across rules of the same document.

use crate::rule::{TableRule, Transformation};
use crate::shred::field_value;
use std::collections::HashMap;
use xmlprop_reldb::{Database, Relation, RelationSchema, Tuple, Value};
use xmlprop_xmlpath::{
    CompiledAtom, CompiledExpr, EvalScratch, LabelId, LabelUniverse, PathCompiler,
};
use xmlprop_xmltree::{DocIndex, Document, NodeId};

/// A dense identifier for a variable of one [`ShredPlan`] (the root
/// variable `xr` is `VarId(0)`; parents precede children).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel for "variable bound to null" in the binding table.
const NULL: u32 = u32::MAX;

/// The compiled form of one [`TableRule`]; see the module docs.
#[derive(Debug, Clone)]
pub struct ShredPlan {
    schema: RelationSchema,
    /// Parent [`VarId`] of each variable (`parents[0] == 0` for the root).
    parents: Vec<u32>,
    /// Compiled edge path of each variable (`ε` for the root).
    paths: Vec<CompiledExpr>,
    /// For single-label edge paths (the overwhelmingly common case —
    /// Definition 2.2 forbids `//` below the root variable): the label, so
    /// binding is a direct child scan without the general evaluator.
    single_label: Vec<Option<LabelId>>,
    /// For every schema attribute: the variable whose `value()` fills it.
    field_vars: Vec<u32>,
}

impl ShredPlan {
    /// Compiles a (validated) rule against `universe`.
    ///
    /// The same universe must be used for the [`DocIndex`] the plan later
    /// shreds over (ids are append-only, so plan and index can be prepared
    /// in either order).
    pub fn new(rule: &TableRule, universe: &mut LabelUniverse) -> Self {
        let tree = rule.table_tree();
        let order = tree.variables();
        let id_of: HashMap<&str, u32> = order
            .iter()
            .enumerate()
            .map(|(i, v)| (v.as_str(), i as u32))
            .collect();
        let mut parents = Vec::with_capacity(order.len());
        let mut paths = Vec::with_capacity(order.len());
        for var in order {
            match tree.parent(var) {
                Some(p) => {
                    parents.push(id_of[p]);
                    paths.push(universe.compile(tree.edge_path(var).expect("non-root edge")));
                }
                None => {
                    parents.push(0);
                    paths.push(CompiledExpr::epsilon());
                }
            }
        }
        let field_vars = rule
            .schema()
            .attributes()
            .iter()
            .map(|field| {
                id_of[rule
                    .field_var(field)
                    .expect("validated rule covers every field")]
            })
            .collect();
        let single_label = paths
            .iter()
            .map(|p| match p.atoms() {
                [CompiledAtom::Label(l)] => Some(*l),
                _ => None,
            })
            .collect();
        ShredPlan {
            schema: rule.schema().clone(),
            parents,
            paths,
            single_label,
            field_vars,
        }
    }

    /// The relation schema this plan populates.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The number of variables, root included.
    pub fn var_count(&self) -> usize {
        self.parents.len()
    }

    /// The [`VarId`] populating a schema attribute, by attribute position.
    pub fn field_var(&self, field: usize) -> VarId {
        VarId(self.field_vars[field])
    }

    /// Parent variable ids, by [`VarId`] (the streaming shredder rebuilds
    /// the variable tree from these).
    pub(crate) fn parents(&self) -> &[u32] {
        &self.parents
    }

    /// Compiled edge paths, by [`VarId`].
    pub(crate) fn paths(&self) -> &[CompiledExpr] {
        &self.paths
    }

    /// For every schema attribute: the variable id whose `value()` fills it.
    pub(crate) fn field_var_ids(&self) -> &[u32] {
        &self.field_vars
    }

    /// Shreds a document into an instance of this plan's relation —
    /// bit-for-bit the relation [`TableRule::shred`] produces, computed
    /// over the prepared index.  Allocates fresh scratch; batch callers
    /// (many rules / many documents) should reuse a [`ShredScratch`]
    /// through [`ShredPlan::shred_with`].
    pub fn shred(&self, doc: &Document, index: &DocIndex) -> Relation {
        let mut scratch = ShredScratch::new();
        self.shred_with(doc, index, &mut scratch)
    }

    /// [`ShredPlan::shred`] with caller-provided scratch state.
    ///
    /// The scratch's `value()` memo is keyed by DFS position, so it is only
    /// valid for one `(doc, index)` pair at a time; [`ShredScratch::new`]
    /// or [`ShredScratch::reset`] it when switching documents (sharing it
    /// across *rules* over the same document is the point).
    pub fn shred_with(
        &self,
        doc: &Document,
        index: &DocIndex,
        scratch: &mut ShredScratch,
    ) -> Relation {
        index.debug_assert_current(doc);
        let stride = self.parents.len();
        // The binding table: `stride` u32 slots per row, NULL for unbound.
        let mut rows: Vec<u32> = vec![NULL; stride];
        rows[0] = index.position(doc.root());
        self.expand_rows(index, scratch, &mut rows, 1);
        scratch.ensure_values(doc.arena_len());
        let mut relation = Relation::new(self.schema.clone());
        for row in rows.chunks_exact(stride) {
            relation.insert(self.materialize_row(doc, index, scratch, row));
        }
        relation
    }

    /// Extends the binding table by the variables `from..`, replicating
    /// rows on multi-node bindings — the Cartesian-product engine behind
    /// [`ShredPlan::shred_with`] (`from = 1`) and the incremental
    /// [`ShredPlan::shred_block`] (`from = 2`, anchor pre-bound).
    fn expand_rows(
        &self,
        index: &DocIndex,
        scratch: &mut ShredScratch,
        rows: &mut Vec<u32>,
        from: usize,
    ) {
        let stride = self.parents.len();
        for v in from..stride {
            let parent = self.parents[v] as usize;
            let path = &self.paths[v];
            let nrows = rows.len() / stride;
            // In a Cartesian product the same parent node backs many rows;
            // memoize this variable's bindings per parent position (ranges
            // into one pooled vector) so each (variable, parent) pair is
            // evaluated once.
            scratch.binding_memo.clear();
            scratch.binding_pool.clear();
            let mut last_parent = NULL;
            let mut last_range = (0u32, 0u32);
            // `expanded` stays `None` while every row binds at most one
            // node — then the column is filled in place.  The first
            // multi-node binding switches to copy-and-replicate.
            let mut expanded: Option<Vec<u32>> = None;
            for r in 0..nrows {
                let base = r * stride;
                let parent_pos = rows[base + parent];
                let (lo, hi) = if parent_pos == NULL {
                    (0, 0)
                } else if last_parent == parent_pos {
                    // Rows sharing a parent cluster in runs; skip the map.
                    last_range
                } else {
                    match scratch.binding_memo.get(&parent_pos) {
                        Some(&range) => range,
                        None => {
                            let lo = scratch.binding_pool.len() as u32;
                            match self.single_label[v] {
                                // Single-label edge: direct child scan,
                                // already in document order.
                                Some(label) => {
                                    for c in index.children_at(parent_pos) {
                                        if index.label_at(c) == label {
                                            scratch.binding_pool.push(c);
                                        }
                                    }
                                }
                                None => {
                                    path.evaluate_positions(
                                        index,
                                        parent_pos,
                                        &mut scratch.eval,
                                        &mut scratch.out,
                                    );
                                    scratch.binding_pool.extend_from_slice(&scratch.out);
                                }
                            }
                            let range = (lo, scratch.binding_pool.len() as u32);
                            scratch.binding_memo.insert(parent_pos, range);
                            range
                        }
                    }
                };
                if parent_pos != NULL {
                    last_parent = parent_pos;
                    last_range = (lo, hi);
                }
                let bindings: &[u32] = &scratch.binding_pool[lo as usize..hi as usize];
                match expanded.as_mut() {
                    None => {
                        if bindings.len() <= 1 {
                            rows[base + v] = bindings.first().copied().unwrap_or(NULL);
                        } else {
                            let mut wide =
                                Vec::with_capacity(rows.len() + (bindings.len() - 1) * stride);
                            wide.extend_from_slice(&rows[..base]);
                            for &b in bindings {
                                let row_start = wide.len();
                                wide.extend_from_slice(&rows[base..base + stride]);
                                wide[row_start + v] = b;
                            }
                            expanded = Some(wide);
                        }
                    }
                    Some(wide) => {
                        if bindings.is_empty() {
                            let row_start = wide.len();
                            wide.extend_from_slice(&rows[base..base + stride]);
                            wide[row_start + v] = NULL;
                        } else {
                            for &b in bindings {
                                let row_start = wide.len();
                                wide.extend_from_slice(&rows[base..base + stride]);
                                wide[row_start + v] = b;
                            }
                        }
                    }
                }
            }
            if let Some(wide) = expanded {
                *rows = wide;
            }
        }
    }

    /// Materializes one binding row into a tuple through the node-keyed
    /// `value()` memo (caller must have sized it via
    /// [`ShredScratch::ensure_values`]).
    fn materialize_row(
        &self,
        doc: &Document,
        index: &DocIndex,
        scratch: &mut ShredScratch,
        row: &[u32],
    ) -> Tuple {
        let values: Vec<Value> = self
            .field_vars
            .iter()
            .map(|&v| match row[v as usize] {
                NULL => Value::Null,
                pos => {
                    let node = index.node_at(pos);
                    let slot = &mut scratch.values[node.index()];
                    slot.get_or_insert_with(|| Value::text(field_value(doc, node)))
                        .clone()
                }
            })
            .collect();
        Tuple::new(values)
    }

    /// The anchor variable of a block-decomposable plan, if any.
    ///
    /// A plan is block-decomposable when the root variable has exactly one
    /// child variable (necessarily `VarId(1)`: variables are ordered
    /// parent-before-child) and no schema field reads `value(xr)`.  Every
    /// other variable then descends from that **anchor**, so the shredded
    /// relation is the concatenation, in document order, of independent
    /// per-anchor-binding tuple blocks — the unit of reuse of the
    /// incremental shredder.
    pub(crate) fn anchor_var(&self) -> Option<VarId> {
        let stride = self.parents.len();
        if stride < 2 || self.field_vars.contains(&0) {
            return None;
        }
        if (2..stride).any(|v| self.parents[v] == 0) {
            return None;
        }
        Some(VarId(1))
    }

    /// Shreds the tuple block of one anchor binding (see
    /// [`ShredPlan::anchor_var`]): the rows [`ShredPlan::shred_with`] would
    /// emit for this anchor node, in the same order.
    pub(crate) fn shred_block(
        &self,
        doc: &Document,
        index: &DocIndex,
        scratch: &mut ShredScratch,
        anchor_pos: u32,
    ) -> Vec<Tuple> {
        let stride = self.parents.len();
        let mut rows: Vec<u32> = vec![NULL; stride];
        rows[0] = index.position(doc.root());
        rows[1] = anchor_pos;
        self.expand_rows(index, scratch, &mut rows, 2);
        scratch.ensure_values(doc.arena_len());
        rows.chunks_exact(stride)
            .map(|row| self.materialize_row(doc, index, scratch, row))
            .collect()
    }

    /// The all-null tuple a plan emits when its variables bind nothing —
    /// the relation content of a block-decomposable plan with zero anchor
    /// bindings.
    pub(crate) fn null_tuple(&self) -> Tuple {
        Tuple::new(vec![Value::Null; self.field_vars.len()])
    }
}

/// Reusable scratch for [`ShredPlan::shred_with`]: evaluation frontiers and
/// the per-node `value()` memo.
#[derive(Debug, Default)]
pub struct ShredScratch {
    eval: EvalScratch,
    out: Vec<u32>,
    /// Parent position → binding range of the variable being extended
    /// (cleared per variable).
    binding_memo: HashMap<u32, (u32, u32)>,
    /// Pool backing the memoized binding ranges.
    binding_pool: Vec<u32>,
    /// [`NodeId`] index → memoized field value of that node (dense, sized
    /// to the document arena on first use).  Node-keyed rather than
    /// position-keyed so the memo survives deltas: positions shift under
    /// edits, node ids do not.
    values: Vec<Option<Value>>,
}

impl ShredScratch {
    /// A fresh scratch.
    pub fn new() -> Self {
        ShredScratch::default()
    }

    /// Clears the `value()` memo (required when switching to a different
    /// document); evaluation buffers are kept.
    pub fn reset(&mut self) {
        self.values.clear();
    }

    /// Grows the `value()` memo to cover a document arena of `arena_len`
    /// nodes (existing entries are kept).
    fn ensure_values(&mut self, arena_len: usize) {
        if self.values.len() < arena_len {
            self.values.resize(arena_len, None);
        }
    }

    /// Drops the memoized `value()` of the given nodes — after a delta,
    /// exactly the dirty ancestor chain's serializations are stale (nodes
    /// off the chain kept their subtree content; fresh nodes have no
    /// entry; removed nodes are never queried again).
    pub fn invalidate_values(&mut self, nodes: &[NodeId]) {
        for &node in nodes {
            if let Some(slot) = self.values.get_mut(node.index()) {
                *slot = None;
            }
        }
    }
}

/// The compiled form of a whole [`Transformation`]: one [`ShredPlan`] per
/// rule, compiled against one shared universe.
#[derive(Debug, Clone)]
pub struct TransformationPlan {
    plans: Vec<ShredPlan>,
}

impl TransformationPlan {
    /// Compiles every rule of the transformation against `universe`.
    pub fn new(transformation: &Transformation, universe: &mut LabelUniverse) -> Self {
        TransformationPlan {
            plans: transformation
                .rules()
                .iter()
                .map(|rule| ShredPlan::new(rule, universe))
                .collect(),
        }
    }

    /// The per-rule plans, in transformation order.
    pub fn plans(&self) -> &[ShredPlan] {
        &self.plans
    }

    /// The plan for one relation, by name.
    pub fn plan(&self, relation: &str) -> Option<&ShredPlan> {
        self.plans.iter().find(|p| p.schema().name() == relation)
    }

    /// Shreds a document into a database with one instance per rule —
    /// bit-for-bit what [`Transformation::shred`] produces — sharing one
    /// scratch (and thus one `value()` memo) across all rules.
    pub fn shred_all(&self, doc: &Document, index: &DocIndex) -> Database {
        index.debug_assert_current(doc);
        let mut scratch = ShredScratch::new();
        let mut db = Database::new();
        for plan in &self.plans {
            db.insert(plan.shred_with(doc, index, &mut scratch));
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample;
    use xmlprop_xmltree::sample::fig1;
    use xmlprop_xmltree::ElementBuilder;

    /// Prepares (universe, index, plan set) for a transformation over a doc.
    fn prepared(
        t: &Transformation,
        doc: &Document,
    ) -> (LabelUniverse, DocIndex, TransformationPlan) {
        let mut universe = LabelUniverse::new();
        let plan = TransformationPlan::new(t, &mut universe);
        let index = DocIndex::build(doc, &mut universe);
        (universe, index, plan)
    }

    #[test]
    fn prepared_shredding_matches_the_string_baseline_on_the_samples() {
        let doc = fig1();
        for t in [
            sample::example_2_4_transformation(),
            xmlprop_bookstore_universal(),
        ] {
            let (_u, index, plan) = prepared(&t, &doc);
            for (rule, rule_plan) in t.rules().iter().zip(plan.plans()) {
                assert_eq!(
                    rule_plan.shred(&doc, &index),
                    rule.shred(&doc),
                    "rule {}",
                    rule.schema().name()
                );
            }
            assert_eq!(plan.shred_all(&doc, &index), t.shred(&doc));
        }
    }

    fn xmlprop_bookstore_universal() -> Transformation {
        let mut t = Transformation::new(Vec::new());
        t.add_rule(sample::example_3_1_universal());
        t
    }

    #[test]
    fn plan_shape_accessors() {
        let t = sample::example_2_4_transformation();
        let mut universe = LabelUniverse::new();
        let rule = t.rule("section").unwrap();
        let plan = rule.prepare(&mut universe);
        assert_eq!(plan.schema().name(), "section");
        assert_eq!(plan.var_count(), rule.mappings().len() + 1);
        let field0 = plan.field_var(0);
        assert!(field0.index() > 0);
        let whole = t.prepare(&mut universe);
        assert_eq!(whole.plans().len(), t.len());
        assert!(whole.plan("section").is_some());
        assert!(whole.plan("nope").is_none());
    }

    #[test]
    fn cartesian_expansion_matches_baseline() {
        // 2 authors × 3 chapters forces row replication mid-table.
        let doc = ElementBuilder::new("r")
            .child(
                ElementBuilder::new("book")
                    .attr("isbn", "1")
                    .child(ElementBuilder::new("author").text_child("name", "A"))
                    .child(ElementBuilder::new("author").text_child("name", "B"))
                    .children(
                        (1..=3)
                            .map(|i| ElementBuilder::new("chapter").attr("number", i.to_string())),
                    ),
            )
            .build();
        let t = Transformation::parse(
            "rule pairs(isbn, author, chapter) {
                xb := xr//book;
                xi := xb/@isbn;
                xa := xb/author;
                xn := xa/name;
                xc := xb/chapter;
                xm := xc/@number;
                isbn := value(xi);
                author := value(xn);
                chapter := value(xm);
            }",
        )
        .unwrap();
        let rule = t.rule("pairs").unwrap();
        let (_u, index, plan) = prepared(&t, &doc);
        let prepared_rel = plan.plan("pairs").unwrap().shred(&doc, &index);
        assert_eq!(prepared_rel.len(), 6);
        assert_eq!(prepared_rel, rule.shred(&doc));
    }

    #[test]
    fn nulls_and_empty_documents_match_baseline() {
        let t = sample::example_2_4_transformation();
        let empty = Document::new("r");
        let (_u, index, plan) = prepared(&t, &empty);
        for (rule, rule_plan) in t.rules().iter().zip(plan.plans()) {
            assert_eq!(rule_plan.shred(&empty, &index), rule.shred(&empty));
        }
    }

    #[test]
    fn scratch_reuse_across_rules_is_safe() {
        let t = sample::example_2_4_transformation();
        let doc = fig1();
        let (_u, index, plan) = prepared(&t, &doc);
        let mut scratch = ShredScratch::new();
        for (rule, rule_plan) in t.rules().iter().zip(plan.plans()) {
            assert_eq!(
                rule_plan.shred_with(&doc, &index, &mut scratch),
                rule.shred(&doc)
            );
        }
        // Switching documents requires a memo reset.
        let other = ElementBuilder::new("r")
            .child(ElementBuilder::new("book").attr("isbn", "9"))
            .build();
        scratch.reset();
        let mut universe2 = LabelUniverse::new();
        let plan2 = TransformationPlan::new(&t, &mut universe2);
        let index2 = DocIndex::build(&other, &mut universe2);
        for (rule, rule_plan) in t.rules().iter().zip(plan2.plans()) {
            assert_eq!(
                rule_plan.shred_with(&other, &index2, &mut scratch),
                rule.shred(&other)
            );
        }
    }
}
