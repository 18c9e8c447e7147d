//! `DocIndex` — the prepared form of a document.
//!
//! Every string-walking algorithm over a [`Document`] (path evaluation
//! `n[[P]]`, table-rule shredding, key satisfaction) repeats the same three
//! pieces of work on every call: comparing labels as strings, re-discovering
//! subtree extents by stack traversal, and comparing text values as strings.
//! A `DocIndex` does that work once, in a single DFS pass:
//!
//! * every node's label is interned into a shared [`LabelUniverse`] (the
//!   same universe the compiled path/key layers use, so a compiled
//!   expression's `LabelId`s compare directly against document nodes);
//! * nodes are numbered in **document order** (DFS pre-order).  The subtree
//!   of a node is the contiguous position range `pos..subtree_end(pos)`, so
//!   *descendants-or-self* is a range scan and any position-sorted result is
//!   duplicate-free and in document order by construction;
//! * a label → positions **posting index** lists, in document order, every
//!   node carrying a given label — the fast path for `//label` steps;
//! * the text of attribute and text nodes is interned into dense value ids,
//!   so key-tuple comparisons are integer comparisons instead of
//!   `Vec<String>` orderings.
//!
//! The index borrows nothing: after construction it answers all structural
//! questions on its own (children, subtrees, labels, value equality).  Only
//! operations that need actual *strings* — serializing a field value,
//! reporting a violation — go back to the `Document`, which must be the one
//! the index was built from (node counts are asserted where cheap; handing
//! an index a different document is a logic error).

use crate::delta::AppliedDelta;
use crate::labels::{LabelId, LabelUniverse};
use crate::node::NodeKind;
use crate::{Document, NodeId};
use std::collections::HashMap;

/// Sentinel for "node carries no text value" (elements).
const NO_VALUE: u32 = u32::MAX;

/// The prepared form of a [`Document`]; see the module docs.
#[derive(Debug, Clone)]
pub struct DocIndex {
    /// Node arena index → DFS position.
    dfs_of: Vec<u32>,
    /// DFS position → node arena index.
    node_of: Vec<u32>,
    /// DFS position → exclusive end of the node's subtree range.
    end_at: Vec<u32>,
    /// DFS position → interned label.
    label_at: Vec<LabelId>,
    /// DFS position → node kind.
    kind_at: Vec<NodeKind>,
    /// DFS position → interned text value ([`NO_VALUE`] for elements).
    value_at: Vec<u32>,
    /// Label id → DFS positions of nodes carrying it, ascending.
    postings: Vec<Vec<u32>>,
    /// Text value → id.  Owned (not borrow-only) so that
    /// [`DocIndex::apply_delta`] can intern values of edited/inserted
    /// nodes consistently; ids are append-only and never recycled, so a
    /// value that disappears from the document keeps its id.
    values: HashMap<String, u32>,
    /// [`Document::epoch`] the index is current for.
    epoch: u64,
}

impl DocIndex {
    /// Builds the index in one DFS pass, interning every label of the
    /// document into `universe`.
    ///
    /// Labels already interned (e.g. by compiling a key set or a shred plan
    /// against the same universe first) keep their ids; ids are append-only,
    /// so the relative order of preparation does not matter.
    pub fn build(doc: &Document, universe: &mut LabelUniverse) -> Self {
        let n = doc.len();
        let mut dfs_of = vec![0u32; doc.arena_len()];
        let mut node_of = Vec::with_capacity(n);
        let mut end_at = vec![0u32; n];
        let mut label_at = Vec::with_capacity(n);
        let mut kind_at = Vec::with_capacity(n);
        let mut value_at = Vec::with_capacity(n);
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); universe.len()];
        let mut values: HashMap<String, u32> = HashMap::new();

        enum Frame {
            Enter(NodeId),
            Exit(u32),
        }
        let mut stack = vec![Frame::Enter(doc.root())];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(node) => {
                    let pos = node_of.len() as u32;
                    node_of.push(node.index() as u32);
                    dfs_of[node.index()] = pos;
                    let label = universe.intern(doc.label(node));
                    if postings.len() <= label.index() {
                        postings.resize(label.index() + 1, Vec::new());
                    }
                    postings[label.index()].push(pos);
                    label_at.push(label);
                    kind_at.push(doc.kind(node));
                    value_at.push(match doc.text_value(node) {
                        Some(text) => match values.get(text) {
                            Some(&id) => id,
                            None => {
                                let id = values.len() as u32;
                                values.insert(text.to_string(), id);
                                id
                            }
                        },
                        None => NO_VALUE,
                    });
                    stack.push(Frame::Exit(pos));
                    for &c in doc.child_slice(node).iter().rev() {
                        stack.push(Frame::Enter(c));
                    }
                }
                Frame::Exit(pos) => end_at[pos as usize] = node_of.len() as u32,
            }
        }
        // Labels interned after the document's (by later probe compilation)
        // have empty postings; size the table for everything known now so the
        // common case is a direct index.
        postings.resize(universe.len(), Vec::new());

        DocIndex {
            dfs_of,
            node_of,
            end_at,
            label_at,
            kind_at,
            value_at,
            postings,
            values,
            epoch: doc.epoch(),
        }
    }

    /// The number of nodes (equals [`Document::len`] of the indexed
    /// document).
    #[inline]
    pub fn len(&self) -> usize {
        self.node_of.len()
    }

    /// True if the indexed document contains only its root element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_of.len() <= 1
    }

    /// The DFS position (document-order rank) of a node.  The root is
    /// position 0.
    #[inline]
    pub fn position(&self, node: NodeId) -> u32 {
        self.dfs_of[node.index()]
    }

    /// The node at a DFS position.
    #[inline]
    pub fn node_at(&self, pos: u32) -> NodeId {
        NodeId::from_index(self.node_of[pos as usize] as usize)
    }

    /// The exclusive end of the subtree range of the node at `pos`: the
    /// descendants-or-self of that node are exactly the positions
    /// `pos..subtree_end(pos)`.
    #[inline]
    pub fn subtree_end(&self, pos: u32) -> u32 {
        self.end_at[pos as usize]
    }

    /// The label of the node at `pos`.
    #[inline]
    pub fn label_at(&self, pos: u32) -> LabelId {
        self.label_at[pos as usize]
    }

    /// The kind of the node at `pos`.
    #[inline]
    pub fn kind_at(&self, pos: u32) -> NodeKind {
        self.kind_at[pos as usize]
    }

    /// The interned text-value id of the node at `pos` (attribute and text
    /// nodes), or `None` for elements.  Two nodes have equal ids iff their
    /// text values are equal strings.
    #[inline]
    pub fn value_id_at(&self, pos: u32) -> Option<u32> {
        let v = self.value_at[pos as usize];
        (v != NO_VALUE).then_some(v)
    }

    /// The [`Document::epoch`] this index is current for: the epoch at
    /// [`DocIndex::build`] time, advanced by every
    /// [`DocIndex::apply_delta`].
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True if the index is current for `doc` — built from it (or patched
    /// up to date with [`DocIndex::apply_delta`]) and `doc` has not been
    /// mutated since.
    #[inline]
    pub fn is_current_for(&self, doc: &Document) -> bool {
        self.epoch == doc.epoch()
    }

    /// Debug-asserts [`DocIndex::is_current_for`]: evaluation entry points
    /// call this so that using a stale index (document mutated after
    /// indexing) fails fast in debug builds instead of silently answering
    /// from outdated structure.
    #[inline]
    pub fn debug_assert_current(&self, doc: &Document) {
        debug_assert!(
            self.is_current_for(doc),
            "stale DocIndex: built at document epoch {} but the document is at epoch {} — \
             rebuild the index or patch it with apply_delta",
            self.epoch,
            doc.epoch(),
        );
    }

    /// The children of the node at `pos`, as DFS positions in document
    /// order.  Derived from the subtree ranges alone: the first child sits
    /// at `pos + 1`, each next child at the previous child's subtree end.
    #[inline]
    pub fn children_at(&self, pos: u32) -> ChildPositions<'_> {
        ChildPositions {
            index: self,
            next: pos + 1,
            end: self.subtree_end(pos),
        }
    }

    /// The document-order positions of every node labelled `label`
    /// (ascending; empty for labels the document does not use).
    #[inline]
    pub fn postings(&self, label: LabelId) -> &[u32] {
        self.postings
            .get(label.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All nodes in document order (the DFS pre-order that
    /// [`Document::descendants_or_self`] of the root yields).
    pub fn nodes_in_document_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_of.iter().map(|&n| NodeId::from_index(n as usize))
    }

    // ------------------------------------------------------------------
    // Incremental maintenance
    // ------------------------------------------------------------------

    /// Patches the index in place for one applied delta instead of
    /// rebuilding it: only the affected subtree range is renumbered, and
    /// subtree ranges, label postings and text-value ids are shifted by
    /// offset arithmetic.
    ///
    /// `doc` must be the document the delta was applied to, `applied` the
    /// receipt [`Document::apply`] returned, and `universe` the label
    /// universe the index was built against (inserted subtrees may intern
    /// new labels into it).  The index must be current up to *exactly*
    /// this delta — current for the document as it was just before the
    /// edit (debug-asserted through the epoch counter).
    ///
    /// Cost: `O(1)` for a text edit; for structural edits
    /// `O(subtree + suffix + depth)` where *suffix* is the number of index
    /// positions after the edit point — pure integer shifting, no label or
    /// value re-interning outside the touched subtree.
    pub fn apply_delta(
        &mut self,
        doc: &Document,
        applied: &AppliedDelta,
        universe: &mut LabelUniverse,
    ) {
        debug_assert_eq!(
            self.epoch + 1,
            doc.epoch(),
            "apply_delta needs an index current up to exactly the applied delta",
        );
        match *applied {
            AppliedDelta::SetText { node } => {
                let pos = self.dfs_of[node.index()] as usize;
                let text = doc
                    .text_value(node)
                    .expect("SetText targets carry a text value");
                self.value_at[pos] = self.intern_value(text);
            }
            AppliedDelta::Remove { parent, root, .. } => self.remove_range(doc, parent, root),
            AppliedDelta::Insert {
                parent,
                position,
                root,
                ..
            } => self.insert_range(doc, parent, position, root, universe),
        }
        self.epoch = doc.epoch();
    }

    /// Looks up or appends the id of a text value (the incremental
    /// counterpart of the build-time interner).
    fn intern_value(&mut self, text: &str) -> u32 {
        match self.values.get(text) {
            Some(&id) => id,
            None => {
                let id = self.values.len() as u32;
                self.values.insert(text.to_string(), id);
                id
            }
        }
    }

    /// Excises the (detached) subtree rooted at `root` from the numbering:
    /// positions after it shift down, ancestor subtree ranges shrink.
    fn remove_range(&mut self, doc: &Document, parent: NodeId, root: NodeId) {
        let p = self.dfs_of[root.index()] as usize;
        let e = self.end_at[p] as usize;
        let k = (e - p) as u32;
        // Ancestor ranges shrink; their positions (< p) don't move.
        let mut anc = Some(parent);
        while let Some(a) = anc {
            self.end_at[self.dfs_of[a.index()] as usize] -= k;
            anc = doc.parent(a);
        }
        // Postings: drop positions inside [p, e), shift the rest down.
        // Lists entirely before the edit are skipped by the binary search.
        let (pu, eu) = (p as u32, e as u32);
        for list in &mut self.postings {
            let lo = list.partition_point(|&x| x < pu);
            if lo == list.len() {
                continue;
            }
            let mut w = lo;
            for r in lo..list.len() {
                let x = list[r];
                if x < eu {
                    continue;
                }
                list[w] = x - k;
                w += 1;
            }
            list.truncate(w);
        }
        // Excise the columnar range and renumber the suffix.
        self.node_of.drain(p..e);
        self.label_at.drain(p..e);
        self.kind_at.drain(p..e);
        self.value_at.drain(p..e);
        self.end_at.drain(p..e);
        for end in &mut self.end_at[p..] {
            *end -= k;
        }
        for i in p..self.node_of.len() {
            self.dfs_of[self.node_of[i] as usize] = i as u32;
        }
    }

    /// Splices the freshly grafted subtree rooted at `root` (the
    /// `position`-th child of `parent`) into the numbering: positions
    /// after it shift up, ancestor subtree ranges grow, and the new
    /// nodes' labels/values are interned.
    fn insert_range(
        &mut self,
        doc: &Document,
        parent: NodeId,
        position: usize,
        root: NodeId,
        universe: &mut LabelUniverse,
    ) {
        // Where the subtree starts: right after the parent when it is the
        // first child, otherwise after the preceding sibling's subtree.
        let at = if position == 0 {
            self.dfs_of[parent.index()] + 1
        } else {
            let prev = doc
                .children(parent)
                .nth(position - 1)
                .expect("insert position was validated");
            self.end_at[self.dfs_of[prev.index()] as usize]
        } as usize;

        // Index the new subtree in one DFS pass, with positions relative
        // to `at`.
        let mut new_node_of = Vec::new();
        let mut new_label_at = Vec::new();
        let mut new_kind_at = Vec::new();
        let mut new_value_at = Vec::new();
        let mut new_end_at = Vec::new();
        let mut by_label: HashMap<LabelId, Vec<u32>> = HashMap::new();
        enum Frame {
            Enter(NodeId),
            Exit(usize),
        }
        let mut stack = vec![Frame::Enter(root)];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(node) => {
                    let rel = new_node_of.len();
                    new_node_of.push(node.index() as u32);
                    let label = universe.intern(doc.label(node));
                    by_label.entry(label).or_default().push((at + rel) as u32);
                    new_label_at.push(label);
                    new_kind_at.push(doc.kind(node));
                    new_value_at.push(match doc.text_value(node) {
                        Some(text) => self.intern_value(text),
                        None => NO_VALUE,
                    });
                    new_end_at.push(0u32);
                    stack.push(Frame::Exit(rel));
                    for &c in doc.child_slice(node).iter().rev() {
                        stack.push(Frame::Enter(c));
                    }
                }
                Frame::Exit(rel) => new_end_at[rel] = (at + new_node_of.len()) as u32,
            }
        }
        let k = new_node_of.len() as u32;

        // Ancestor ranges grow; their positions (< at) don't move.
        let mut anc = Some(parent);
        while let Some(a) = anc {
            self.end_at[self.dfs_of[a.index()] as usize] += k;
            anc = doc.parent(a);
        }
        // Postings: shift positions at or after the splice point up, then
        // merge in the new subtree's positions (contiguous in [at, at+k)).
        let atu = at as u32;
        for list in &mut self.postings {
            let lo = list.partition_point(|&x| x < atu);
            for x in &mut list[lo..] {
                *x += k;
            }
        }
        self.postings.resize(universe.len(), Vec::new());
        for (label, positions) in by_label {
            let list = &mut self.postings[label.index()];
            let lo = list.partition_point(|&x| x < atu);
            list.splice(lo..lo, positions);
        }
        // Splice the columnar range and renumber from the splice point on.
        self.node_of.splice(at..at, new_node_of);
        self.label_at.splice(at..at, new_label_at);
        self.kind_at.splice(at..at, new_kind_at);
        self.value_at.splice(at..at, new_value_at);
        self.end_at.splice(at..at, new_end_at);
        for end in &mut self.end_at[at + k as usize..] {
            *end += k;
        }
        if self.dfs_of.len() < doc.arena_len() {
            self.dfs_of.resize(doc.arena_len(), 0);
        }
        for i in at..self.node_of.len() {
            self.dfs_of[self.node_of[i] as usize] = i as u32;
        }
    }
}

/// Iterator over the child positions of a node; see
/// [`DocIndex::children_at`].
#[derive(Debug, Clone)]
pub struct ChildPositions<'a> {
    index: &'a DocIndex,
    next: u32,
    end: u32,
}

impl Iterator for ChildPositions<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.next < self.end {
            let child = self.next;
            self.next = self.index.subtree_end(child);
            Some(child)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ElementBuilder;

    fn tiny() -> Document {
        ElementBuilder::new("db")
            .child(
                ElementBuilder::new("book")
                    .attr("isbn", "123")
                    .text_child("title", "XML"),
            )
            .child(ElementBuilder::new("book").attr("isbn", "234"))
            .build()
    }

    #[test]
    fn numbering_matches_document_order() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        assert_eq!(index.len(), doc.len());
        assert!(!index.is_empty());
        let in_order: Vec<NodeId> = index.nodes_in_document_order().collect();
        assert_eq!(in_order, doc.all_nodes());
        for (rank, &node) in in_order.iter().enumerate() {
            assert_eq!(index.position(node), rank as u32);
            assert_eq!(index.node_at(rank as u32), node);
        }
    }

    #[test]
    fn numbering_follows_document_order_not_node_ids() {
        // Mutation can append to an *earlier* parent, splitting NodeId order
        // from document order; the index must follow document order.
        let mut doc = Document::new("r");
        let a = doc.add_element(doc.root(), "a");
        let b = doc.add_element(doc.root(), "b");
        let c = doc.add_element(a, "c"); // id 3, but precedes b in doc order
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        assert!(index.position(c) < index.position(b));
        let in_order: Vec<NodeId> = index.nodes_in_document_order().collect();
        assert_eq!(in_order, vec![doc.root(), a, c, b]);
        assert_eq!(in_order, doc.all_nodes());
    }

    #[test]
    fn subtree_ranges_cover_descendants_or_self() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        for node in doc.all_nodes() {
            let pos = index.position(node);
            let range: Vec<NodeId> = (pos..index.subtree_end(pos))
                .map(|p| index.node_at(p))
                .collect();
            assert_eq!(range, doc.descendants_or_self(node), "subtree of {node}");
        }
    }

    #[test]
    fn children_iterate_in_document_order() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        for node in doc.all_nodes() {
            let pos = index.position(node);
            let children: Vec<NodeId> = index.children_at(pos).map(|p| index.node_at(p)).collect();
            let expected: Vec<NodeId> = doc.children(node).collect();
            assert_eq!(children, expected, "children of {node}");
        }
    }

    #[test]
    fn postings_list_label_occurrences_in_order() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        let book = u.lookup("book").unwrap();
        let posts = index.postings(book);
        assert_eq!(posts.len(), 2);
        assert!(posts.windows(2).all(|w| w[0] < w[1]));
        for &p in posts {
            assert_eq!(index.label_at(p), book);
            assert_eq!(doc.label(index.node_at(p)), "book");
        }
        assert!(index.postings(LabelId(9999)).is_empty());
    }

    #[test]
    fn value_ids_agree_with_string_equality() {
        let mut doc = Document::new("r");
        let a = doc.add_element(doc.root(), "a");
        doc.add_attribute(a, "x", "same");
        doc.add_attribute(a, "y", "same");
        doc.add_attribute(a, "z", "other");
        doc.add_text(a, "same");
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        let ids: Vec<Option<u32>> = doc
            .all_nodes()
            .into_iter()
            .map(|n| index.value_id_at(index.position(n)))
            .collect();
        // r, a are elements; @x, @y, @z, text follow in document order.
        assert_eq!(ids[0], None);
        assert_eq!(ids[1], None);
        assert_eq!(ids[2], ids[3], "equal values share an id");
        assert_ne!(ids[2], ids[4], "distinct values get distinct ids");
        assert_eq!(ids[2], ids[5], "text and attribute values share the pool");
    }

    #[test]
    fn kinds_are_recorded() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        for node in doc.all_nodes() {
            assert_eq!(index.kind_at(index.position(node)), doc.kind(node));
        }
    }

    /// Asserts that a patched index answers every observable question the
    /// way a fresh build over the same (already extended) universe does.
    /// Text-value ids are compared as equivalence classes: the patched
    /// index may retain ids for values no longer present, but two live
    /// nodes must share an id iff a fresh build gives them a shared id.
    fn assert_matches_fresh(doc: &Document, index: &DocIndex, universe: &LabelUniverse) {
        index.debug_assert_current(doc);
        let mut u = universe.clone();
        let fresh = DocIndex::build(doc, &mut u);
        assert_eq!(index.len(), fresh.len());
        assert_eq!(index.len(), doc.len());
        let order: Vec<NodeId> = index.nodes_in_document_order().collect();
        let fresh_order: Vec<NodeId> = fresh.nodes_in_document_order().collect();
        assert_eq!(order, fresh_order, "document-order numbering");
        let mut incr_to_fresh: std::collections::HashMap<u32, u32> = Default::default();
        let mut fresh_to_incr: std::collections::HashMap<u32, u32> = Default::default();
        for (pos, &node) in order.iter().enumerate() {
            let pos = pos as u32;
            assert_eq!(index.position(node), pos);
            assert_eq!(index.node_at(pos), node);
            assert_eq!(
                index.subtree_end(pos),
                fresh.subtree_end(pos),
                "end at {pos}"
            );
            assert_eq!(index.label_at(pos), fresh.label_at(pos), "label at {pos}");
            assert_eq!(index.kind_at(pos), fresh.kind_at(pos), "kind at {pos}");
            let children: Vec<u32> = index.children_at(pos).collect();
            let fresh_children: Vec<u32> = fresh.children_at(pos).collect();
            assert_eq!(children, fresh_children, "children at {pos}");
            match (index.value_id_at(pos), fresh.value_id_at(pos)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(
                        *incr_to_fresh.entry(a).or_insert(b),
                        b,
                        "value-id classes diverge at {pos}"
                    );
                    assert_eq!(
                        *fresh_to_incr.entry(b).or_insert(a),
                        a,
                        "value-id classes diverge at {pos}"
                    );
                }
                (a, b) => panic!("value presence diverges at {pos}: {a:?} vs {b:?}"),
            }
        }
        for id in 0..u.len() {
            let label = LabelId(id as u32);
            assert_eq!(
                index.postings(label),
                fresh.postings(label),
                "postings for {}",
                u.name(label)
            );
        }
    }

    #[test]
    fn apply_delta_matches_fresh_build_over_a_script() {
        use crate::{Delta, Fragment};
        let mut doc = crate::sample::fig1();
        let mut u = LabelUniverse::new();
        let mut index = DocIndex::build(&doc, &mut u);
        let books: Vec<NodeId> = doc
            .all_nodes()
            .into_iter()
            .filter(|&n| doc.label(n) == "book")
            .collect();
        let isbn = doc.attribute_node(books[0], "isbn").unwrap();
        let chapter = doc.children_labelled(books[1], "chapter").next().unwrap();
        let script: Vec<Delta> = vec![
            Delta::SetText {
                node: isbn,
                text: "777".into(),
            },
            // New label + new value, positional insert in the middle.
            Delta::InsertSubtree {
                parent: books[0],
                position: 1,
                fragment: Fragment::Element(
                    Document::parse_str("<appendix number=\"A\"><name>Maps</name></appendix>")
                        .unwrap(),
                ),
            },
            Delta::RemoveSubtree { node: chapter },
            Delta::InsertSubtree {
                parent: books[1],
                position: 0,
                fragment: Fragment::Attribute {
                    name: "lang".into(),
                    value: "en".into(),
                },
            },
            Delta::SetText {
                node: isbn,
                text: "123".into(), // back to a previously interned value
            },
            Delta::InsertSubtree {
                parent: books[1],
                position: 2,
                fragment: Fragment::Text("trailing".into()),
            },
        ];
        for delta in &script {
            let applied = doc.apply(delta).unwrap();
            index.apply_delta(&doc, &applied, &mut u);
            assert_matches_fresh(&doc, &index, &u);
        }
    }

    #[test]
    fn apply_delta_removal_at_document_tail() {
        use crate::Delta;
        // Removing the last subtree exercises the empty-suffix path.
        let mut doc = tiny();
        let mut u = LabelUniverse::new();
        let mut index = DocIndex::build(&doc, &mut u);
        let last_book = doc.element_children(doc.root()).nth(1).unwrap();
        let applied = doc
            .apply(&Delta::RemoveSubtree { node: last_book })
            .unwrap();
        index.apply_delta(&doc, &applied, &mut u);
        assert_matches_fresh(&doc, &index, &u);
    }

    #[test]
    #[should_panic(expected = "stale DocIndex")]
    #[cfg(debug_assertions)]
    fn stale_index_is_debug_asserted() {
        let mut doc = tiny();
        let mut u = LabelUniverse::new();
        let index = DocIndex::build(&doc, &mut u);
        doc.add_element(doc.root(), "late");
        index.debug_assert_current(&doc);
    }

    #[test]
    fn prior_interning_is_respected_and_extended() {
        let doc = tiny();
        let mut u = LabelUniverse::new();
        let early = u.intern("book");
        let probe_only = u.intern("magazine");
        let index = DocIndex::build(&doc, &mut u);
        assert_eq!(u.lookup("book"), Some(early));
        assert_eq!(index.postings(early).len(), 2);
        assert!(index.postings(probe_only).is_empty());
    }
}
