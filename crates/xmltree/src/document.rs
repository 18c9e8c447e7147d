//! The arena-backed XML document.

use crate::delta::{AppliedDelta, Delta, DeltaError, Fragment};
use crate::node::{NodeData, NodeId, NodeKind};
use crate::ParseError;
use std::fmt;

/// An XML document stored as an arena of nodes.
///
/// The document always has a single root element.  Nodes are addressed by
/// [`NodeId`]; the arena never reuses slots, so an identifier handed out
/// once always refers to the same node data.  [`Document::remove_subtree`]
/// *detaches* a subtree rather than freeing it: the detached nodes stay in
/// the arena as tombstones (their ids become invalid for navigation — a
/// logic error to keep using, never UB), [`Document::len`] counts only
/// attached nodes, and [`Document::arena_len`] bounds raw indices for
/// side tables.
///
/// Construction paths:
///
/// * [`Document::new`] + mutation methods ([`Document::add_element`],
///   [`Document::add_attribute`], [`Document::add_text`]);
/// * the fluent [`crate::ElementBuilder`];
/// * [`Document::parse_str`] for textual XML.
///
/// Post-construction edits go through [`Document::apply`] (insert/remove
/// subtree, set text — see [`Delta`]) or the underlying primitives
/// [`Document::remove_subtree`] / [`Document::set_text`].  Every mutation
/// bumps a monotonically increasing [`Document::epoch`] counter, which
/// prepared structures ([`crate::DocIndex`]) record and debug-assert
/// against: using an index built before the latest mutation is a logic
/// error unless the index was patched with
/// [`crate::DocIndex::apply_delta`].
///
/// # Document order
///
/// *Document order* is the DFS pre-order of the tree: a node precedes its
/// subtree, siblings follow each other in insertion order.  This is the
/// order [`Document::descendants_or_self`], [`Document::all_nodes`] and
/// every path-evaluation result use.  **`NodeId` order is not document
/// order in general**: ids are handed out in creation order, and mutation
/// may append a child to an *earlier* parent after later siblings exist
/// (the parser and [`crate::ElementBuilder`] never do, so for documents
/// built by them the two orders coincide —
/// [`Document::ids_in_document_order`] reports whether that still holds).
/// Code that needs document order must rank nodes by DFS position, e.g.
/// through a [`crate::DocIndex`], not by `NodeId`.
/// Equality is *structural identity* of the arenas (same nodes, same ids,
/// same child order) — what the corpus-generation reproducibility tests
/// compare; two structurally equal trees built in different insertion
/// orders may compare unequal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    nodes: Vec<NodeData>,
    root: NodeId,
    /// The most recently created node.
    last: NodeId,
    /// True while `NodeId` order coincides with document order; see the
    /// struct docs.
    id_order: bool,
    /// Number of attached (non-tombstone) nodes.
    live: usize,
    /// Mutation counter; see [`Document::epoch`].
    epoch: u64,
}

impl Document {
    /// Creates a document with a single root element labelled `root_label`.
    pub fn new(root_label: impl Into<String>) -> Self {
        let root_data = NodeData::element(root_label, None);
        Document {
            nodes: vec![root_data],
            root: NodeId(0),
            last: NodeId(0),
            id_order: true,
            live: 1,
            epoch: 0,
        }
    }

    /// Parses a document from XML text.  See [`crate::parse`].
    pub fn parse_str(input: &str) -> Result<Self, ParseError> {
        crate::parse(input)
    }

    /// The root element of the document.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The number of attached nodes in the document (elements, attributes
    /// and text).  Nodes detached by [`Document::remove_subtree`] are not
    /// counted.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the document contains only the root element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live <= 1
    }

    /// The arena size: one more than the largest raw [`NodeId::index`]
    /// ever handed out, *including* detached nodes.  Side tables indexed by
    /// raw node index must be sized by this, not [`Document::len`].
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// The mutation counter: starts at 0 and increases by one for every
    /// mutation ([`Document::add_element`] and friends,
    /// [`Document::remove_subtree`], [`Document::set_text`], one per
    /// [`Document::apply`]).  Prepared structures record the epoch they
    /// were built at and refuse (in debug builds) to serve a document that
    /// has moved on.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True if `id` addresses an attached node of this document: in range
    /// and reachable from the root (not detached by an earlier
    /// [`Document::remove_subtree`]).
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len() && self.is_attached(id)
    }

    /// Walks the parent chain to decide whether `id` is still reachable
    /// from the root.  O(depth).
    fn is_attached(&self, id: NodeId) -> bool {
        let mut cur = id;
        loop {
            if cur == self.root {
                return true;
            }
            match self.data(cur).parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }

    fn data_mut(&mut self, id: NodeId) -> &mut NodeData {
        &mut self.nodes[id.index()]
    }

    /// The kind of node `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.data(id).kind
    }

    /// The label of node `id`: tag name for elements, `@name` for attributes,
    /// `S` for text nodes (following Fig. 1 of the paper).
    #[inline]
    pub fn label(&self, id: NodeId) -> &str {
        &self.data(id).label
    }

    /// The text carried by an attribute or text node, `None` for elements.
    pub fn text_value(&self, id: NodeId) -> Option<&str> {
        match self.data(id).kind {
            NodeKind::Element => None,
            NodeKind::Attribute | NodeKind::Text => Some(self.data(id).text.as_str()),
        }
    }

    /// The parent of `id`, or `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.data(id).parent
    }

    /// Iterator over the children of `id` in document order (attributes first,
    /// in insertion order, then elements/text in insertion order — matching
    /// the order in which they were added or parsed).
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.data(id).children.iter().copied()
    }

    /// The children of `id` as a slice (crate-internal: lets the one-pass
    /// [`crate::DocIndex`] traversal push child frames without an iterator
    /// per node).
    pub(crate) fn child_slice(&self, id: NodeId) -> &[NodeId] {
        &self.data(id).children
    }

    /// True while `NodeId` order coincides with document order — i.e. every
    /// node so far was appended under the previously created node or one of
    /// its ancestors, which is how the parser and [`crate::ElementBuilder`]
    /// construct documents.  Once mutation appends a child to an earlier
    /// parent (creating a node whose id is larger than that of a node
    /// following it in document order) this permanently becomes `false`, and
    /// document-order consumers must rank nodes by DFS position instead.
    #[inline]
    pub fn ids_in_document_order(&self) -> bool {
        self.id_order
    }

    /// Children of `id` carrying a particular label (e.g. `"chapter"` or
    /// `"@isbn"`).
    pub fn children_labelled<'a>(
        &'a self,
        id: NodeId,
        label: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.children(id).filter(move |&c| self.label(c) == label)
    }

    /// All element children of `id`.
    pub fn element_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(|&c| self.kind(c).is_element())
    }

    /// The attribute node named `name` (with or without the leading `@`)
    /// attached to element `id`, if any.  When the element carries several
    /// attribute nodes with the same name (which the paper's model permits,
    /// even though well-formed XML does not) the first one is returned.
    pub fn attribute_node(&self, id: NodeId, name: &str) -> Option<NodeId> {
        let want = if name.starts_with('@') {
            name.to_string()
        } else {
            format!("@{name}")
        };
        self.children(id)
            .find(|&c| self.kind(c).is_attribute() && self.label(c) == want)
    }

    /// The string value of attribute `name` on element `id`, if present.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attribute_node(id, name)
            .and_then(|n| self.text_value(n))
    }

    /// Concatenated text content of all text-node descendants of `id`
    /// (the usual "string value" of an element).  For attribute and text
    /// nodes this is just their own text.
    pub fn string_value(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match self.kind(id) {
            NodeKind::Text | NodeKind::Attribute => out.push_str(&self.data(id).text),
            NodeKind::Element => {
                for c in self.children(id) {
                    if !self.kind(c).is_attribute() {
                        self.collect_text(c, out);
                    }
                }
            }
        }
    }

    /// Pre-order traversal of the subtree rooted at `id`, including `id`.
    pub fn descendants_or_self(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            // Push children in reverse so they pop in document order.
            for &c in self.data(n).children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Proper descendants of `id` in document order.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut all = self.descendants_or_self(id);
        all.remove(0);
        all
    }

    /// All nodes of the document in document order.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        self.descendants_or_self(self.root)
    }

    /// Ancestors of `id` from its parent up to (and including) the root.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent(p);
        }
        out
    }

    /// True if `anc` is an ancestor of `id` (proper, i.e. `anc != id`).
    pub fn is_ancestor(&self, anc: NodeId, id: NodeId) -> bool {
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// The depth of node `id` (the root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).len()
    }

    /// The sequence of labels on the path from the root to `id`, excluding the
    /// root's own label.  This is the "path of the node" used when checking
    /// whether a node is reached by a path expression rooted at the document
    /// root.
    pub fn path_from_root(&self, id: NodeId) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        let mut cur = Some(id);
        while let Some(n) = cur {
            if n == self.root {
                break;
            }
            labels.push(self.label(n).to_string());
            cur = self.parent(n);
        }
        labels.reverse();
        labels
    }

    /// The sequence of labels on the path from ancestor `from` down to `to`,
    /// excluding `from`'s own label.  Returns `None` if `from` is not an
    /// ancestor-or-self of `to`.
    pub fn path_between(&self, from: NodeId, to: NodeId) -> Option<Vec<String>> {
        let mut labels: Vec<String> = Vec::new();
        let mut cur = to;
        loop {
            if cur == from {
                labels.reverse();
                return Some(labels);
            }
            labels.push(self.label(cur).to_string());
            cur = self.parent(cur)?;
        }
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    fn push_node(&mut self, data: NodeData) -> NodeId {
        // NodeId order tracks document order exactly while every new node
        // goes under the previous node or one of its ancestors (a DFS-style
        // construction).  Appending anywhere else interleaves the orders.
        if let Some(parent) = data.parent {
            if self.id_order && parent != self.last && !self.is_ancestor(parent, self.last) {
                self.id_order = false;
            }
        }
        let id = NodeId(u32::try_from(self.nodes.len()).expect("document too large"));
        self.nodes.push(data);
        self.last = id;
        self.live += 1;
        id
    }

    /// Adds an element child labelled `label` under `parent` and returns its id.
    pub fn add_element(&mut self, parent: NodeId, label: impl Into<String>) -> NodeId {
        let id = self.push_node(NodeData::element(label, Some(parent)));
        self.data_mut(parent).children.push(id);
        self.epoch += 1;
        id
    }

    /// Adds an attribute node `@name = value` under element `parent`.
    pub fn add_attribute(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        value: impl Into<String>,
    ) -> NodeId {
        let id = self.push_node(NodeData::attribute(name, value, parent));
        self.data_mut(parent).children.push(id);
        self.epoch += 1;
        id
    }

    /// Adds a text node under element `parent`.
    pub fn add_text(&mut self, parent: NodeId, value: impl Into<String>) -> NodeId {
        let id = self.push_node(NodeData::text(value, parent));
        self.data_mut(parent).children.push(id);
        self.epoch += 1;
        id
    }

    /// Detaches the subtree rooted at `node` from its parent and returns
    /// the number of nodes detached.  The arena slots are kept as
    /// tombstones ([`NodeId`]s of the detached nodes become invalid for
    /// navigation — a logic error, never UB); `NodeId` order of the
    /// surviving nodes is a subsequence of the old order, so
    /// [`Document::ids_in_document_order`] is unaffected.
    ///
    /// Panics when `node` is the root or already detached; the checked
    /// equivalent is [`Document::apply`] with [`Delta::RemoveSubtree`].
    pub fn remove_subtree(&mut self, node: NodeId) -> usize {
        assert!(node != self.root, "cannot remove the document root");
        assert!(
            self.contains(node),
            "cannot remove unknown or detached node {node}"
        );
        let parent = self
            .data(node)
            .parent
            .expect("non-root attached node has a parent");
        let children = &mut self.data_mut(parent).children;
        let slot = children
            .iter()
            .position(|&c| c == node)
            .expect("parent/child links are consistent");
        children.remove(slot);
        self.data_mut(node).parent = None;
        let removed = self.descendants_or_self(node).len();
        self.live -= removed;
        self.epoch += 1;
        removed
    }

    /// Replaces the text carried by attribute or text node `node`.
    ///
    /// Panics when `node` is an element, unknown or detached; the checked
    /// equivalent is [`Document::apply`] with [`Delta::SetText`].
    pub fn set_text(&mut self, node: NodeId, text: impl Into<String>) {
        assert!(
            self.contains(node),
            "cannot set text on unknown or detached node {node}"
        );
        assert!(
            !self.kind(node).is_element(),
            "cannot set text on element node {node}"
        );
        self.data_mut(node).text = text.into();
        self.epoch += 1;
    }

    /// Applies one [`Delta`] to the document, validating it first, and
    /// returns the [`AppliedDelta`] receipt the incremental maintenance
    /// layers consume.  On error the document is unchanged.  Exactly one
    /// epoch tick per successful call, regardless of subtree size.
    pub fn apply(&mut self, delta: &Delta) -> Result<AppliedDelta, DeltaError> {
        match delta {
            Delta::RemoveSubtree { node } => {
                let node = *node;
                if node == self.root {
                    return Err(DeltaError::RemoveRoot);
                }
                if !self.contains(node) {
                    return Err(DeltaError::UnknownNode(node));
                }
                let parent = self.data(node).parent.expect("checked non-root");
                let nodes = self.remove_subtree(node);
                Ok(AppliedDelta::Remove {
                    parent,
                    root: node,
                    nodes,
                })
            }
            Delta::SetText { node, text } => {
                let node = *node;
                if !self.contains(node) {
                    return Err(DeltaError::UnknownNode(node));
                }
                if self.kind(node).is_element() {
                    return Err(DeltaError::SetTextOnElement(node));
                }
                self.set_text(node, text.clone());
                Ok(AppliedDelta::SetText { node })
            }
            Delta::InsertSubtree {
                parent,
                position,
                fragment,
            } => {
                let parent = *parent;
                let position = *position;
                if !self.contains(parent) {
                    return Err(DeltaError::UnknownNode(parent));
                }
                if !self.kind(parent).is_element() {
                    return Err(DeltaError::InsertUnderNonElement(parent));
                }
                let children = self.data(parent).children.len();
                if position > children {
                    return Err(DeltaError::PositionOutOfRange {
                        parent,
                        position,
                        children,
                    });
                }
                let (root, nodes) = self.graft(parent, position, fragment);
                self.epoch += 1;
                Ok(AppliedDelta::Insert {
                    parent,
                    position,
                    root,
                    nodes,
                })
            }
        }
    }

    /// Copies `fragment` into the arena as the `position`-th child of
    /// `parent` (validated by the caller).  Returns the new subtree root
    /// and node count.  Does not tick the epoch.
    fn graft(&mut self, parent: NodeId, position: usize, fragment: &Fragment) -> (NodeId, usize) {
        let appended = position == self.data(parent).children.len();
        let root = match fragment {
            Fragment::Attribute { name, value } => {
                let id = self.push_node(NodeData::attribute(name.clone(), value.clone(), parent));
                self.data_mut(parent).children.push(id);
                id
            }
            Fragment::Text(text) => {
                let id = self.push_node(NodeData::text(text.clone(), parent));
                self.data_mut(parent).children.push(id);
                id
            }
            Fragment::Element(frag) => {
                // Copy the fragment in document order so the new subtree is
                // internally DFS-ordered; remap fragment ids to fresh ids.
                let mut map = vec![u32::MAX; frag.arena_len()];
                let mut root = self.root; // overwritten on the first node
                for n in frag.all_nodes() {
                    let id = if n == frag.root() {
                        let id = self.push_node(NodeData {
                            kind: frag.kind(n),
                            label: frag.data(n).label.clone(),
                            text: frag.data(n).text.clone(),
                            parent: Some(parent),
                            children: Vec::new(),
                        });
                        self.data_mut(parent).children.push(id);
                        root = id;
                        id
                    } else {
                        let new_parent =
                            NodeId(map[frag.data(n).parent.expect("non-root").index()]);
                        let id = self.push_node(NodeData {
                            kind: frag.kind(n),
                            label: frag.data(n).label.clone(),
                            text: frag.data(n).text.clone(),
                            parent: Some(new_parent),
                            children: Vec::new(),
                        });
                        self.data_mut(new_parent).children.push(id);
                        id
                    };
                    map[n.index()] = id.0;
                }
                root
            }
        };
        let count = match fragment {
            Fragment::Element(frag) => frag.len(),
            _ => 1,
        };
        if !appended {
            // Move the root from the appended slot to the requested one;
            // ids now interleave with document order.
            let children = &mut self.data_mut(parent).children;
            let id = children.pop().expect("just pushed");
            children.insert(position, id);
            self.id_order = false;
        }
        (root, count)
    }

    // ------------------------------------------------------------------
    // value() — the paper's field-population function
    // ------------------------------------------------------------------

    /// The `value` function of the paper's transformation semantics
    /// (Section 2, Example 2.5): a string representing the pre-order
    /// traversal of the subtree rooted at `id`.
    ///
    /// * For attribute and text nodes this is simply their text content —
    ///   which is what ends up in relational fields in all the paper's
    ///   examples.
    /// * For element nodes the serialization lists the node's attributes and
    ///   children recursively, e.g. the `chapter` node 11 of Fig. 1 yields
    ///   `(@number:1, name:(S:Introduction))`.
    pub fn value(&self, id: NodeId) -> String {
        match self.kind(id) {
            NodeKind::Attribute | NodeKind::Text => self.data(id).text.clone(),
            NodeKind::Element => {
                let mut out = String::new();
                self.value_children(id, &mut out);
                out
            }
        }
    }

    fn value_children(&self, id: NodeId, out: &mut String) {
        out.push('(');
        let mut first = true;
        for c in self.children(id) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            match self.kind(c) {
                NodeKind::Attribute => {
                    out.push_str(self.label(c));
                    out.push(':');
                    out.push_str(&self.data(c).text);
                }
                NodeKind::Text => {
                    out.push_str("S:");
                    out.push_str(&self.data(c).text);
                }
                NodeKind::Element => {
                    out.push_str(self.label(c));
                    out.push(':');
                    self.value_children(c, out);
                }
            }
        }
        out.push(')');
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::serialize::to_xml(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Document {
        let mut d = Document::new("db");
        let book = d.add_element(d.root(), "book");
        d.add_attribute(book, "isbn", "123");
        let title = d.add_element(book, "title");
        d.add_text(title, "XML");
        d
    }

    #[test]
    fn navigation_basics() {
        let d = tiny();
        let root = d.root();
        assert_eq!(d.label(root), "db");
        assert_eq!(d.parent(root), None);
        let book = d.element_children(root).next().unwrap();
        assert_eq!(d.label(book), "book");
        assert_eq!(d.parent(book), Some(root));
        assert_eq!(d.attribute(book, "isbn"), Some("123"));
        assert_eq!(d.attribute(book, "@isbn"), Some("123"));
        assert_eq!(d.attribute(book, "missing"), None);
        let title = d.children_labelled(book, "title").next().unwrap();
        assert_eq!(d.string_value(title), "XML");
    }

    #[test]
    fn descendants_and_ancestors() {
        let d = tiny();
        let root = d.root();
        let all = d.descendants_or_self(root);
        assert_eq!(all.len(), d.len());
        assert_eq!(all[0], root);
        let title = all
            .iter()
            .copied()
            .find(|&n| d.label(n) == "title")
            .unwrap();
        let anc = d.ancestors(title);
        assert_eq!(anc.len(), 2); // book, db
        assert!(d.is_ancestor(root, title));
        assert!(!d.is_ancestor(title, root));
        assert_eq!(d.depth(title), 2);
    }

    #[test]
    fn paths() {
        let d = tiny();
        let title = d
            .all_nodes()
            .into_iter()
            .find(|&n| d.label(n) == "title")
            .unwrap();
        assert_eq!(
            d.path_from_root(title),
            vec!["book".to_string(), "title".to_string()]
        );
        let book = d.parent(title).unwrap();
        assert_eq!(d.path_between(book, title), Some(vec!["title".to_string()]));
        assert_eq!(d.path_between(title, book), None);
        assert_eq!(d.path_between(title, title), Some(vec![]));
    }

    #[test]
    fn value_of_attribute_and_text() {
        let d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        let isbn = d.attribute_node(book, "isbn").unwrap();
        assert_eq!(d.value(isbn), "123");
        let title = d.children_labelled(book, "title").next().unwrap();
        let text = d.children(title).next().unwrap();
        assert_eq!(d.value(text), "XML");
    }

    #[test]
    fn value_of_element_is_preorder() {
        let d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        assert_eq!(d.value(book), "(@isbn:123, title:(S:XML))");
    }

    #[test]
    fn string_value_skips_attributes() {
        let d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        assert_eq!(d.string_value(book), "XML");
    }

    #[test]
    fn id_order_flag_tracks_out_of_order_appends() {
        // DFS-style construction (parser, builder, straight-line mutation)
        // keeps NodeId order equal to document order...
        let mut doc = Document::new("r");
        let a = doc.add_element(doc.root(), "a");
        doc.add_attribute(a, "x", "1");
        let b = doc.add_element(a, "b");
        doc.add_text(b, "t");
        doc.add_element(doc.root(), "c"); // parent is an ancestor of `last`
        assert!(doc.ids_in_document_order());
        // ...but appending under an earlier, non-ancestor parent splits the
        // two orders permanently.
        let late = doc.add_element(a, "late");
        assert!(!doc.ids_in_document_order());
        let order = doc.all_nodes();
        let rank = |n: NodeId| order.iter().position(|&m| m == n).unwrap();
        assert!(late > *order.last().unwrap());
        assert!(rank(late) < order.len() - 1, "late precedes c in doc order");
    }

    #[test]
    fn empty_document() {
        let d = Document::new("r");
        assert!(d.is_empty());
        assert_eq!(d.len(), 1);
        assert_eq!(d.value(d.root()), "()");
    }

    #[test]
    fn remove_subtree_detaches_and_counts() {
        let mut d = tiny();
        let before = d.len();
        let book = d.element_children(d.root()).next().unwrap();
        let title = d.children_labelled(book, "title").next().unwrap();
        let removed = d.remove_subtree(title);
        assert_eq!(removed, 2); // title + its text node
        assert_eq!(d.len(), before - 2);
        assert_eq!(d.arena_len(), before, "arena keeps tombstone slots");
        assert!(!d.contains(title));
        assert!(d.contains(book));
        assert!(d.children_labelled(book, "title").next().is_none());
        assert_eq!(d.all_nodes().len(), d.len());
    }

    #[test]
    fn remove_subtree_handles_attributes() {
        let mut d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        let isbn = d.attribute_node(book, "isbn").unwrap();
        assert_eq!(d.remove_subtree(isbn), 1);
        assert_eq!(d.attribute(book, "isbn"), None);
        assert_eq!(d.value(book), "(title:(S:XML))");
    }

    #[test]
    fn set_text_rewrites_attributes_and_text() {
        let mut d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        let isbn = d.attribute_node(book, "isbn").unwrap();
        d.set_text(isbn, "999");
        assert_eq!(d.attribute(book, "isbn"), Some("999"));
        let title = d.children_labelled(book, "title").next().unwrap();
        let text = d.children(title).next().unwrap();
        d.set_text(text, "Relational");
        assert_eq!(d.string_value(book), "Relational");
    }

    #[test]
    #[should_panic(expected = "cannot remove the document root")]
    fn remove_root_panics() {
        let mut d = tiny();
        d.remove_subtree(d.root());
    }

    #[test]
    #[should_panic(expected = "element node")]
    fn set_text_on_element_panics() {
        let mut d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        d.set_text(book, "nope");
    }

    #[test]
    fn epoch_ticks_once_per_mutation() {
        let mut d = Document::new("r");
        let e0 = d.epoch();
        let a = d.add_element(d.root(), "a");
        assert_eq!(d.epoch(), e0 + 1);
        d.add_attribute(a, "x", "1");
        d.add_text(a, "t");
        assert_eq!(d.epoch(), e0 + 3);
        let clone = d.clone();
        assert_eq!(clone.epoch(), d.epoch());
        d.remove_subtree(a);
        assert_eq!(d.epoch(), e0 + 4);
        d.apply(&crate::Delta::InsertSubtree {
            parent: d.root(),
            position: 0,
            fragment: crate::Fragment::Element(tiny()),
        })
        .unwrap();
        assert_eq!(d.epoch(), e0 + 5, "apply ticks once, not once per node");
    }

    #[test]
    fn apply_validates_before_mutating() {
        use crate::{Delta, DeltaError, Fragment};
        let mut d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        let isbn = d.attribute_node(book, "isbn").unwrap();
        let epoch = d.epoch();
        let bytes = crate::to_xml(&d);
        let bogus = NodeId::from_index(9999);
        let cases: Vec<(Delta, DeltaError)> = vec![
            (
                Delta::RemoveSubtree { node: d.root() },
                DeltaError::RemoveRoot,
            ),
            (
                Delta::RemoveSubtree { node: bogus },
                DeltaError::UnknownNode(bogus),
            ),
            (
                Delta::SetText {
                    node: book,
                    text: "x".into(),
                },
                DeltaError::SetTextOnElement(book),
            ),
            (
                Delta::InsertSubtree {
                    parent: isbn,
                    position: 0,
                    fragment: Fragment::Text("x".into()),
                },
                DeltaError::InsertUnderNonElement(isbn),
            ),
            (
                Delta::InsertSubtree {
                    parent: book,
                    position: 99,
                    fragment: Fragment::Text("x".into()),
                },
                DeltaError::PositionOutOfRange {
                    parent: book,
                    position: 99,
                    children: 2,
                },
            ),
        ];
        for (delta, want) in cases {
            assert_eq!(d.apply(&delta).unwrap_err(), want);
        }
        assert_eq!(d.epoch(), epoch, "failed applies leave the epoch alone");
        assert_eq!(
            crate::to_xml(&d),
            bytes,
            "failed applies leave the tree alone"
        );
        // A node detached earlier is rejected like an unknown one.
        let mut d2 = d.clone();
        let title = d2.children_labelled(book, "title").next().unwrap();
        d2.remove_subtree(title);
        assert_eq!(
            d2.apply(&Delta::SetText {
                node: title,
                text: "x".into()
            })
            .unwrap_err(),
            DeltaError::UnknownNode(title),
        );
    }

    #[test]
    fn positional_insert_lands_where_asked() {
        use crate::{Delta, Fragment};
        let mut d = Document::new("db");
        let a = d.add_element(d.root(), "a");
        d.add_element(d.root(), "c");
        assert!(d.ids_in_document_order());
        let applied = d
            .apply(&Delta::InsertSubtree {
                parent: d.root(),
                position: 1,
                fragment: Fragment::Element(Document::new("b")),
            })
            .unwrap();
        let crate::AppliedDelta::Insert { root, nodes, .. } = applied else {
            panic!("expected Insert receipt");
        };
        assert_eq!(nodes, 1);
        let labels: Vec<&str> = d.children(d.root()).map(|c| d.label(c)).collect();
        assert_eq!(labels, ["a", "b", "c"]);
        assert_eq!(d.parent(root), Some(d.root()));
        assert!(
            !d.ids_in_document_order(),
            "a positional insert interleaves NodeId and document order"
        );
        // Removal of a subtree keeps the flag truthful: surviving ids are a
        // subsequence of the old order.
        let mut d2 = Document::new("db");
        let a2 = d2.add_element(d2.root(), "a");
        d2.add_text(a2, "t");
        d2.add_element(d2.root(), "c");
        assert!(d2.ids_in_document_order());
        d2.remove_subtree(a2);
        assert!(d2.ids_in_document_order());
        let _ = a; // ids stay comparable but unused hereafter
    }

    #[test]
    fn apply_round_trips_through_serialization() {
        use crate::{Delta, Fragment};
        let mut d = tiny();
        let book = d.element_children(d.root()).next().unwrap();
        let isbn = d.attribute_node(book, "isbn").unwrap();
        d.apply(&Delta::SetText {
            node: isbn,
            text: "X&<\"'>".into(),
        })
        .unwrap();
        d.apply(&Delta::InsertSubtree {
            parent: book,
            position: 2,
            fragment: Fragment::Element(
                Document::parse_str("<chapter number=\"1\"><name>Intro</name></chapter>").unwrap(),
            ),
        })
        .unwrap();
        let title = d.children_labelled(book, "title").next().unwrap();
        d.apply(&Delta::RemoveSubtree { node: title }).unwrap();
        let xml = crate::to_xml(&d);
        let reparsed = Document::parse_str(&xml).unwrap();
        assert_eq!(crate::to_xml(&reparsed), xml, "serialize→parse round-trip");
        assert_eq!(reparsed.len(), d.len());
    }
}
