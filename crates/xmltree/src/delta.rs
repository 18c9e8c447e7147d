//! The delta interface: first-class document edits.
//!
//! A [`Delta`] describes one edit to a [`Document`](crate::Document) —
//! inserting a subtree, removing a subtree, or rewriting the text of an
//! attribute/text node.  Edits are applied through
//! [`Document::apply`](crate::Document::apply), which validates the edit
//! and returns an [`AppliedDelta`] receipt; the receipt is what the
//! incremental maintenance layers ([`DocIndex::apply_delta`]
//! (crate::DocIndex::apply_delta), the key validator, the shred planner)
//! consume to patch their state without re-reading the whole document.
//!
//! The locality contract every incremental consumer relies on: after an
//! edit, the only nodes whose *subtree content* changed are the
//! [`AppliedDelta::dirty_node`] and its ancestors, plus (for inserts) the
//! freshly created nodes themselves.  Everything else — labels, text,
//! subtree serializations, child lists — is byte-identical to before the
//! edit.

use crate::{Document, NodeId};
use std::fmt;

/// One edit to a document; applied via [`Document::apply`].
#[derive(Debug, Clone)]
pub enum Delta {
    /// Insert `fragment` as the `position`-th child of `parent`
    /// (`position == 0` prepends, `position == children(parent).count()`
    /// appends).
    InsertSubtree {
        /// The element that receives the new child.
        parent: NodeId,
        /// Index in `parent`'s child list at which the fragment root lands.
        position: usize,
        /// The subtree to insert.
        fragment: Fragment,
    },
    /// Detach the subtree rooted at `node` (which may be a single
    /// attribute or text node) from its parent.
    RemoveSubtree {
        /// Root of the subtree to remove; must not be the document root.
        node: NodeId,
    },
    /// Replace the text carried by an attribute or text node.
    SetText {
        /// The attribute or text node to rewrite.
        node: NodeId,
        /// The new text value.
        text: String,
    },
}

/// The payload of a [`Delta::InsertSubtree`].
#[derive(Debug, Clone)]
pub enum Fragment {
    /// An element subtree, carried as a standalone document whose root is
    /// the element to insert (e.g. built with
    /// [`Document::parse_str`](crate::Document::parse_str) or
    /// [`crate::ElementBuilder`]).
    Element(Document),
    /// A single attribute node `@name = value` (the paper treats
    /// attributes as labelled children, so they insert like any subtree).
    Attribute {
        /// Attribute name, with or without the leading `@`.
        name: String,
        /// Attribute value.
        value: String,
    },
    /// A single text node.
    Text(String),
}

impl Fragment {
    /// Number of nodes this fragment will add to a document.
    pub fn len(&self) -> usize {
        match self {
            Fragment::Element(doc) => doc.len(),
            Fragment::Attribute { .. } | Fragment::Text(_) => 1,
        }
    }

    /// True if the fragment adds no nodes (never the case for the current
    /// variants; present for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Receipt for a successfully applied [`Delta`]: exactly what the
/// incremental index/validator/shredder layers need to locate the dirty
/// region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppliedDelta {
    /// A subtree of `nodes` nodes rooted at `root` was inserted as the
    /// `position`-th child of `parent`.
    Insert {
        /// The element that received the new child.
        parent: NodeId,
        /// Child index at which the subtree root now sits.
        position: usize,
        /// The (freshly allocated) root of the inserted subtree.
        root: NodeId,
        /// Size of the inserted subtree.
        nodes: usize,
    },
    /// The subtree of `nodes` nodes rooted at `root` was detached from
    /// `parent`.
    Remove {
        /// The element the subtree was detached from.
        parent: NodeId,
        /// The (now detached) root of the removed subtree.
        root: NodeId,
        /// Size of the removed subtree.
        nodes: usize,
    },
    /// The text of `node` was replaced.
    SetText {
        /// The rewritten attribute or text node.
        node: NodeId,
    },
}

impl AppliedDelta {
    /// The deepest node that survives the edit and whose subtree content
    /// changed.  The full dirty set of surviving nodes is exactly this
    /// node plus its ancestors (see the module docs); nodes outside that
    /// chain kept their subtree content byte-for-byte.
    pub fn dirty_node(&self) -> NodeId {
        match *self {
            AppliedDelta::Insert { parent, .. } | AppliedDelta::Remove { parent, .. } => parent,
            AppliedDelta::SetText { node } => node,
        }
    }
}

/// Why a [`Delta`] could not be applied; see [`Document::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The referenced node is out of range for this document, or was
    /// already detached by an earlier removal.
    UnknownNode(NodeId),
    /// The document root cannot be removed.
    RemoveRoot,
    /// Insert position exceeds the parent's child count.
    PositionOutOfRange {
        /// The would-be parent.
        parent: NodeId,
        /// The requested child index.
        position: usize,
        /// The parent's actual child count.
        children: usize,
    },
    /// Subtrees can only be inserted under element nodes.
    InsertUnderNonElement(NodeId),
    /// `SetText` targets must be attribute or text nodes.
    SetTextOnElement(NodeId),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DeltaError::UnknownNode(n) => {
                write!(f, "unknown or detached node {n}")
            }
            DeltaError::RemoveRoot => write!(f, "cannot remove the document root"),
            DeltaError::PositionOutOfRange {
                parent,
                position,
                children,
            } => write!(
                f,
                "position {position} out of range for {parent} ({children} children)"
            ),
            DeltaError::InsertUnderNonElement(n) => {
                write!(f, "cannot insert under non-element node {n}")
            }
            DeltaError::SetTextOnElement(n) => {
                write!(f, "cannot set text on element node {n}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}
