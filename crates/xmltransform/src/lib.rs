//! The XML-to-relations transformation language of the paper (Definition 2.2).
//!
//! A **transformation** `σ` maps XML documents to instances of a fixed
//! relational schema `R = (R1, …, Rn)`.  It consists of one **table rule**
//! per relation.  A table rule for `Ri` has:
//!
//! * a set of **variables**, one of which (`xr`) is the distinguished *root
//!   variable*;
//! * **variable mappings** `x := y/P` binding each variable to the nodes
//!   reached by path `P` from its parent variable `y` (the path must be
//!   simple — no `//` — unless `y` is the root variable);
//! * **field rules** `f := value(x)` populating each field of `Ri` from the
//!   `value()` serialization of the node bound to `x` (only leaf variables,
//!   i.e. variables that are not the parent of another variable, may carry
//!   field rules).
//!
//! A rule is represented abstractly by its **table tree** (Fig. 3/4 of the
//! paper): variables are nodes, edges are labelled with the mapping paths.
//!
//! The **semantics** (Section 2, Example 2.5): variables range over the node
//! sets reached by their paths, an implicit Cartesian product covers
//! repeated nodes, and missing branches produce `null` fields.
//!
//! This crate provides:
//!
//! * [`TableRule`], [`Transformation`] with the well-formedness checks of
//!   Definition 2.2 (see [`RuleError`]);
//! * [`TableTree`] — the tree view used by all the propagation algorithms
//!   (`parent`, ancestors, `path(y, x)`, depth);
//! * shredding: [`TableRule::shred`] / [`Transformation::shred`] producing
//!   [`xmlprop_reldb::Relation`]s / [`xmlprop_reldb::Database`]s (the
//!   one-shot string walk), and the prepared [`ShredPlan`] /
//!   [`TransformationPlan`] ([`TableRule::prepare`] /
//!   [`Transformation::prepare`]) shredding over a
//!   [`xmlprop_xmltree::DocIndex`] with dense [`VarId`] binding rows and
//!   memoized `value()` serialization;
//! * a concise textual syntax ([`Transformation::parse`]) used by examples,
//!   tests and the workload generator;
//! * streaming execution: [`StreamShredder`] runs a [`ShredPlan`] over parse
//!   events with an open-binding frontier, never materialising a document —
//!   peak memory is bounded by depth plus open bindings, and the produced
//!   relation is bit-for-bit the DOM result;
//! * incremental re-shredding: [`IncrementalShredder`] maintains the
//!   shredded database under [`xmlprop_xmltree::Document::apply`] edits by
//!   caching per-anchor tuple blocks, re-shredding only blocks on the
//!   edit's dirty ancestor chain and reporting tuple-level
//!   [`RelationDelta`]s;
//! * the paper's running transformation (Example 2.4) and universal relation
//!   (Example 3.1) in [`sample`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delta;
mod parse;
mod plan;
mod rule;
pub mod sample;
mod shred;
mod stream;
mod tree;

pub use delta::{IncrementalShredder, RelationDelta};
pub use parse::{parse_single_rule, ParseRuleError};
pub use plan::{ShredPlan, ShredScratch, TransformationPlan, VarId};
pub use rule::{FieldRule, RuleError, TableRule, Transformation, VarMapping, ROOT_VAR};
pub use stream::StreamShredder;
pub use tree::TableTree;
