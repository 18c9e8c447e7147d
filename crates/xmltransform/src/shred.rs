//! Shredding: evaluating a table rule over a document (Section 2, semantics).
//!
//! This is the **string baseline**: variables are resolved through cloned
//! `BTreeMap` bindings and paths through the string evaluator.  It is what
//! [`TableRule::shred`] runs for one-shot calls, the oracle the shred-plan
//! property tests pin the compiled engine against, and the facade side of
//! the `shred` bench.  Anything that shreds repeatedly — or shreds large
//! documents — should prepare a [`crate::ShredPlan`] instead.

use crate::rule::TableRule;
use std::collections::BTreeMap;
use xmlprop_reldb::{Relation, Tuple, Value};
use xmlprop_xmltree::{Document, NodeId};

/// A partial assignment of variables to document nodes.  `None` models the
/// paper's null case: the variable's path reached no node (and every
/// descendant variable is then null as well).
type Binding = BTreeMap<String, Option<NodeId>>;

/// Evaluates a table rule over a document, producing one relation instance.
///
/// Semantics (Section 2 of the paper, Example 2.5):
///
/// * the root variable is bound to the document root;
/// * a variable `x := y/P` ranges over `y[[P]]`; if that set is empty the
///   variable (and its descendants) are bound to null;
/// * when several nodes are reached, an implicit Cartesian product covers
///   them all;
/// * the field `f := value(x)` of each output tuple holds the `value()`
///   serialization of `x`'s node, or SQL null when `x` is unbound.
pub fn shred_rule(rule: &TableRule, doc: &Document) -> Relation {
    let tree = rule.table_tree();
    let mut bindings: Vec<Binding> = vec![{
        let mut b = Binding::new();
        b.insert(tree.root().to_string(), Some(doc.root()));
        b
    }];

    // Variables in parent-before-child order, skipping the root.
    for var in tree.variables().iter().skip(1) {
        let parent = tree.parent(var).expect("non-root variable has a parent");
        let path = tree
            .edge_path(var)
            .expect("non-root variable has an edge path");
        let mut next: Vec<Binding> = Vec::with_capacity(bindings.len());
        for binding in &bindings {
            match binding.get(parent).copied().flatten() {
                None => {
                    // Parent unbound: the child is null too.
                    let mut b = binding.clone();
                    b.insert(var.clone(), None);
                    next.push(b);
                }
                Some(parent_node) => {
                    let nodes = path.evaluate(doc, parent_node);
                    if nodes.is_empty() {
                        let mut b = binding.clone();
                        b.insert(var.clone(), None);
                        next.push(b);
                    } else {
                        for node in nodes {
                            let mut b = binding.clone();
                            b.insert(var.clone(), Some(node));
                            next.push(b);
                        }
                    }
                }
            }
        }
        bindings = next;
    }

    let mut relation = Relation::new(rule.schema().clone());
    for binding in bindings {
        let values: Vec<Value> = rule
            .schema()
            .attributes()
            .iter()
            .map(|field| {
                let var = rule
                    .field_var(field)
                    .expect("validated rule covers every field");
                match binding.get(var).copied().flatten() {
                    Some(node) => Value::text(field_value(doc, node)),
                    None => Value::Null,
                }
            })
            .collect();
        relation.insert(Tuple::new(values));
    }
    relation
}

/// The string stored in a relational field for a bound node.
///
/// Attributes, text nodes and text-only elements contribute their text (this
/// is what every printed instance in the paper shows, e.g. `Fundamentals`
/// for a `name` element in Example 2.5); elements with attribute or element
/// children contribute the full pre-order `value()` serialization, as in the
/// paper's `value(11)` illustration.
pub(crate) fn field_value(doc: &Document, node: NodeId) -> String {
    use xmlprop_xmltree::NodeKind;
    match doc.kind(node) {
        NodeKind::Attribute | NodeKind::Text => doc.value(node),
        NodeKind::Element => {
            let only_text = doc.children(node).all(|c| doc.kind(c).is_text());
            if only_text {
                doc.string_value(node)
            } else {
                doc.value(node)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample;
    use xmlprop_reldb::Fd;
    use xmlprop_xmltree::sample::fig1;
    use xmlprop_xmltree::ElementBuilder;

    #[test]
    fn example_2_5_section_instance() {
        // The interpretation of Rule(section) over the Fig. 1 tree yields the
        // two fully populated tuples printed in Example 2.5; chapters with no
        // sections additionally produce null-padded tuples (the paper's
        // "value(x) is defined to be null" amendment to the semantics).
        let t = sample::example_2_4_transformation();
        let doc = fig1();
        let rel = t.rule("section").unwrap().shred(&doc);
        assert_eq!(rel.schema().attributes(), &["inChapt", "number", "name"]);
        let complete: Vec<Vec<String>> = rel
            .rows()
            .iter()
            .filter(|r| !r.has_null())
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        assert_eq!(
            complete,
            vec![
                vec!["1".to_string(), "1".to_string(), "Fundamentals".to_string()],
                vec!["1".to_string(), "2".to_string(), "Attributes".to_string()],
            ]
        );
        // Book 123's two chapters have no sections: two null-padded rows.
        let padded = rel.rows().iter().filter(|r| r.has_null()).count();
        assert_eq!(padded, 2);
        assert_eq!(rel.len(), 4);
    }

    #[test]
    fn chapter_instance_matches_fig_2b_shape() {
        let t = sample::example_2_4_transformation();
        let doc = fig1();
        let rel = t.rule("chapter").unwrap().shred(&doc);
        assert_eq!(rel.len(), 3);
        let fd = Fd::parse("inBook, number -> name").unwrap();
        assert!(rel.satisfies_fd_paper(&fd));
        // bookTitle-based key would fail, but that needs the title — checked
        // at the integration level with a dedicated transformation.
    }

    #[test]
    fn book_instance_has_two_rows() {
        let t = sample::example_2_4_transformation();
        let doc = fig1();
        let rel = t.rule("book").unwrap().shred(&doc);
        // Book 123 has one author; book 234 has none (nulls) — still one row
        // each because empty author branches produce nulls, not row loss.
        assert_eq!(rel.len(), 2);
        let by_isbn: Vec<(String, bool)> = rel
            .rows()
            .iter()
            .map(|r| {
                (
                    rel.value(r, "isbn").to_string(),
                    rel.value(r, "contact").is_null(),
                )
            })
            .collect();
        assert!(by_isbn.contains(&("123".to_string(), false)));
        assert!(by_isbn.contains(&("234".to_string(), true)));
    }

    #[test]
    fn whole_transformation_shreds_to_a_database() {
        let t = sample::example_2_4_transformation();
        let doc = fig1();
        let db = t.shred(&doc);
        assert_eq!(db.len(), 3);
        assert_eq!(db.get("book").unwrap().len(), 2);
        assert_eq!(db.get("chapter").unwrap().len(), 3);
        // Two real sections plus two null-padded rows for sectionless chapters.
        assert_eq!(db.get("section").unwrap().len(), 4);
        assert_eq!(
            db.get("section")
                .unwrap()
                .rows()
                .iter()
                .filter(|r| !r.has_null())
                .count(),
            2
        );
    }

    #[test]
    fn cartesian_product_semantics() {
        // A document where a book has 2 authors and 3 chapters: a rule with
        // fields from both branches produces 2 × 3 = 6 tuples.
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
        let t = crate::Transformation::parse(
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
        let rel = t.rule("pairs").unwrap().shred(&doc);
        assert_eq!(rel.len(), 6);
    }

    #[test]
    fn missing_branches_become_null_not_lost_rows() {
        // The universal relation of Example 3.1 over Fig. 1: book 234 has no
        // author and no sections under chapter... but chapter 1 of book 234
        // has sections; chapters of book 123 have none, so secNum/secName are
        // null there while chapNum/chapName are populated.
        let u = sample::example_3_1_universal();
        let doc = fig1();
        let rel = u.shred(&doc);
        // Expected bindings: book 123 (1 author) × chapters {1, 10} × no
        // sections → 2 rows; book 234 (no author) × chapter 1 × sections
        // {1, 2} → 2 rows.
        assert_eq!(rel.len(), 4);
        let null_sections = rel
            .rows()
            .iter()
            .filter(|r| rel.value(r, "secNum").is_null())
            .count();
        assert_eq!(null_sections, 2);
        let null_authors = rel
            .rows()
            .iter()
            .filter(|r| rel.value(r, "bookAuthor").is_null())
            .count();
        assert_eq!(null_authors, 2);
    }

    #[test]
    fn empty_document_yields_single_all_null_row() {
        let t = sample::example_2_4_transformation();
        let doc = xmlprop_xmltree::Document::new("r");
        let rel = t.rule("book").unwrap().shred(&doc);
        assert_eq!(rel.len(), 1);
        assert!(rel.rows()[0].values().iter().all(Value::is_null));
    }

    #[test]
    fn values_use_preorder_serialization_for_elements() {
        // A field bound to an element variable stores the pre-order value()
        // string, as in Example 2.5's value(11) illustration.
        let doc = fig1();
        let t = crate::Transformation::parse(
            "rule chap(c) {
                xb := xr//book;
                xc := xb/chapter;
                c := value(xc);
            }",
        )
        .unwrap();
        let rel = t.rule("chap").unwrap().shred(&doc);
        let first = rel.value(&rel.rows()[0], "c").to_string();
        assert_eq!(first, "(@number:1, name:(S:Introduction))");
    }
}
