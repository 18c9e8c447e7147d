//! Relation instances, tuples and databases.

use crate::{Fd, RelationSchema, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A tuple: one value per attribute of the owning relation's schema, in
/// schema order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from values (must match the schema arity of the
    /// relation it is inserted into; [`Relation::insert`] checks this).
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The values of the tuple.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at position `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// True if any field is null.
    pub fn has_null(&self) -> bool {
        self.values.iter().any(Value::is_null)
    }

    /// SQL-style tuple equality: every field pair compares equal under
    /// [`Value::sql_eq`]. A tuple containing a null therefore never
    /// matches anything — itself included — which is the comparison keys
    /// and joins must use. Structural `==` (nulls equal) remains the right
    /// notion for *duplicate elimination* ([`Relation::distinct`], SQL
    /// `DISTINCT`); see the [`Value`] docs for the split.
    pub fn sql_eq(&self, other: &Tuple) -> bool {
        self.arity() == other.arity()
            && self
                .values
                .iter()
                .zip(other.values.iter())
                .all(|(a, b)| a.sql_eq(b))
    }
}

impl<V: Into<Value>> FromIterator<V> for Tuple {
    fn from_iter<T: IntoIterator<Item = V>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().map(Into::into).collect())
    }
}

/// A relation instance: a schema plus a bag of tuples.
///
/// Shredding XML into relations can produce duplicate rows (the paper's
/// semantics builds a set of field-to-value bindings, but two distinct node
/// bindings may produce equal field values); the instance is therefore kept
/// as a bag, with [`Relation::distinct`] available when set semantics is
/// wanted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: RelationSchema,
    rows: Vec<Tuple>,
}

impl Relation {
    /// Creates an empty instance of the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            rows: Vec::new(),
        }
    }

    /// The schema of the relation.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The rows of the relation.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a tuple.
    ///
    /// # Panics
    ///
    /// Panics if the tuple arity does not match the schema.
    pub fn insert(&mut self, tuple: Tuple) {
        assert_eq!(
            tuple.arity(),
            self.schema.arity(),
            "tuple arity does not match schema {}",
            self.schema
        );
        self.rows.push(tuple);
    }

    /// Returns a copy with duplicate rows removed (order preserved).
    ///
    /// Duplicate detection is *structural*, like SQL `DISTINCT`: two rows
    /// that agree field-by-field collapse even where those fields are
    /// null. This is deliberately not [`Tuple::sql_eq`] — under SQL
    /// comparison semantics a null-bearing row equals nothing and
    /// `DISTINCT` could never remove it, yet SQL (and this engine) still
    /// collapse repeated `NULL` rows when deduplicating.
    pub fn distinct(&self) -> Relation {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Relation::new(self.schema.clone());
        for row in &self.rows {
            if seen.insert(row.clone()) {
                out.rows.push(row.clone());
            }
        }
        out
    }

    /// The value of `attribute` in `row`.
    pub fn value<'t>(&self, row: &'t Tuple, attribute: &str) -> &'t Value {
        let idx = self
            .schema
            .index_of(attribute)
            .unwrap_or_else(|| panic!("unknown attribute `{attribute}` in {}", self.schema));
        row.get(idx)
    }

    /// Projection of a row onto a set of attributes (in iteration order of
    /// the given names).
    pub fn project<'a>(
        &self,
        row: &Tuple,
        attributes: impl IntoIterator<Item = &'a String>,
    ) -> Vec<Value> {
        attributes
            .into_iter()
            .map(|a| self.value(row, a).clone())
            .collect()
    }

    /// Classical FD satisfaction, ignoring the null subtleties: any two rows
    /// that agree on `fd.lhs()` (using strict value equality, where nulls
    /// equal nulls) agree on `fd.rhs()`.
    pub fn satisfies_fd_classical(&self, fd: &Fd) -> bool {
        let lhs: Vec<&String> = fd.lhs().iter().collect();
        let rhs: Vec<&String> = fd.rhs().iter().collect();
        let mut seen: BTreeMap<Vec<Value>, Vec<Value>> = BTreeMap::new();
        for row in &self.rows {
            let key = self.project(row, lhs.iter().copied());
            let val = self.project(row, rhs.iter().copied());
            match seen.get(&key) {
                Some(prev) if prev != &val => return false,
                Some(_) => {}
                None => {
                    seen.insert(key, val);
                }
            }
        }
        true
    }

    /// FD satisfaction under the paper's null semantics (Section 3):
    ///
    /// 1. for any tuple, if the `X` projection contains a null then so does
    ///    the `Y` projection (an incomplete key cannot determine complete
    ///    fields); and
    /// 2. any two tuples that are entirely null-free and agree on `X` agree
    ///    on `Y`.
    pub fn satisfies_fd_paper(&self, fd: &Fd) -> bool {
        let lhs: Vec<&String> = fd.lhs().iter().collect();
        let rhs: Vec<&String> = fd.rhs().iter().collect();
        // Condition 1.
        for row in &self.rows {
            let x = self.project(row, lhs.iter().copied());
            let y = self.project(row, rhs.iter().copied());
            if x.iter().any(Value::is_null) && !y.iter().any(Value::is_null) {
                return false;
            }
        }
        // Condition 2 — over completely null-free tuples only.
        let mut seen: BTreeMap<Vec<Value>, Vec<Value>> = BTreeMap::new();
        for row in &self.rows {
            if row.has_null() {
                continue;
            }
            let key = self.project(row, lhs.iter().copied());
            let val = self.project(row, rhs.iter().copied());
            match seen.get(&key) {
                Some(prev) if prev != &val => return false,
                Some(_) => {}
                None => {
                    seen.insert(key, val);
                }
            }
        }
        true
    }

    /// Renders the instance as an aligned text table (Fig. 2 style).
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.schema.attributes().iter().map(|a| a.len()).collect();
        for row in &self.rows {
            for (i, v) in row.values().iter().enumerate() {
                widths[i] = widths[i].max(v.to_string().len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .schema
            .attributes()
            .iter()
            .enumerate()
            .map(|(i, a)| format!("{:width$}", a, width = widths[i]))
            .collect();
        out.push_str(&format!("{}\n", header.join("  ")));
        out.push_str(&format!("{}\n", "-".repeat(header.join("  ").len())));
        for row in &self.rows {
            let cells: Vec<String> = row
                .values()
                .iter()
                .enumerate()
                .map(|(i, v)| format!("{:width$}", v.to_string(), width = widths[i]))
                .collect();
            out.push_str(&format!("{}\n", cells.join("  ")));
        }
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        write!(f, "{}", self.to_table_string())
    }
}

/// A database: a collection of relation instances, addressed by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Adds (or replaces) a relation instance.
    pub fn insert(&mut self, relation: Relation) {
        self.relations
            .insert(relation.schema().name().to_string(), relation);
    }

    /// Looks up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Iterates over the relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// The number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if the database holds no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;

    fn chapter_relation() -> Relation {
        // Fig. 2(a) of the paper.
        let schema = RelationSchema::new("Chapter", ["bookTitle", "chapterNum", "chapterName"]);
        let mut r = Relation::new(schema);
        r.insert(["XML", "1", "Introduction"].into_iter().collect());
        r.insert(["XML", "10", "Conclusion"].into_iter().collect());
        r.insert(["XML", "1", "Getting Acquainted"].into_iter().collect());
        r
    }

    #[test]
    fn fig2a_violates_its_key() {
        // Example 1.1: (bookTitle, chapterNum) -> chapterName fails on the
        // initial design.
        let r = chapter_relation();
        let fd = Fd::new(attrs(["bookTitle", "chapterNum"]), attrs(["chapterName"]));
        assert!(!r.satisfies_fd_classical(&fd));
        assert!(!r.satisfies_fd_paper(&fd));
    }

    #[test]
    fn fig2b_satisfies_the_refined_key() {
        // Fig. 2(b): isbn replaces bookTitle and the key holds.
        let schema = RelationSchema::new("Chapter", ["isbn", "chapterNum", "chapterName"]);
        let mut r = Relation::new(schema);
        r.insert(["123", "1", "Introduction"].into_iter().collect());
        r.insert(["123", "10", "Conclusion"].into_iter().collect());
        r.insert(["234", "1", "Getting Acquainted"].into_iter().collect());
        let fd = Fd::new(attrs(["isbn", "chapterNum"]), attrs(["chapterName"]));
        assert!(r.satisfies_fd_classical(&fd));
        assert!(r.satisfies_fd_paper(&fd));
    }

    #[test]
    fn paper_null_semantics_condition_one() {
        // X null but Y non-null violates condition (1).
        let schema = RelationSchema::new("r", ["a", "b"]);
        let mut r = Relation::new(schema);
        r.insert(Tuple::new(vec![Value::Null, Value::text("y")]));
        let fd = Fd::new(attrs(["a"]), attrs(["b"]));
        assert!(!r.satisfies_fd_paper(&fd));
        // Classical satisfaction does not look at nulls specially: a single
        // tuple can never violate it.
        assert!(r.satisfies_fd_classical(&fd));
    }

    #[test]
    fn paper_null_semantics_ignores_null_tuples_in_condition_two() {
        let schema = RelationSchema::new("r", ["a", "b", "c"]);
        let mut r = Relation::new(schema);
        // Two tuples agree on a but disagree on b; one of them has a null c,
        // so it is exempt from condition (2).
        r.insert(Tuple::new(vec![
            Value::text("1"),
            Value::text("x"),
            Value::Null,
        ]));
        r.insert(Tuple::new(vec![
            Value::text("1"),
            Value::text("y"),
            Value::text("z"),
        ]));
        let fd = Fd::new(attrs(["a"]), attrs(["b"]));
        assert!(r.satisfies_fd_paper(&fd));
        assert!(!r.satisfies_fd_classical(&fd));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn insert_checks_arity() {
        let schema = RelationSchema::new("r", ["a", "b"]);
        let mut r = Relation::new(schema);
        r.insert(["only one"].into_iter().collect());
    }

    #[test]
    fn tuple_sql_eq_never_matches_nulls() {
        let plain: Tuple = ["1", "x"].into_iter().collect();
        let same: Tuple = ["1", "x"].into_iter().collect();
        let with_null = Tuple::new(vec![Value::text("1"), Value::Null]);
        assert!(plain.sql_eq(&same));
        assert!(!plain.sql_eq(&with_null));
        // A null-bearing tuple does not even match itself…
        assert!(!with_null.sql_eq(&with_null));
        // …although structural equality (duplicate detection) says it does.
        assert_eq!(with_null, with_null.clone());
        // Arity mismatch is simply unequal, not a panic.
        let short: Tuple = ["1"].into_iter().collect();
        assert!(!plain.sql_eq(&short));
    }

    #[test]
    fn distinct_collapses_null_rows_like_sql_distinct() {
        let schema = RelationSchema::new("r", ["a"]);
        let mut r = Relation::new(schema);
        r.insert(Tuple::new(vec![Value::Null]));
        r.insert(Tuple::new(vec![Value::Null]));
        // DISTINCT is structural: repeated NULL rows collapse even though
        // sql_eq would call them unequal.
        assert_eq!(r.distinct().len(), 1);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let r = chapter_relation();
        let mut dup = r.clone();
        dup.insert(["XML", "1", "Introduction"].into_iter().collect());
        assert_eq!(dup.len(), 4);
        assert_eq!(dup.distinct().len(), 3);
        assert_eq!(r.distinct().len(), 3);
    }

    #[test]
    fn table_rendering_contains_all_cells() {
        let r = chapter_relation();
        let s = r.to_table_string();
        assert!(s.contains("bookTitle"));
        assert!(s.contains("Getting Acquainted"));
        assert_eq!(s.lines().count(), 2 + r.len());
    }

    #[test]
    fn database_lookup() {
        let mut db = Database::new();
        assert!(db.is_empty());
        db.insert(chapter_relation());
        assert_eq!(db.len(), 1);
        assert!(db.get("Chapter").is_some());
        assert!(db.get("Missing").is_none());
        assert_eq!(db.relations().count(), 1);
    }
}
