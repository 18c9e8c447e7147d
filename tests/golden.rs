//! Golden-file conformance tests: the paper's Fig. 1 document and the
//! book keys/rules fixtures, end to end (shred → validate → propagate →
//! minimum cover → refinement → query), against the committed expected
//! outputs under `examples/data/expected/`.
//!
//! These pin the *user-visible* behavior of the whole stack: a refactor of
//! any layer (parser, path evaluator, shred plans, key index, propagation
//! engine, SQL emitter) that silently drifts from the paper's worked
//! example fails here with a readable diff.  Regenerate an expected file
//! only when the change in output is intended, by re-running the CLI
//! command named in each test.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xmlprop-cli"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to launch xmlprop-cli")
}

fn expected(name: &str) -> String {
    let path = format!(
        "{}/examples/data/expected/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Asserts a CLI invocation succeeds and reproduces an expected file
/// byte for byte.
fn assert_golden(args: &[&str], file: &str) {
    let out = run(args);
    assert!(
        out.status.success(),
        "`xmlprop-cli {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("CLI output is UTF-8");
    assert_eq!(
        stdout,
        expected(file),
        "`xmlprop-cli {}` drifted from examples/data/expected/{file}",
        args.join(" ")
    );
}

/// `validate` and `shred` run the streaming front end.  The DOM path that
/// the server renders from stays pinned to the same bytes by
/// `corpus_pipeline_agrees_with_the_golden_fixtures` below and by the
/// stream == DOM unit tests of the renderers.
#[test]
fn fig1_validation_matches_golden() {
    assert_golden(
        &[
            "validate",
            "examples/data/fig1.xml",
            "examples/data/book_keys.txt",
        ],
        "fig1_validate.txt",
    );
}

#[test]
fn fig1_shred_matches_golden() {
    assert_golden(
        &[
            "shred",
            "examples/data/fig1.xml",
            "examples/data/book_rules.txt",
        ],
        "fig1_shred.txt",
    );
}

#[test]
fn example_3_1_cover_matches_golden() {
    assert_golden(
        &[
            "cover",
            "examples/data/book_keys.txt",
            "examples/data/book_rules.txt",
            "U",
        ],
        "cover_U.txt",
    );
}

#[test]
fn example_4_2_propagation_matches_golden() {
    assert_golden(
        &[
            "propagate",
            "examples/data/book_keys.txt",
            "examples/data/book_rules.txt",
            "chapter",
            "inBook, number -> name",
        ],
        "propagate_chapter.txt",
    );
}

#[test]
fn refinement_sql_matches_golden() {
    assert_golden(
        &[
            "refine",
            "examples/data/book_keys.txt",
            "examples/data/book_rules.txt",
            "U",
        ],
        "refine_U.sql",
    );
}

/// The query layer over the Fig. 1 shred: plan line plus result table,
/// byte for byte.  Four plans are pinned: a filtered scan, the unique-key
/// join (`[key lookup]` — chapter is keyed on `inBook, number` by the
/// propagated cover), a non-key nested-loop join (`[scan]`), and a star
/// projection whose kept attributes determine the tuple (`[unique]`, the
/// dedup pass elided).
#[test]
fn fig1_queries_match_goldens() {
    let fixtures = [
        "query",
        "examples/data/fig1.xml",
        "examples/data/book_keys.txt",
        "examples/data/book_rules.txt",
    ];
    let cases = [
        (
            "select chapter.name from chapter where inBook = '123'",
            "query_chapter.txt",
        ),
        (
            "select U.chapName, chapter.name from U join chapter on bookIsbn = inBook and chapNum = number",
            "query_join_keyed.txt",
        ),
        (
            "select title, name from book join chapter on isbn = inBook",
            "query_join_scan.txt",
        ),
        ("select * from chapter", "query_star_unique.txt"),
    ];
    for (query, file) in cases {
        let mut args = fixtures.to_vec();
        args.push(query);
        assert_golden(&args, file);
    }
}

/// The keyed golden really is keyed and the scan golden really is not:
/// the committed plan lines name the join strategy the optimizer chose.
#[test]
fn query_goldens_pin_the_join_strategy() {
    let keyed = expected("query_join_keyed.txt");
    assert!(
        keyed.lines().next().unwrap_or("").contains("[key lookup]"),
        "keyed golden lost its hash-lookup plan: {keyed}"
    );
    let scan = expected("query_join_scan.txt");
    assert!(
        scan.lines().next().unwrap_or("").contains("[scan]"),
        "scan golden gained a key it should not have: {scan}"
    );
    let star = expected("query_star_unique.txt");
    assert!(
        star.lines().next().unwrap_or("").contains("[unique]"),
        "star golden lost its dedup elision: {star}"
    );
}

/// The same fixtures through the corpus pipeline (rather than the one-shot
/// CLI paths): one prepared bundle, the Fig. 1 document as a corpus of one,
/// checked against the same expected shred output and a clean validation.
#[test]
fn corpus_pipeline_agrees_with_the_golden_fixtures() {
    use xmlprop::pipeline::{CorpusBundle, CorpusOptions};
    use xmlprop::prelude::*;

    let root = env!("CARGO_MANIFEST_DIR");
    let doc = Document::parse_str(
        &std::fs::read_to_string(format!("{root}/examples/data/fig1.xml")).unwrap(),
    )
    .unwrap();
    let mut keys = KeySet::new();
    for line in std::fs::read_to_string(format!("{root}/examples/data/book_keys.txt"))
        .unwrap()
        .lines()
    {
        let line = line.split('#').next().unwrap_or("").trim();
        if !line.is_empty() {
            keys.add(XmlKey::parse(line).unwrap());
        }
    }
    let rules = Transformation::parse(
        &std::fs::read_to_string(format!("{root}/examples/data/book_rules.txt")).unwrap(),
    )
    .unwrap();

    let bundle = CorpusBundle::prepare(keys, rules);
    let result = bundle.run(std::slice::from_ref(&doc), &CorpusOptions::default());
    assert_eq!(result.stats.documents, 1);
    assert_eq!(result.stats.violations, 0, "Fig. 1 satisfies Example 2.1");

    // The pipeline's shredded database prints exactly the golden shred.
    let printed: String = result.documents[0]
        .database
        .relations()
        .map(|r| format!("{r}\n"))
        .collect();
    assert_eq!(printed, expected("fig1_shred.txt"));

    // The pipeline's per-rule covers include the Example 3.1 cover of U.
    let u_cover = result
        .covers
        .iter()
        .find(|c| c.relation == "U")
        .expect("U is a rule of the fixtures");
    let printed: String = u_cover.cover.iter().map(|fd| format!("{fd}\n")).collect();
    assert_eq!(printed, expected("cover_U.txt"));
}
