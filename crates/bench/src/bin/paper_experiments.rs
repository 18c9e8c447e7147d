//! Regenerates the evaluation of Section 6 of the paper and prints the
//! series of Fig. 7(a)–(c) plus the in-text large-scale spot checks.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xmlprop-bench --bin paper_experiments            # all experiments
//! cargo run --release -p xmlprop-bench --bin paper_experiments -- fig7a   # one experiment
//! cargo run --release -p xmlprop-bench --bin paper_experiments -- quick   # reduced grids
//! ```
//!
//! Experiments: `fig7a`, `fig7b`, `fig7c`, `large` (the in-text
//! large-scale spot checks) and `prepared` (the prepared-engine ablation
//! comparing one-shot facades against prepared state).  An unknown name is
//! a usage error (exit 2).  The document, corpus, server, incremental and
//! query paths are measured by the repository benchmark in `perfbench/`.
//!
//! Results are printed as text tables, and the consolidated
//! `{bench, n, seconds}` rows of every run are written to
//! `target/paper_experiments/rows.json`; a full, non-`quick` run also
//! rewrites `BENCH_fig7.json` at the repository root with the same rows.

use std::fs;
use std::path::{Path, PathBuf};
use xmlprop_bench::{
    fig7a, fig7a_rows, fig7b, fig7c, large_scale, large_scale_rows, prepared_rows,
    prepared_speedups, propagation_rows, render_table, Fig7Row,
};

/// Where every run writes its rows, relative to the working directory.
const ROWS_PATH: &str = "target/paper_experiments/rows.json";

/// `BENCH_fig7.json` lives at the repository root (two levels above this
/// crate's manifest), independent of the working directory the binary was
/// started from, so successive PRs overwrite the same tracked file.
fn bench_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_fig7.json")
}

/// Renders rows as the JSON array `BENCH_fig7.json` holds: two-space
/// indent, one `{bench, n, seconds}` object per row, integral seconds
/// without a fraction.  Bench ids are ASCII identifiers, whose
/// Rust-escaped form is their JSON string.
fn rows_json(rows: &[Fig7Row]) -> String {
    if rows.is_empty() {
        return "[]".to_string();
    }
    let objects: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "  {{\n    \"bench\": {:?},\n    \"n\": {},\n    \"seconds\": {}\n  }}",
                row.bench,
                row.n,
                json_number(row.seconds)
            )
        })
        .collect();
    format!("[\n{}\n]", objects.join(",\n"))
}

/// A JSON number, integral values printed as integers.
fn json_number(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        x.to_string()
    }
}

/// Writes `json` plus a final newline to `path`, creating its directory.
fn write_rows(path: &Path, json: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), fs::create_dir_all)
        .and_then(|()| fs::write(path, format!("{json}\n")));
    match written {
        Ok(()) => println!("Rows written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_fig7a(quick: bool) -> Vec<Fig7Row> {
    println!("== Fig. 7(a): minimum-cover computation time vs. number of fields ==");
    println!("   (depth = 5, keys = 10; naive is the exponential baseline)\n");
    let fields: Vec<usize> = if quick {
        vec![5, 10, 15, 20, 40, 80]
    } else {
        vec![5, 10, 15, 20, 25, 50, 75, 100, 150, 200, 300, 400, 500]
    };
    // The naive baseline doubles its work with every added field (the paper
    // reports a ~200x blow-up per +5 fields); 15 fields already takes
    // seconds, so the sweep stops there.
    let naive_cutoff = 15;
    let points = fig7a(&fields, naive_cutoff);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.fields.to_string(),
                format!("{:.3}", p.minimum_cover_ms),
                p.cover_size.to_string(),
                p.naive_ms
                    .map(|ms| format!("{ms:.3}"))
                    .unwrap_or_else(|| "-".to_string()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["fields", "minimumCover (ms)", "cover size", "naive (ms)"],
            &rows
        )
    );
    fig7a_rows(&points)
}

fn run_fig7b(quick: bool) -> Vec<Fig7Row> {
    println!("== Fig. 7(b): effect of table-tree depth (fields = 15, keys = 10) ==\n");
    let depths: Vec<usize> = if quick {
        vec![2, 5, 10, 15]
    } else {
        vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20]
    };
    let points = fig7b(&depths);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.parameter.to_string(),
                format!("{:.3}", p.propagation_ms),
                format!("{:.3}", p.propagation_prepared_ms),
                format!("{:.3}", p.g_minimum_cover_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "depth",
                "propagation (ms)",
                "prepared (ms)",
                "GminimumCover (ms)"
            ],
            &rows
        )
    );
    propagation_rows("fig7b", &points)
}

fn run_fig7c(quick: bool) -> Vec<Fig7Row> {
    println!("== Fig. 7(c): effect of the number of XML keys (fields = 15, depth = 10) ==\n");
    let keys: Vec<usize> = if quick {
        vec![10, 25, 50]
    } else {
        vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    };
    let points = fig7c(&keys);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.parameter.to_string(),
                format!("{:.3}", p.propagation_ms),
                format!("{:.3}", p.propagation_prepared_ms),
                format!("{:.3}", p.g_minimum_cover_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "keys",
                "propagation (ms)",
                "prepared (ms)",
                "GminimumCover (ms)"
            ],
            &rows
        )
    );
    propagation_rows("fig7c", &points)
}

fn run_prepared(quick: bool) -> Vec<Fig7Row> {
    println!("== Prepared-engine ablation: one-shot facades vs. prepared state ==");
    println!("   (implication: 50/100-key Σ, repeated probes; batch: 10k candidate FDs)\n");
    let points = prepared_speedups(quick);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workload.to_string(),
                p.n.to_string(),
                format!("{:.3}", p.facade_ms),
                format!("{:.3}", p.prepared_ms),
                format!("{:.1}x", p.speedup()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["workload", "n", "facade (ms)", "prepared (ms)", "speedup"],
            &rows
        )
    );
    prepared_rows(&points)
}

fn run_large() -> Vec<Fig7Row> {
    println!("== Section 6 in-text large-scale spot checks ==\n");
    let points = large_scale();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.algorithm.to_string(),
                p.fields.to_string(),
                p.keys.to_string(),
                format!("{:.3}", p.elapsed_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["algorithm", "fields", "keys", "elapsed (ms)"], &rows)
    );
    large_scale_rows(&points)
}

/// The experiments this binary runs, in run order.
const EXPERIMENTS: [&str; 5] = ["fig7a", "fig7b", "fig7c", "large", "prepared"];

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Selection {
    /// Reduced grids (`quick`), as run by the CI smoke job.
    quick: bool,
    /// The experiments to run, in [`EXPERIMENTS`] order.
    experiments: Vec<&'static str>,
}

/// Parses the arguments: `quick` plus any experiment names; none named
/// means all.  An unknown name yields the usage line as the error.
fn parse_args(args: &[String]) -> Result<Selection, String> {
    let mut quick = false;
    let mut named = Vec::new();
    for arg in args {
        if arg == "quick" {
            quick = true;
        } else if EXPERIMENTS.contains(&arg.as_str()) {
            named.push(arg.as_str());
        } else {
            return Err(format!(
                "unknown experiment `{arg}`\nusage: paper_experiments [quick] [{}]...",
                EXPERIMENTS.join("|")
            ));
        }
    }
    Ok(Selection {
        quick,
        experiments: EXPERIMENTS
            .into_iter()
            .filter(|e| named.is_empty() || named.contains(e))
            .collect(),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selection = match parse_args(&args) {
        Ok(selection) => selection,
        Err(usage) => {
            eprintln!("error: {usage}");
            std::process::exit(2);
        }
    };
    let quick = selection.quick;

    let mut rows: Vec<Fig7Row> = Vec::new();
    for experiment in &selection.experiments {
        rows.extend(match *experiment {
            "fig7a" => run_fig7a(quick),
            "fig7b" => run_fig7b(quick),
            "fig7c" => run_fig7c(quick),
            "large" => run_large(),
            "prepared" => run_prepared(quick),
            other => unreachable!("`{other}` is not in EXPERIMENTS"),
        });
    }
    let json = rows_json(&rows);
    write_rows(Path::new(ROWS_PATH), &json);
    // The tracked file is only refreshed by a full run of every experiment:
    // a filtered invocation would silently drop the other experiments' rows
    // from the tracked record, and a `quick` run (what CI's bench-smoke
    // does) would truncate the full grids down to the reduced ones.
    if selection.experiments.len() == EXPERIMENTS.len() && !quick {
        write_rows(&bench_json_path(), &json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    fn row(bench: &str, n: usize, seconds: f64) -> Fig7Row {
        Fig7Row {
            bench: bench.to_string(),
            n,
            seconds,
        }
    }

    #[test]
    fn rows_render_in_the_tracked_layout() {
        let rows = [
            row("fig7a_minimum_cover", 5, 0.000126541),
            row("large_naive", 20, 2.0),
        ];
        assert_eq!(
            rows_json(&rows),
            r#"[
  {
    "bench": "fig7a_minimum_cover",
    "n": 5,
    "seconds": 0.000126541
  },
  {
    "bench": "large_naive",
    "n": 20,
    "seconds": 2
  }
]"#
        );
        assert_eq!(rows_json(&[]), "[]");
    }

    /// Re-rendering the committed `BENCH_fig7.json` from its own rows
    /// reproduces it byte for byte.
    #[test]
    fn the_committed_rows_file_round_trips() {
        let committed = fs::read_to_string(bench_json_path()).expect("BENCH_fig7.json");
        let mut rows = Vec::new();
        let (mut bench, mut n) = (String::new(), 0);
        for line in committed.lines().map(str::trim) {
            let field = |name: &str| {
                line.strip_prefix(&format!("\"{name}\": "))
                    .map(|v| v.trim_end_matches(','))
            };
            if let Some(v) = field("bench") {
                bench = v.trim_matches('"').to_string();
            } else if let Some(v) = field("n") {
                n = v.parse().expect("integral n");
            } else if let Some(v) = field("seconds") {
                rows.push(row(&bench, n, v.parse().expect("numeric seconds")));
            }
        }
        assert!(!rows.is_empty());
        assert_eq!(rows_json(&rows) + "\n", committed);
    }

    #[test]
    fn no_names_selects_every_experiment() {
        let selection = parse_args(&args(&["quick"])).unwrap();
        assert!(selection.quick);
        assert_eq!(selection.experiments, EXPERIMENTS);
    }

    #[test]
    fn named_experiments_run_in_canonical_order() {
        let selection = parse_args(&args(&["prepared", "fig7a"])).unwrap();
        assert!(!selection.quick);
        assert_eq!(selection.experiments, ["fig7a", "prepared"]);
    }

    #[test]
    fn unknown_names_are_usage_errors() {
        for name in ["fig7d", "docs", "serve"] {
            let usage = parse_args(&args(&["quick", name])).unwrap_err();
            assert!(usage.contains(&format!("`{name}`")), "{usage}");
            assert!(
                usage.contains("fig7a|fig7b|fig7c|large|prepared"),
                "{usage}"
            );
        }
    }
}
