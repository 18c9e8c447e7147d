//! `perfbench`: the xmlprop benchmark.
//!
//! ```text
//! perfbench --workload <serve-mix|bulk-load|edit-churn|design|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <runs.jsonl>]
//! ```
//!
//! Generates the workload's inputs from the seed, sets up (timed), runs a
//! closed loop for the given seconds, checks every output against an
//! independent path, and prints one JSON object as the last line of
//! standard output: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).  Human-readable notes precede it, prefixed `#`.
//! The full record (host block, per-op medians, input checksum) is also
//! appended as one JSON line to `--out` (default
//! `.bench_results/runs.jsonl`); `perfbench/compare.py` compares two such
//! files.  A failed correctness gate prints `"correct": false` and exits 1.
//! See `perfbench/NOTES.md` for the workloads and metrics.

#![forbid(unsafe_code)]

mod bulk_load;
mod common;
mod design;
mod edit_churn;
mod serve_mix;
mod trace;

use common::{median, percentile, Cfg, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: &[&str] = &["serve-mix", "bulk-load", "edit-churn", "design"];

/// End-to-end metrics: every workload reports every one.  `ops_per_s` and
/// `p50_geomean_ms` are printed and recorded with the per-op medians
/// instead: they follow the share of a run the host spends in its slow
/// phases (see NOTES.md, "Design choices").
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p90_geomean_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run (self times are p50 per op over the
/// ops that enter the layer; counts are p50 per op; 0 where the workload
/// never enters the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("server.wire_ms", "ms"),
    ("server.respond_ms", "ms"),
    ("server.render_ms", "ms"),
    ("server.bytes_in", "bytes"),
    ("server.bytes_out", "bytes"),
    ("server.errors", "count"),
    ("xmltree.tokenize_ms", "ms"),
    ("xmltree.tree_ms", "ms"),
    ("xmltree.index_ms", "ms"),
    ("xmltree.free_ms", "ms"),
    ("xmltree.nodes", "count"),
    ("xmltree.input_mb", "MB"),
    ("xmltree.apply_ms", "ms"),
    ("xmltree.index_delta_ms", "ms"),
    ("xmltree.index_delta_front_ms", "ms"),
    ("xmltree.index_delta_back_ms", "ms"),
    ("xmltree.renumbered", "count"),
    ("xmlkeys.validate_ms", "ms"),
    ("xmlkeys.violations", "count"),
    ("xmlkeys.stream_check_ms", "ms"),
    ("xmlkeys.incr_ms", "ms"),
    ("xmlkeys.peak_open", "count"),
    ("xmltransform.shred_ms", "ms"),
    ("xmltransform.tuples", "count"),
    ("xmltransform.stream_shred_ms", "ms"),
    ("xmltransform.incr_ms", "ms"),
    ("xmltransform.delta_tuples", "count"),
    ("pipeline.process_ms", "ms"),
    ("pipeline.apply_delta_ms", "ms"),
    ("pipeline.corpus_seq_ms", "ms"),
    ("pipeline.corpus_par_ms", "ms"),
    ("pipeline.fanout_efficiency", "ratio"),
    ("core.prepare_ms", "ms"),
    ("core.propagate_ms", "ms"),
    ("core.cover_ms", "ms"),
    ("core.refine_ms", "ms"),
    ("core.implication_calls", "count"),
    ("core.generated_fds", "count"),
    ("reldb.candidate_keys_ms", "ms"),
    ("reldb.bcnf_ms", "ms"),
    ("reldb.synth3nf_ms", "ms"),
    ("reldb.bcnf_fragments", "count"),
    ("query.parse_ms", "ms"),
    ("query.plan_ms", "ms"),
    ("query.exec_ms", "ms"),
    ("query.rows_out", "count"),
    ("query.key_lookups", "count"),
    ("trace.unaccounted_pct", "%"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let take = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = take("workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
        out: flags
            .get("out")
            .cloned()
            .unwrap_or_else(|| ".bench_results/runs.jsonl".into()),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-mix|bulk-load|edit-churn|design|all> \
                 --seed <n> --seconds <s> --trace <0|1> [--out <file>]"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let result = match args.workload.as_str() {
        "serve-mix" => serve_mix::run(&cfg),
        "bulk-load" => bulk_load::run(&cfg),
        "edit-churn" => edit_churn::run(&cfg),
        _ => design::run(&cfg),
    };
    let host = host_block();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {host}");
    match result {
        Ok(outcome) => report(&args, &host, outcome),
        Err(e) => {
            println!("# {e}");
            println!(r#"{{"correct": false, "attempted": 1, "failed": 1, "metrics": {{}}}}"#);
            ExitCode::from(1)
        }
    }
}

/// `--workload all`: runs every workload in its own child process (so each
/// reports its own peak RSS), passes their output through, and ends with
/// one JSON line holding every workload's metrics as `<workload>.<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find the benchmark executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args([
                "--trace",
                if args.trace { "1" } else { "0" },
                "--out",
                &args.out,
            ])
            .output();
        let stdout = match output {
            Ok(o) => {
                correct &= o.status.success();
                String::from_utf8_lossy(&o.stdout).into_owned()
            }
            Err(e) => {
                println!("# {workload}: could not run: {e}");
                correct = false;
                continue;
            }
        };
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        correct &= last.contains(r#""correct": true"#);
        attempted += json_count(last, "attempted");
        failed += json_count(last, "failed");
        for line in stdout.lines() {
            if let Some(rest) = line.strip_prefix("# metric ") {
                if let [name, "=", value, unit] = rest.split(' ').collect::<Vec<_>>()[..] {
                    let value: f64 = value.parse().unwrap_or(f64::NAN);
                    metrics.push((format!("{workload}.{name}"), value, unit.to_string()));
                }
            }
        }
    }
    let metrics_json = json_metrics(metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())));
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {failed}, "metrics": {metrics_json}}}"#,
        attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The whole number after `"key": ` in a result line (0 when absent).
fn json_count(line: &str, key: &str) -> u64 {
    line.split(&format!(r#""{key}": "#))
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn report(args: &Args, host: &str, outcome: Outcome) -> ExitCode {
    println!("# inputs checksum={:016x}", outcome.checksum);
    for (name, value) in &outcome.facts {
        println!("# input {name}={value}");
    }
    println!(
        "# setup: n={} min={:.6} s median={:.6} s max={:.6} s",
        outcome.setup_s.len(),
        percentile(&outcome.setup_s, 0.0),
        median(&outcome.setup_s),
        percentile(&outcome.setup_s, 100.0)
    );
    let mut kinds: Vec<&str> = outcome.ops.iter().map(|o| o.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut op_metrics = BTreeMap::new();
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    for kind in &kinds {
        let ms: Vec<f64> = outcome
            .ops
            .iter()
            .filter(|o| o.kind == *kind)
            .map(|o| o.ms)
            .collect();
        println!(
            "# op {kind}: n={} p50={:.4} ms p90={:.4} ms max={:.4} ms",
            ms.len(),
            median(&ms),
            percentile(&ms, 90.0),
            percentile(&ms, 100.0)
        );
        op_metrics.insert(format!("{kind}_ms"), (median(&ms), "ms"));
        p50s.push(median(&ms));
        p90s.push(percentile(&ms, 90.0));
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    op_metrics.insert("failed_ratio".into(), (failed_ratio, "fraction"));
    op_metrics.insert("ops_per_s".into(), (ops_per_s(&outcome), "ops/s"));
    op_metrics.insert("p50_geomean_ms".into(), (geomean(&p50s), "ms"));

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let tracer = outcome
            .tracer
            .as_ref()
            .expect("traced runs keep their spans");
        let summary = trace::summarize(tracer, &outcome.ops);
        for (kind, plain, layers, traced) in &summary.accounting {
            println!(
                "# trace {kind}: untraced p50={plain:.4} ms, layer self times sum={layers:.4} ms, \
                 unaccounted={:.4} ms ({:+.1}%), traced p50={traced:.4} ms (overhead {:+.1}%)",
                plain - layers,
                100.0 * (plain - layers) / plain,
                100.0 * (traced - plain) / plain
            );
        }
        for (name, unit) in PER_LAYER {
            let value = match *name {
                "trace.unaccounted_pct" => summary.unaccounted_pct,
                "trace.overhead_pct" => summary.overhead_pct,
                _ => summary.layer.get(*name).copied().unwrap_or(0.0),
            };
            metrics.push((name, value, unit));
        }
        for name in summary.layer.keys() {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                println!("# note: span metric {name} is not in the per-layer list");
            }
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match *name {
                "setup_s" => median(&outcome.setup_s),
                "p90_geomean_ms" => geomean(&p90s),
                _ => common::peak_rss_mib(),
            };
            metrics.push((name, value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("# metric {name} = {value} {unit}");
    }
    for (name, (value, unit)) in &op_metrics {
        println!("# op-metric {name} = {value} {unit}");
    }

    let metrics_json = json_metrics(metrics.iter().map(|(n, v, u)| (*n, *v, *u)));
    let record = format!(
        r#"{{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "host": {host}, "revision": "{}", "checksum": "{:016x}", "attempted": {}, "failed": {}, "metrics": {}, "op_metrics": {}}}"#,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        revision(),
        outcome.checksum,
        outcome.attempted,
        outcome.failed,
        metrics_json,
        json_metrics(op_metrics.iter().map(|(n, (v, u))| (n.as_str(), *v, *u))),
    );
    if let Err(e) = append_record(&args.out, &record) {
        println!("# could not append the run record to {}: {e}", args.out);
    }
    println!(
        r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {metrics_json}}}"#,
        outcome.attempted.max(1),
        outcome.failed
    );
    ExitCode::SUCCESS
}

/// Completed ops per second: over the wall time of the window when clients
/// run concurrently; for a single-client loop, over the sum of the ops'
/// timed latencies, which leaves the benchmark's own gate checks between
/// ops out of the figure.
fn ops_per_s(outcome: &Outcome) -> f64 {
    let n = outcome.ops.len() as f64;
    match outcome.wall_s {
        Some(wall) => n / wall,
        None => n / (outcome.ops.iter().map(|o| o.ms).sum::<f64>() / 1e3),
    }
}

/// Geometric mean, here over op kinds of one percentile of each kind's
/// latency: every kind weighs the same whatever its share of the mix, so
/// the figure is steady where a percentile of the mixed sample would sit
/// on a boundary between kinds.
fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn json_metrics<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.enumerate() {
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        )
        .expect("String write");
    }
    out.push('}');
    out
}

fn append_record(path: &str, record: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{record}")
}

/// The host block every record carries: `nproc`, the CPU model and the
/// compiler version.  Two result files are comparable only when it matches.
fn host_block() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    format!(
        r#"{{"nproc": {nproc}, "cpu": "{}", "rustc": "{}"}}"#,
        json_escape(&cpu),
        json_escape(&rustc)
    )
}

/// The git revision of the checkout, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
