//! Experiment harness reproducing the evaluation of Section 6 (Fig. 7).
//!
//! Each figure of the paper's evaluation corresponds to one function here
//! returning a series of measured points; the `paper_experiments` binary
//! prints them as text tables and writes machine-readable JSON.
//!
//! The absolute numbers will differ from the paper's 2003 hardware; what is
//! being reproduced is the *shape* of each curve:
//!
//! * Fig. 7(a): `minimumCover` grows polynomially with the number of fields
//!   while `naive` explodes exponentially (≈200× per +5 fields);
//! * Fig. 7(b): both `propagation` and `GminimumCover` are insensitive to
//!   the table-tree depth, and `propagation` is much faster;
//! * Fig. 7(c): `propagation` grows roughly linearly with the number of
//!   keys, `GminimumCover` faster.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};
use xmlprop_core::{
    minimum_cover, naive_minimum_cover, propagation, GMinimumCover, PropagationEngine,
};
use xmlprop_reldb::Fd;
use xmlprop_workload::{generate, target_fd, Workload, WorkloadConfig};

/// Milliseconds with fractional precision, for compact reporting.
fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times a closure, returning (elapsed ms, result).
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (millis(start.elapsed()), out)
}

/// Default depth used by the Fig. 7(a) sweep (the paper fixes depth and keys
/// while varying the number of fields; exact values are not printed, so we
/// use the Fig. 7(b)/(c) defaults: depth 5, keys 10).
const FIG7A_DEPTH: usize = 5;
/// Default key count for Fig. 7(a).
const FIG7A_KEYS: usize = 10;
/// Fields default of Fig. 7(b) as stated in the paper.
const FIG7B_FIELDS: usize = 15;
/// Number of keys used in Fig. 7(b) as stated in the paper.
const FIG7B_KEYS: usize = 10;
/// Fields default of Fig. 7(c).
const FIG7C_FIELDS: usize = 15;
/// Table-tree depth used in Fig. 7(c) (the paper states depth = 10).
const FIG7C_DEPTH: usize = 10;

/// One measured point of Fig. 7(a).
#[derive(Debug, Clone)]
pub struct Fig7aPoint {
    /// Number of universal-relation fields.
    pub fields: usize,
    /// Time to compute the minimum cover with the polynomial algorithm (ms).
    pub minimum_cover_ms: f64,
    /// Size of the produced cover.
    pub cover_size: usize,
    /// Time of the exponential `naive` algorithm (ms), only measured while
    /// it stays tractable (`None` beyond the cut-off).
    pub naive_ms: Option<f64>,
}

/// Runs the Fig. 7(a) sweep: minimum-cover time vs. number of fields.
/// `naive_max_fields` bounds the exponential baseline (the paper itself only
/// reports `naive` on small inputs, noting a ~200× blow-up per +5 fields).
pub fn fig7a(field_counts: &[usize], naive_max_fields: usize) -> Vec<Fig7aPoint> {
    field_counts
        .iter()
        .map(|&fields| {
            let w = generate(&WorkloadConfig::new(
                fields,
                FIG7A_DEPTH.min(fields),
                FIG7A_KEYS,
            ));
            let (minimum_cover_ms, cover) = time(|| minimum_cover(&w.sigma, &w.universal));
            let naive_ms = (fields <= naive_max_fields)
                .then(|| time(|| naive_minimum_cover(&w.sigma, &w.universal)).0);
            Fig7aPoint {
                fields,
                minimum_cover_ms,
                cover_size: cover.len(),
                naive_ms,
            }
        })
        .collect()
}

/// One measured point of Fig. 7(b) / Fig. 7(c): the propagation-checking
/// algorithms on the same probe FDs.
#[derive(Debug, Clone)]
pub struct PropagationPoint {
    /// The varied parameter (depth for Fig. 7(b), keys for Fig. 7(c)).
    pub parameter: usize,
    /// Time of Algorithm `propagation` through the one-shot facade (ms)
    /// over the probe set — each call re-prepares the `(Σ, rule)` pair.
    pub propagation_ms: f64,
    /// Time of the same probe set against a prepared
    /// [`PropagationEngine`] (ms); the engine is built once outside the
    /// timed region, the measured cost is pure query time.
    pub propagation_prepared_ms: f64,
    /// Time of `GminimumCover` (ms) for the same probes, including the
    /// minimum-cover computation it performs.
    pub g_minimum_cover_ms: f64,
    /// Whether the representative probe FD was reported propagated (sanity:
    /// all algorithms must agree).
    pub probe_propagated: bool,
}

/// Builds the probe FDs used by the propagation experiments: the positive
/// chain FD plus `extra` random ones.
fn probe_fds(workload: &Workload, extra: usize) -> Vec<Fd> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(workload.config.seed ^ 0xfd);
    let mut probes = vec![target_fd(workload)];
    for i in 0..extra {
        probes.push(xmlprop_workload::random_fd(workload, &mut rng, 1 + i % 3));
    }
    probes
}

fn propagation_point(parameter: usize, w: &Workload) -> PropagationPoint {
    let probes = probe_fds(w, 4);
    let (propagation_ms, results) = time(|| {
        probes
            .iter()
            .map(|fd| propagation(&w.sigma, &w.universal, fd))
            .collect::<Vec<_>>()
    });
    let engine = PropagationEngine::new(&w.sigma, &w.universal);
    let (propagation_prepared_ms, prepared_results) = time(|| engine.propagate_all(&probes));
    let (g_minimum_cover_ms, g_results) = time(|| {
        let checker = GMinimumCover::new(w.sigma.clone(), w.universal.clone());
        probes
            .iter()
            .map(|fd| checker.check(fd))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        results, prepared_results,
        "facade and prepared engine disagree on {probes:?}"
    );
    assert_eq!(
        results, g_results,
        "propagation and GminimumCover disagree on {probes:?}"
    );
    PropagationPoint {
        parameter,
        propagation_ms,
        propagation_prepared_ms,
        g_minimum_cover_ms,
        probe_propagated: results[0],
    }
}

/// Fig. 7(b): effect of table-tree depth (fields = 15, keys = 10).
pub fn fig7b(depths: &[usize]) -> Vec<PropagationPoint> {
    depths
        .iter()
        .map(|&depth| {
            let fields = FIG7B_FIELDS.max(depth);
            let w = generate(&WorkloadConfig::new(fields, depth, FIG7B_KEYS));
            propagation_point(depth, &w)
        })
        .collect()
}

/// Fig. 7(c): effect of the number of XML keys (fields = 15, depth = 10).
pub fn fig7c(key_counts: &[usize]) -> Vec<PropagationPoint> {
    key_counts
        .iter()
        .map(|&keys| {
            let w = generate(&WorkloadConfig::new(FIG7C_FIELDS, FIG7C_DEPTH, keys));
            propagation_point(keys, &w)
        })
        .collect()
}

/// One of the in-text large-scale spot checks of Section 6.
#[derive(Debug, Clone)]
pub struct LargeScalePoint {
    /// Which algorithm was measured.
    pub algorithm: &'static str,
    /// Number of fields.
    pub fields: usize,
    /// Number of keys.
    pub keys: usize,
    /// Elapsed time in milliseconds.
    pub elapsed_ms: f64,
}

/// The in-text measurements of Section 6: `GminimumCover` at (200 fields,
/// 50 keys) and (150, 100), and `propagation` at 1000 fields (the Oracle
/// column limit) with 50 and 100 keys.
pub fn large_scale() -> Vec<LargeScalePoint> {
    let mut out = Vec::new();
    for (fields, keys) in [(200usize, 50usize), (150, 100)] {
        let w = generate(&WorkloadConfig::new(fields, 10, keys));
        let probe = target_fd(&w);
        let (elapsed_ms, _) = time(|| {
            let checker = GMinimumCover::new(w.sigma.clone(), w.universal.clone());
            checker.check(&probe)
        });
        out.push(LargeScalePoint {
            algorithm: "GminimumCover",
            fields,
            keys,
            elapsed_ms,
        });
    }
    for keys in [50usize, 100] {
        let w = generate(&WorkloadConfig::new(1000, 10, keys));
        let probe = target_fd(&w);
        let (elapsed_ms, _) = time(|| propagation(&w.sigma, &w.universal, &probe));
        out.push(LargeScalePoint {
            algorithm: "propagation",
            fields: 1000,
            keys,
            elapsed_ms,
        });
    }
    out
}

/// One measured point of the prepared-engine ablation: the same query
/// workload answered through the one-shot facades (which re-prepare Σ and
/// the rule per call) and through prepared state built once.
#[derive(Debug, Clone)]
pub struct PreparedPoint {
    /// Which workload was measured (`implication` or `batch_propagation`).
    pub workload: &'static str,
    /// The scale parameter: number of keys for `implication`, number of
    /// candidate FDs for `batch_propagation`.
    pub n: usize,
    /// Facade time (ms) for the whole query set.
    pub facade_ms: f64,
    /// Prepared time (ms) for the same query set, *including* the one-time
    /// preparation.
    pub prepared_ms: f64,
}

impl PreparedPoint {
    /// Facade-over-prepared speedup.
    pub fn speedup(&self) -> f64 {
        self.facade_ms / self.prepared_ms.max(f64::MIN_POSITIVE)
    }
}

/// A representative implication probe for a chain workload of the given
/// depth: is the deepest entity level keyed (relative to the level above)
/// by its id?  The probe of the prepared-engine ablation.
fn implication_probe(depth: usize) -> xmlprop_xmlkeys::XmlKey {
    use xmlprop_xmlpath::PathExpr;
    let mut context = PathExpr::epsilon().descendant("e0");
    for level in 1..depth.saturating_sub(1) {
        context = context.child(format!("e{level}"));
    }
    xmlprop_xmlkeys::XmlKey::new(
        context,
        PathExpr::label(format!("e{}", depth - 1)),
        [format!("@id{}", depth - 1)],
    )
}

/// The prepared-engine ablation behind the `prepared` experiment:
///
/// * **implication** — a large Σ (50/100 keys), the same probe key asked
///   2 000 times through [`xmlprop_xmlkeys::implies`] (which rebuilds the
///   [`xmlprop_xmlkeys::KeyIndex`] per call) versus one prepared index;
/// * **batch_propagation** — a 10 000-FD candidate grid over a deep
///   large-Σ workload through the [`propagation`] facade (one engine per
///   call) versus one [`PropagationEngine::propagate_all`].
///
/// `quick` shrinks the grids for the CI smoke run.  Both variants must
/// return identical verdicts; the function asserts it.
pub fn prepared_speedups(quick: bool) -> Vec<PreparedPoint> {
    use rand::SeedableRng;
    let mut out = Vec::new();

    let implication_reps = if quick { 200usize } else { 2_000 };
    let key_counts: &[usize] = if quick { &[50] } else { &[50, 100] };
    for &keys in key_counts {
        let w = generate(&WorkloadConfig::new(20, 5, keys));
        let probe = implication_probe(5);
        let (facade_ms, facade_verdict) = time(|| {
            (0..implication_reps).fold(false, |_, _| xmlprop_xmlkeys::implies(&w.sigma, &probe))
        });
        let (prepared_ms, prepared_verdict) = time(|| {
            let mut index = w.sigma.prepare();
            let prepared = index.prepare(&probe);
            (0..implication_reps).fold(false, |_, _| index.implies(&prepared))
        });
        assert_eq!(facade_verdict, prepared_verdict, "implication disagreement");
        out.push(PreparedPoint {
            workload: "implication",
            n: keys,
            facade_ms,
            prepared_ms,
        });
    }

    let n_fds = if quick { 1_000usize } else { 10_000 };
    let w = generate(&WorkloadConfig::new(15, 10, 100));
    let mut rng = rand::rngs::StdRng::seed_from_u64(w.config.seed ^ 0xba7c4);
    let mut probes = vec![target_fd(&w)];
    for i in 0..n_fds - 1 {
        probes.push(xmlprop_workload::random_fd(&w, &mut rng, 1 + i % 3));
    }
    let (facade_ms, facade_verdicts) = time(|| {
        probes
            .iter()
            .map(|fd| propagation(&w.sigma, &w.universal, fd))
            .collect::<Vec<_>>()
    });
    let (prepared_ms, prepared_verdicts) =
        time(|| PropagationEngine::new(&w.sigma, &w.universal).propagate_all(&probes));
    assert_eq!(
        facade_verdicts, prepared_verdicts,
        "batch propagation disagreement"
    );
    out.push(PreparedPoint {
        workload: "batch_propagation",
        n: n_fds,
        facade_ms,
        prepared_ms,
    });

    out
}

/// Consolidates prepared-ablation points into two [`Fig7Row`]s per point
/// (`<workload>_facade` and `<workload>_prepared`).
pub fn prepared_rows(points: &[PreparedPoint]) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for p in points {
        rows.push(Fig7Row::new(
            &format!("{}_facade", p.workload),
            p.n,
            p.facade_ms,
        ));
        rows.push(Fig7Row::new(
            &format!("{}_prepared", p.workload),
            p.n,
            p.prepared_ms,
        ));
    }
    rows
}

/// One consolidated benchmark row, as archived in `BENCH_fig7.json` at the
/// repository root so the performance trajectory is comparable across PRs.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    /// Benchmark identifier, e.g. `fig7a_minimum_cover`.
    pub bench: String,
    /// The varied parameter (fields, depth or keys, per figure).
    pub n: usize,
    /// Elapsed wall-clock time in seconds.
    pub seconds: f64,
}

impl Fig7Row {
    fn new(bench: &str, n: usize, ms: f64) -> Self {
        Fig7Row {
            bench: bench.to_string(),
            n,
            seconds: ms / 1e3,
        }
    }
}

/// Consolidates Fig. 7(a) points into [`Fig7Row`]s (the exponential `naive`
/// baseline contributes rows only where it was measured).
pub fn fig7a_rows(points: &[Fig7aPoint]) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for p in points {
        rows.push(Fig7Row::new(
            "fig7a_minimum_cover",
            p.fields,
            p.minimum_cover_ms,
        ));
        if let Some(naive_ms) = p.naive_ms {
            rows.push(Fig7Row::new("fig7a_naive", p.fields, naive_ms));
        }
    }
    rows
}

/// Consolidates Fig. 7(b)/(c) points into [`Fig7Row`]s, three per point
/// (`<figure>_propagation`, `<figure>_propagation_prepared` and
/// `<figure>_gminimumcover`).
pub fn propagation_rows(figure: &str, points: &[PropagationPoint]) -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for p in points {
        rows.push(Fig7Row::new(
            &format!("{figure}_propagation"),
            p.parameter,
            p.propagation_ms,
        ));
        rows.push(Fig7Row::new(
            &format!("{figure}_propagation_prepared"),
            p.parameter,
            p.propagation_prepared_ms,
        ));
        rows.push(Fig7Row::new(
            &format!("{figure}_gminimumcover"),
            p.parameter,
            p.g_minimum_cover_ms,
        ));
    }
    rows
}

/// Consolidates the in-text large-scale spot checks into [`Fig7Row`]s,
/// keyed by algorithm and field count, with `n` the key count.
pub fn large_scale_rows(points: &[LargeScalePoint]) -> Vec<Fig7Row> {
    points
        .iter()
        .map(|p| {
            Fig7Row::new(
                &format!("large_{}_{}f", p.algorithm.to_lowercase(), p.fields),
                p.keys,
                p.elapsed_ms,
            )
        })
        .collect()
}

/// Renders a series of labelled rows as an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    let header_line = fmt_row(&header_cells);
    let mut out = header_line.clone();
    out.push('\n');
    out.push_str(&"-".repeat(header_line.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_small_sweep_runs() {
        let points = fig7a(&[6, 8, 10], 8);
        assert_eq!(points.len(), 3);
        assert!(points[0].naive_ms.is_some());
        assert!(points[2].naive_ms.is_none());
        assert!(points.iter().all(|p| p.minimum_cover_ms >= 0.0));
    }

    #[test]
    fn fig7b_and_7c_agreement_holds() {
        // propagation_point asserts that the two algorithms agree on every
        // probe; running a couple of points is the test.
        let b = fig7b(&[2, 4]);
        assert_eq!(b.len(), 2);
        let c = fig7c(&[4, 8]);
        assert_eq!(c.len(), 2);
        assert!(b[0].probe_propagated);
        assert!(c[0].probe_propagated);
    }

    #[test]
    fn consolidated_rows_cover_every_measurement() {
        let a = fig7a(&[6, 8], 6);
        let rows = fig7a_rows(&a);
        // One minimum-cover row per point, one naive row for fields <= 6.
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.seconds >= 0.0));
        assert_eq!(rows[0].bench, "fig7a_minimum_cover");
        assert_eq!(rows[0].n, 6);
        assert_eq!(rows[1].bench, "fig7a_naive");

        let b = fig7b(&[2]);
        let rows = propagation_rows("fig7b", &b);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].bench, "fig7b_propagation");
        assert_eq!(rows[1].bench, "fig7b_propagation_prepared");
        assert_eq!(rows[2].bench, "fig7b_gminimumcover");
        assert_eq!(rows[0].n, 2);

        let rows = large_scale_rows(&[LargeScalePoint {
            algorithm: "propagation",
            fields: 1000,
            keys: 50,
            elapsed_ms: 12.0,
        }]);
        assert_eq!(rows[0].bench, "large_propagation_1000f");
        assert_eq!(rows[0].n, 50);
        assert!((rows[0].seconds - 0.012).abs() < 1e-12);
    }

    #[test]
    fn prepared_ablation_runs_and_rows_cover_it() {
        // The quick grids: one implication point plus the batch point; the
        // function itself asserts facade/prepared agreement.
        let points = prepared_speedups(true);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].workload, "implication");
        assert_eq!(points[1].workload, "batch_propagation");
        assert_eq!(points[1].n, 1_000);
        assert!(points.iter().all(|p| p.speedup() > 0.0));
        let rows = prepared_rows(&points);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].bench, "implication_facade");
        assert_eq!(rows[1].bench, "implication_prepared");
        assert_eq!(rows[2].bench, "batch_propagation_facade");
        assert_eq!(rows[3].bench, "batch_propagation_prepared");
    }

    #[test]
    fn table_rendering_is_aligned() {
        let table = render_table(
            &["fields", "ms"],
            &[
                vec!["5".into(), "0.1".into()],
                vec!["500".into(), "123.4".into()],
            ],
        );
        assert!(table.contains("fields"));
        assert_eq!(table.lines().count(), 4);
    }
}
