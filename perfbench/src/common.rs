//! Shared plumbing: run configuration, seeded RNG streams, input
//! checksums, the closed-loop timer, statistics and process facts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use xmlprop_workload::{generate, Workload, WorkloadConfig};

use crate::trace::Tracer;

/// What one invocation of a workload was asked to do.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// The workload seed; every generated input derives from it.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

impl Cfg {
    /// An independent RNG stream for one purpose (`stream` names it), so
    /// adding draws to one stream never shifts another.
    pub fn rng(&self, stream: &str) -> StdRng {
        StdRng::seed_from_u64(self.sub_seed(stream))
    }

    /// A derived 64-bit seed for one purpose.
    pub fn sub_seed(&self, stream: &str) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.seed);
        h.str(stream);
        h.finish()
    }

    /// How long the closed loop runs: the measured window, or three times
    /// it in the traced run, which runs every op twice and needs enough
    /// samples of each op kind for the layer medians to add up.
    pub fn window(&self) -> f64 {
        if self.trace {
            3.0 * self.seconds
        } else {
            self.seconds
        }
    }

    /// The passes each op makes: untraced only, or (traced run) untraced and
    /// then traced on the same input, so that both see the same state of the
    /// host.
    pub fn passes(&self) -> &'static [bool] {
        if self.trace {
            &[false, true]
        } else {
            &[false]
        }
    }
}

/// A generated schema with the generator's default seed.  Workloads draw
/// documents, edits, probes and mixes from the run's seed, but not their
/// schemas: a seeded schema moves fields between attributes and elements,
/// which changed document size and every figure by 10-20% from seed to
/// seed, and changed one 11-field `refine` from 0.5 s to 5 s.
pub fn fixed_schema(fields: usize, depth: usize, keys: usize) -> Workload {
    generate(&WorkloadConfig::new(fields, depth, keys))
}

/// FNV-1a, for input checksums (stable across runs and platforms).
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One completed, untraced operation (failed ops are only counted).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// The operation kind; its median is reported as `<kind>_ms`.
    pub kind: &'static str,
    /// Latency in milliseconds.
    pub ms: f64,
}

/// Everything a workload hands back to the reporter.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up times (seconds), one per repetition.
    pub setup_s: Vec<f64>,
    /// Untraced operations, in completion order.
    pub ops: Vec<Op>,
    /// Wall time of the measured window, for a workload whose clients run
    /// concurrently (`ops_per_s` divides by it); `None` for a single-client
    /// loop, whose `ops_per_s` divides by the sum of its ops' latencies.
    pub wall_s: Option<f64>,
    /// Operations attempted (untraced and traced).
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Checksum of the generated inputs.
    pub checksum: u64,
    /// Input sizes and other facts, printed as notes.
    pub facts: Vec<(String, String)>,
    /// The traced phase's spans (traced run only).
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }
}

/// Runs `round(i)` for i = 0, 1, … until `seconds` have passed and at
/// least `min_rounds` rounds completed; returns the elapsed seconds.
/// Rounds always complete, so a run measures whole rounds of a workload's
/// fixed op mix.  A round returns the seconds it spent outside its
/// measured ops (set-up repetitions, slow gate checks), which do not count
/// against the window.
pub fn closed_loop(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<f64, String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut rounds = 0;
    let mut excluded = 0.0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() - excluded < seconds {
        excluded += round(rounds)?;
        rounds += 1;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Times a closure in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Median of a sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of a sample (NaN when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Fails a correctness gate with a message naming what disagreed.
pub fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness gate failed: {}", what()))
    }
}
