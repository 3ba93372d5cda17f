//! Shared pieces: run configuration, the outcome a workload returns,
//! the seeded generator, order statistics, memory and set-up timing.

use crate::trace::Tracer;
use cross_ckks::Ciphertext;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// What a workload reports: op counts, the correctness verdict and
/// named metric values (see `metrics.rs` for names and units).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Seconds of each timed set-up stage of one construction. `setup_s`
/// is their sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub context: f64,
    pub keygen: f64,
    pub plan: f64,
    pub encrypt: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.context + self.keygen + self.plan + self.encrypt
    }
}

/// The timed set-up constructions of one run.
///
/// Set-ups here take 15–90 ms, and a stretch of the run in one of the
/// host's slow phases makes them 20–50 % slower; the median of
/// back-to-back constructions lands on whichever phase the run started
/// in. So a run times constructions spread over its whole window and
/// reports the fastest, the set-up time without interference.
#[derive(Default)]
pub struct SetupSamples(Vec<SetupTimes>);

impl SetupSamples {
    pub fn push(&mut self, t: SetupTimes) {
        self.0.push(t);
    }

    /// Sets `setup_s`, the fastest construction's total, and the
    /// per-stage `setup.*_s`, each the fastest time of its stage.
    pub fn report(&self, out: &mut Outcome) {
        let min = |f: fn(&SetupTimes) -> f64| self.0.iter().map(f).fold(f64::INFINITY, f64::min);
        out.set("setup_s", min(SetupTimes::total));
        out.set("setup.context_s", min(|t| t.context));
        out.set("setup.keygen_s", min(|t| t.keygen));
        out.set("setup.plan_s", min(|t| t.plan));
        out.set("setup.encrypt_s", min(|t| t.encrypt));
    }
}

/// Builds the fixture `repeats` times, timing each build, and keeps the
/// last one. Each build is dropped before the next starts. The traced
/// run takes its set-up samples this way; the untraced run spreads them
/// over its window (see [`window`]).
pub fn repeated_setup<T>(
    samples: &mut SetupSamples,
    tracer: &Tracer,
    repeats: usize,
    mut build: impl FnMut(&Tracer, u64) -> (T, SetupTimes),
) -> T {
    tracer.set_phase("setup");
    let mut kept = None;
    for rep in 0..repeats {
        drop(kept.take());
        let (fixture, t) = build(tracer, rep as u64);
        samples.push(t);
        kept = Some(fixture);
    }
    kept.expect("at least one set-up repeat")
}

/// The untraced timed window: stretches of ops, `block(block_s,
/// first_id)`, until `seconds` of op time have passed, with one set-up
/// construction, `setup(rep)` (built, timed and dropped), after each
/// stretch. The constructions sample the host's phases across the whole
/// run; their time is not op time.
pub fn window(
    seconds: f64,
    block_s: f64,
    samples: &mut SetupSamples,
    mut block: impl FnMut(f64, u64) -> LoopStats,
    mut setup: impl FnMut(u64) -> SetupTimes,
) -> LoopStats {
    let mut total = LoopStats::default();
    let mut rep = 1;
    while total.elapsed_s < seconds {
        let s = block(block_s, total.attempted);
        total.attempted += s.attempted;
        total.failed += s.failed;
        total.elapsed_s += s.elapsed_s;
        total.latencies_s.extend(s.latencies_s);
        samples.push(setup(rep));
        rep += 1;
    }
    total
}

/// SplitMix64: every input the workloads use derives from `--seed`
/// through this generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// A message of `len` slots uniform in `[lo, hi)`.
    pub fn message(&mut self, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..len).map(|_| self.uniform(lo, hi)).collect()
    }
}

/// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation between the
/// closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Bit-for-bit ciphertext equality (limbs, level and scale bits).
pub fn ct_identical(a: &Ciphertext, b: &Ciphertext) -> bool {
    a.level == b.level
        && a.scale.to_bits() == b.scale.to_bits()
        && a.c0.limbs() == b.c0.limbs()
        && a.c1.limbs() == b.c1.limbs()
}

/// Errors of decrypted slots against the plaintext reference.
#[derive(Default)]
pub struct ErrStats {
    max: f64,
    sum_sq: f64,
    count: usize,
}

impl ErrStats {
    pub fn add(&mut self, got: &[f64], want: &[f64]) {
        for (g, w) in got.iter().zip(want) {
            let e = (g - w).abs();
            self.max = self.max.max(e);
            self.sum_sq += e * e;
            self.count += 1;
        }
    }

    /// Largest absolute error (what the correctness gates bound).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// `precision_bits`: −log2 of the RMS error. The largest error of a
    /// few thousand slots swings by a bit from seed to seed; the RMS
    /// repeats to about a tenth of a bit and still moves with key-switch
    /// noise.
    pub fn rms_bits(&self) -> f64 {
        let rms = (self.sum_sq / self.count.max(1) as f64).sqrt();
        -rms.max(f64::MIN_POSITIVE).log2()
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Latencies and counts of one timed stretch of ops.
#[derive(Default)]
pub struct LoopStats {
    pub latencies_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
}

impl LoopStats {
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Runs `op(i)` back to back, one in flight, until `seconds` have
/// passed. `op` returns whether its output passed the check.
pub fn single_in_flight(seconds: f64, start_id: u64, mut op: impl FnMut(u64) -> bool) -> LoopStats {
    let mut stats = LoopStats::default();
    let t0 = Instant::now();
    let mut id = start_id;
    while secs(t0) < seconds {
        let t = Instant::now();
        let ok = op(id);
        stats.latencies_s.push(secs(t));
        stats.attempted += 1;
        stats.failed += u64::from(!ok);
        id += 1;
    }
    stats.elapsed_s = secs(t0);
    stats
}

/// Completed-op rates of interleaved untraced and traced blocks, so a
/// slow phase of the host hits both modes alike. Returns
/// `(untraced rate / traced rate − 1, attempted, failed)`.
pub fn trace_overhead(
    tracer: &Tracer,
    seconds: f64,
    block_s: f64,
    mut block: impl FnMut(f64, u64) -> LoopStats,
) -> (f64, u64, u64) {
    let mut rate = [(0u64, 0.0f64); 2];
    let (mut attempted, mut failed) = (0, 0);
    let t0 = Instant::now();
    let mut on = false;
    while secs(t0) < seconds {
        tracer.set_enabled(on);
        let s = block(block_s, 1_000_000 + attempted);
        attempted += s.attempted;
        failed += s.failed;
        let r = &mut rate[usize::from(on)];
        r.0 += s.attempted - s.failed;
        r.1 += s.elapsed_s;
        on = !on;
    }
    tracer.set_enabled(true);
    let per_s = |(ops, t): (u64, f64)| ops as f64 / t.max(1e-9);
    let traced = per_s(rate[1]);
    let overhead = if traced > 0.0 {
        per_s(rate[0]) / traced - 1.0
    } else {
        0.0
    };
    (overhead, attempted, failed)
}
