//! The metric registry (names and units, mirrored by `BENCHMARK.json`)
//! and the one-line JSON result.

use crate::common::Outcome;

/// End-to-end metrics, printed by every untraced run.
///
/// There is no latency metric. With one op in flight (`argmax_sched`,
/// `rotate_fanout`) or a fixed window of tickets (`serve_zipf`), mean
/// latency is fixed by `ops_per_s` (Little's law), and on a host whose
/// memory-bound speed drifts the median and tail percentiles spread
/// past the largest allowed bound (see `STEADINESS.md`). Queueing
/// percentiles are per-layer metrics of the traced run (`serve.wait_*`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("precision_bits", "bits"),
];

/// Per-layer metrics, printed by every traced run. A layer the
/// workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // serve: cross_sched::{session, serve, queue, keycache}
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.take_us_p50", "us"),
    ("serve.dispatches", "1/op"),
    ("serve.batches", "1/op"),
    ("serve.occupancy", "ops/batch"),
    ("serve.fused_share", "ratio"),
    ("serve.key_hit_rate", "ratio"),
    ("serve.key_evictions", "1/op"),
    ("serve.ct_evictions", "1/op"),
    ("serve.failed", "count"),
    ("serve.modeled_ms_per_op", "modeled_ms"),
    // sched: cross_sched::{sched, record} and the cost model
    ("sched.record_ms", "ms"),
    ("sched.schedule_ms", "ms"),
    ("sched.batches", "count"),
    ("sched.waves", "count"),
    ("sched.occupancy", "ops/batch"),
    ("model.wall_ms", "modeled_ms"),
    ("model.naive_ms", "modeled_ms"),
    // exec: cross_sched::exec and the batched pack/unpack
    ("exec.execute_ms", "ms"),
    ("exec.pack_us", "us"),
    ("exec.unpack_us", "us"),
    ("exec.pack_share", "ratio"),
    ("exec.mirror_coverage", "ratio"),
    // he: cross_ckks::{eval, batched, ks_plan}, per inference
    ("he.mult_batch_ms", "ms"),
    ("he.mult_batch_calls", "count"),
    ("he.mult_batch_width", "ops/call"),
    ("he.rescale_batch_ms", "ms"),
    ("he.rescale_batch_calls", "count"),
    ("he.rescale_batch_width", "ops/call"),
    ("he.mult_plain_batch_ms", "ms"),
    ("he.mult_plain_batch_calls", "count"),
    ("he.mult_plain_batch_width", "ops/call"),
    ("he.add_sub_batch_ms", "ms"),
    ("he.add_sub_batch_calls", "count"),
    ("he.add_sub_batch_width", "ops/call"),
    ("he.other_ms", "ms"),
    // he: the eager hoisted fan-out, per call
    ("he.hoist_decompose_us", "us"),
    ("he.hoisted_rotate_us", "us"),
    ("he.rotate_eager_us", "us"),
    ("he.mult_plain_us", "us"),
    ("he.rescale_us", "us"),
    // kern: cross_poly / cross_core / cross_math at the workload shape
    ("kern.ntt_fwd_us", "us"),
    ("kern.ntt_inv_us", "us"),
    ("kern.automorphism_us", "us"),
    ("kern.gather_eval_us", "us"),
    ("kern.mul_pointwise_us", "us"),
    ("kern.count.ntt", "modeled_count"),
    ("kern.count.intt", "modeled_count"),
    ("kern.count.bconv", "modeled_count"),
    ("kern.count.vec_mod_mul", "modeled_count"),
    ("kern.count.vec_mod_add", "modeled_count"),
    ("kern.count.automorphism", "modeled_count"),
    // setup: the four timed set-up stages (fastest of the constructions)
    ("setup.context_s", "s"),
    ("setup.keygen_s", "s"),
    ("setup.plan_s", "s"),
    ("setup.encrypt_s", "s"),
    // trace: cost of tracing and self time per layer
    ("trace.overhead", "ratio"),
    ("self.bench_share", "ratio"),
    ("self.serve_share", "ratio"),
    ("self.exec_share", "ratio"),
    ("self.he_share", "ratio"),
];

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The last stdout line, `{"correct", "attempted", "failed", "metrics"}`
/// with every metric of the run's kind, and its verdict. A failed op, a
/// missing end-to-end metric, an unregistered name or a non-finite
/// value marks the run incorrect.
pub fn result_line(outcome: &Outcome, trace: bool) -> (String, bool) {
    let mut correct = outcome.correct;
    for name in outcome.metrics.keys() {
        if unit_of(name).is_none() {
            eprintln!("perfbench: metric {name} is not registered");
            correct = false;
        }
    }
    let registry = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(registry.len());
    for &(name, unit) in registry {
        let value = match outcome.metrics.get(name) {
            Some(&v) if v.is_finite() => v,
            Some(&v) => {
                eprintln!("perfbench: metric {name} is not finite ({v})");
                correct = false;
                0.0
            }
            None if trace => 0.0,
            None => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if outcome.attempted == 0 {
        eprintln!("perfbench: no op was attempted");
        correct = false;
    }
    let correct = correct && outcome.failed == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    (line, correct)
}

/// Shortest round-trip decimal of a finite f64 (Rust's `Display`),
/// which is valid JSON for every finite value.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
