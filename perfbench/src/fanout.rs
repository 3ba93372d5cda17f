//! `rotate_fanout`: one baby step of a BSGS matrix-vector product on
//! the eager `Evaluator` — `hoisted_rotations` over 8 power-of-two
//! steps, `mult_plain` of each result by a plaintext diagonal, the sum,
//! then one rescale. One fan-out in flight at a time. Galois key
//! switching dominates; the scheduler, executor and serving layers are
//! bypassed.

use crate::common::{
    ct_identical, median, repeated_setup, secs, single_in_flight, trace_overhead, window, ErrStats,
    Outcome, Rng, RunConfig, SetupSamples, SetupTimes,
};
use crate::kern;
use crate::trace::Tracer;
use cross_ckks::costs;
use cross_ckks::{Ciphertext, CkksContext, CkksParams, Evaluator, KeyPair, SwitchingKey};
use cross_poly::rns_poly::RnsPoly;
use std::time::Instant;

const LOG_N: u32 = 11;
const LIMBS: usize = 6;
const DNUM: usize = 3;
const STEPS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
/// Distinct input vectors the fan-outs cycle through.
const INPUTS: usize = 4;
/// Largest error the output may show against the plaintext step (a
/// sum of eight products of values in [-1, 1]; a wrong rotation or
/// diagonal shows errors of order 1).
const MAX_ERR: f64 = 1.0 / 64.0;
/// Set-up constructions per run (about 0.1 s each).
const SETUP_REPEATS: usize = 12;
/// Seconds of fan-outs between two set-up constructions of the
/// untraced window.
const BLOCK_S: f64 = 0.75;

struct Fixture {
    ctx: CkksContext,
    keys: KeyPair,
    rot_keys: Vec<SwitchingKey>,
    msgs: Vec<Vec<f64>>,
    inputs: Vec<Ciphertext>,
    diag_msgs: Vec<Vec<f64>>,
    diags: Vec<RnsPoly>,
}

fn params() -> CkksParams {
    CkksParams::new(1 << LOG_N, LIMBS, DNUM, 28)
}

fn build(seed: u64, tracer: &Tracer, rep: u64) -> (Fixture, SetupTimes) {
    let mut t = SetupTimes::default();
    let mut rng = Rng::new(seed, 3);
    let s = Instant::now();
    let ctx = tracer.time("setup.context", rep, || CkksContext::new(params(), seed));
    t.context = secs(s);

    let s = Instant::now();
    let (keys, rot_keys) = tracer.time("setup.keygen", rep, || {
        let keys = ctx.generate_keys();
        let rot: Vec<SwitchingKey> = STEPS
            .iter()
            .map(|&k| ctx.generate_rotation_key(&keys.secret, k))
            .collect();
        (keys, rot)
    });
    t.keygen = secs(s);

    let s = Instant::now();
    tracer.time("setup.plan", rep, || {
        for l in 1..=LIMBS {
            ctx.ks_plan(l);
        }
        for &k in &STEPS {
            ctx.galois_eval_perm(ctx.galois_element(k));
        }
    });
    t.plan = secs(s);

    let s = Instant::now();
    let slots = ctx.slot_count();
    let msgs: Vec<Vec<f64>> = (0..INPUTS).map(|_| rng.message(slots, -1.0, 1.0)).collect();
    let diag_msgs: Vec<Vec<f64>> = STEPS
        .iter()
        .map(|_| rng.message(slots, -1.0, 1.0))
        .collect();
    let (inputs, diags) = tracer.time("setup.encrypt", rep, || {
        let inputs: Vec<Ciphertext> = msgs.iter().map(|m| ctx.encrypt(m, &keys.public)).collect();
        let scale = ctx.params().scale();
        let diags: Vec<RnsPoly> = diag_msgs
            .iter()
            .map(|d| ctx.encode_at(d, LIMBS, scale))
            .collect();
        (inputs, diags)
    });
    t.encrypt = secs(s);
    let fixture = Fixture {
        ctx,
        keys,
        rot_keys,
        msgs,
        inputs,
        diag_msgs,
        diags,
    };
    (fixture, t)
}

/// The plaintext baby step: `Σ_k diag_k ⊙ rot(x, step_k)`.
fn reference(x: &[f64], diags: &[Vec<f64>]) -> Vec<f64> {
    let n = x.len();
    (0..n)
        .map(|i| {
            STEPS
                .iter()
                .zip(diags)
                .map(|(&k, d)| d[i] * x[(i + k) % n])
                .sum()
        })
        .collect()
}

/// Multiply-accumulate the rotated copies with their diagonals and
/// rescale — shared by the plain and the traced fan-out.
fn finish(
    f: &Fixture,
    ev: &Evaluator,
    tracer: &Tracer,
    id: u64,
    rots: &[Ciphertext],
) -> Ciphertext {
    let scale = f.ctx.params().scale();
    let mut acc: Option<Ciphertext> = None;
    for (r, d) in rots.iter().zip(&f.diags) {
        let term = tracer.time("he.mult_plain", id, || ev.mult_plain(r, d, scale));
        acc = Some(match acc {
            None => term,
            Some(a) => tracer.time("he.add", id, || ev.add(&a, &term)),
        });
    }
    let acc = acc.expect("at least one rotation");
    tracer.time("he.rescale", id, || ev.rescale(&acc))
}

/// One fan-out: the user-facing `hoisted_rotations` call.
fn fanout(f: &Fixture, ev: &Evaluator, tracer: &Tracer, id: u64, x: &Ciphertext) -> Ciphertext {
    let rot: Vec<(usize, &SwitchingKey)> = STEPS.iter().copied().zip(&f.rot_keys).collect();
    let rots = ev.hoisted_rotations(x, &rot);
    finish(f, ev, tracer, id, &rots)
}

/// The same fan-out split at its public seams so the decomposition and
/// each rotation get their own span (`hoisted_rotations` is exactly
/// this composition).
fn fanout_traced(
    f: &Fixture,
    ev: &Evaluator,
    tracer: &Tracer,
    id: u64,
    x: &Ciphertext,
) -> Ciphertext {
    tracer.time("bench.fanout", id, || {
        let h = tracer.time("he.hoist_decompose", id, || ev.hoist_decompose(x));
        let rots: Vec<Ciphertext> = STEPS
            .iter()
            .zip(&f.rot_keys)
            .map(|(&k, key)| tracer.time("he.hoisted_rotate", id, || ev.hoisted_rotate(&h, k, key)))
            .collect();
        finish(f, ev, tracer, id, &rots)
    })
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut setups = SetupSamples::default();
    let repeats = if cfg.trace { SETUP_REPEATS } else { 1 };
    let f = repeated_setup(&mut setups, tracer, repeats, |tr, rep| {
        build(cfg.seed, tr, rep)
    });
    let ev = Evaluator::new(&f.ctx);

    // Reference outputs: the first fan-out of each input is decrypted
    // and held against the plaintext step; every later fan-out of the
    // same input must be bit-identical to it.
    tracer.set_phase("check");
    let mut errs = ErrStats::default();
    let expected: Vec<Ciphertext> = f
        .inputs
        .iter()
        .zip(&f.msgs)
        .map(|(x, m)| {
            let y = fanout(&f, &ev, tracer, 0, x);
            let got = f.ctx.decrypt(&y, &f.keys.secret);
            errs.add(&got, &reference(m, &f.diag_msgs));
            y
        })
        .collect();
    let max_err = errs.max();
    if max_err > MAX_ERR {
        out.correct = false;
        out.notes
            .push(format!("fan-out error {max_err:e} exceeds {MAX_ERR:e}"));
    }
    out.set("precision_bits", errs.rms_bits());

    let check = |id: u64, y: &Ciphertext| ct_identical(y, &expected[id as usize % INPUTS]);
    let plain_op = |id: u64| {
        check(
            id,
            &fanout(&f, &ev, tracer, id, &f.inputs[id as usize % INPUTS]),
        )
    };
    let traced_op = |id: u64| {
        check(
            id,
            &fanout_traced(&f, &ev, tracer, id, &f.inputs[id as usize % INPUTS]),
        )
    };

    tracer.set_phase("warmup");
    single_in_flight(1.0, 0, plain_op);

    if !cfg.trace {
        tracer.set_phase("window");
        let s = window(
            cfg.seconds,
            BLOCK_S,
            &mut setups,
            |secs, id| single_in_flight(secs, id, plain_op),
            |rep| build(cfg.seed, tracer, rep).1,
        );
        out.attempted = s.attempted;
        out.failed = s.failed;
        out.set("ops_per_s", s.ops_per_s());
        out.set("peak_rss_mb", crate::common::peak_rss_mb());
        setups.report(&mut out);
        return out;
    }
    setups.report(&mut out);

    // Traced run: plain and traced blocks interleaved for the overhead,
    // then the eager-rotate base and the kernels.
    tracer.set_phase("window");
    let (overhead, attempted, failed) =
        trace_overhead(tracer, cfg.seconds * 0.7, 0.5, |secs, id| {
            if tracer.on() {
                single_in_flight(secs, id, traced_op)
            } else {
                single_in_flight(secs, id, plain_op)
            }
        });
    out.attempted = attempted;
    out.failed = failed;
    out.set("trace.overhead", overhead);
    let us = |name| median(&tracer.durations("window", name)) * 1e6;
    out.set("he.hoist_decompose_us", us("he.hoist_decompose"));
    out.set("he.hoisted_rotate_us", us("he.hoisted_rotate"));
    out.set("he.mult_plain_us", us("he.mult_plain"));
    out.set("he.rescale_us", us("he.rescale"));
    for (layer, share) in tracer.self_shares("window") {
        match layer {
            "bench" => out.set("self.bench_share", share),
            "he" => out.set("self.he_share", share),
            _ => {}
        }
    }

    // The un-hoisted base of the hoisting ratio; it must equal the
    // hoisted rotation bit for bit.
    tracer.set_phase("eager");
    let x = &f.inputs[0];
    let hoisted = ev.hoisted_rotate(&ev.hoist_decompose(x), STEPS[0], &f.rot_keys[0]);
    let s = single_in_flight(cfg.seconds * 0.1, 0, |id| {
        let y = tracer.time("he.rotate_eager", id, || {
            ev.rotate(x, STEPS[0], &f.rot_keys[0])
        });
        ct_identical(&y, &hoisted)
    });
    out.attempted += s.attempted;
    out.failed += s.failed;
    out.set("he.rotate_eager_us", median(&s.latencies_s) * 1e6);

    kern::measure(&mut out, tracer, &f.ctx, x, cfg.seconds * 0.2);
    let p = params();
    let mut counts = costs::he_hoist_decomp_counts(&p, LIMBS);
    let per_rot = costs::he_hoisted_rotate_counts(&p, LIMBS);
    let per_term = costs::he_plain_mult_counts(&p, LIMBS);
    let per_add = costs::he_add_counts(&p, LIMBS);
    for i in 0..STEPS.len() {
        kern::add_counts(&mut counts, &per_rot);
        kern::add_counts(&mut counts, &per_term);
        if i > 0 {
            kern::add_counts(&mut counts, &per_add);
        }
    }
    kern::add_counts(&mut counts, &costs::he_rescale_counts(&p, LIMBS));
    kern::set_counts(&mut out, &counts, 1.0);
    out
}
