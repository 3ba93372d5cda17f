//! `argmax_sched`: a 4-class slot-parallel encrypted argmax — 12
//! Low-tier `compare_chain`s plus the one-hot products — recorded once
//! through `RecordingSgnBackend`, scheduled once with
//! `Scheduler::schedule`, and run per inference through
//! `execute_schedule`, one inference in flight at a time. The deep-DAG
//! path: relinearization, rescale and plain-constant ops fused by the
//! scheduler; no rotations, no serving.

use crate::common::{
    ct_identical, mean, median, repeated_setup, secs, single_in_flight, trace_overhead, window,
    ErrStats, Outcome, Rng, RunConfig, SetupSamples, SetupTimes,
};
use crate::kern;
use crate::trace::Tracer;
use cross_ckks::costs::OpCounts;
use cross_ckks::ext::sgn::{compare_chain, compare_ref, SgnTier};
use cross_ckks::{BatchedCiphertext, Ciphertext, CkksContext, CkksParams, Evaluator, KeyPair};
use cross_sched::{
    execute_schedule, HeOpKind, NodeId, OpGraph, RecordingSgnBackend, ReplayKeys, Schedule,
    Scheduler, SgnRecording, TrackedVct,
};
use cross_tpu::TpuGeneration;
use std::collections::BTreeMap;
use std::time::Instant;

const CLASSES: usize = 4;
const TIER: SgnTier = SgnTier::Low;
const LOG_N: u32 = 8;
/// Distinct score sets the inferences cycle through.
const INPUT_SETS: usize = 4;
/// Smallest gap between two classes' scores in a slot (the Low tier
/// resolves `|a − b|/2 ≥ 2⁻⁵`).
const MIN_GAP: f64 = 0.1;
/// Set-up constructions per run (about 25 ms each).
const SETUP_REPEATS: usize = 40;
/// Seconds of inferences between two set-up constructions of the
/// untraced window.
const BLOCK_S: f64 = 0.75;

fn params() -> CkksParams {
    // compare spends depth + 2 levels, the products two more, ending
    // at level 2.
    CkksParams::new(1 << LOG_N, TIER.depth() + 6, 2, 28)
}

struct Fixture {
    ctx: CkksContext,
    keys: KeyPair,
    rec: SgnRecording,
    /// Node of each class's one-hot mask.
    masks: Vec<NodeId>,
    schedule: Schedule,
    scheduler: Scheduler,
    record_s: f64,
    schedule_s: f64,
    /// `scores[set][class][slot]`.
    scores: Vec<Vec<Vec<f64>>>,
    inputs: Vec<Vec<Ciphertext>>,
}

/// Per-slot class scores in `[-0.45, 0.45]`, every pair at least
/// [`MIN_GAP`] apart.
fn score_set(rng: &mut Rng, slots: usize) -> Vec<Vec<f64>> {
    let mut by_class = vec![vec![0.0; slots]; CLASSES];
    for s in 0..slots {
        let v = loop {
            let v: Vec<f64> = (0..CLASSES).map(|_| rng.uniform(-0.45, 0.45)).collect();
            if (0..CLASSES).all(|i| (0..i).all(|j| (v[i] - v[j]).abs() >= MIN_GAP)) {
                break v;
            }
        };
        for (class, x) in by_class.iter_mut().zip(v) {
            class[s] = x;
        }
    }
    by_class
}

/// Records the argmax head: class `i`'s mask is the product of its
/// three "beats j" comparisons.
fn record(ctx: &CkksContext) -> (SgnRecording, Vec<NodeId>) {
    let p = ctx.params();
    let mut bk = RecordingSgnBackend::new(ctx.q_moduli());
    let scores: Vec<TrackedVct> = (0..CLASSES).map(|_| bk.input(p.limbs, p.scale())).collect();
    let mut masks = Vec::with_capacity(CLASSES);
    for i in 0..CLASSES {
        let wins: Vec<TrackedVct> = (0..CLASSES)
            .filter(|&j| j != i)
            .map(|j| compare_chain(&mut bk, &scores[i], &scores[j], TIER))
            .collect();
        let mut mask = wins[0];
        for w in &wins[1..] {
            mask = cross_ckks::ext::sgn::SgnBackend::mult(&mut bk, &mask, w);
        }
        masks.push(mask.vct.node);
    }
    (bk.finish(), masks)
}

fn build(seed: u64, tracer: &Tracer, rep: u64) -> (Fixture, SetupTimes) {
    let mut t = SetupTimes::default();
    let mut rng = Rng::new(seed, 2);
    let s = Instant::now();
    let ctx = tracer.time("setup.context", rep, || CkksContext::new(params(), seed));
    t.context = secs(s);

    let s = Instant::now();
    let keys = tracer.time("setup.keygen", rep, || ctx.generate_keys());
    t.keygen = secs(s);

    // Plan: key-switching plans for every level, then the recording
    // and the schedule (the graph-side plan of this workload).
    let s = Instant::now();
    let scheduler = Scheduler::new(TpuGeneration::V6e, 8);
    let (rec, masks, schedule, record_s, schedule_s) = tracer.time("setup.plan", rep, || {
        for l in 1..=ctx.params().limbs {
            ctx.ks_plan(l);
        }
        let r = Instant::now();
        let (rec, masks) = tracer.time("sched.record", rep, || record(&ctx));
        let record_s = secs(r);
        let r = Instant::now();
        let schedule = tracer.time("sched.schedule", rep, || {
            scheduler.schedule(&rec.graph, ctx.params())
        });
        (rec, masks, schedule, record_s, secs(r))
    });
    t.plan = secs(s);

    let slots = ctx.slot_count();
    let scores: Vec<Vec<Vec<f64>>> = (0..INPUT_SETS)
        .map(|_| score_set(&mut rng, slots))
        .collect();
    let s = Instant::now();
    let inputs = tracer.time("setup.encrypt", rep, || {
        scores
            .iter()
            .map(|set| set.iter().map(|v| ctx.encrypt(v, &keys.public)).collect())
            .collect()
    });
    t.encrypt = secs(s);
    let fixture = Fixture {
        ctx,
        keys,
        rec,
        masks,
        schedule,
        scheduler,
        record_s,
        schedule_s,
        scores,
        inputs,
    };
    (fixture, t)
}

/// The argmax gate of one decrypted inference: every slot's winner mask
/// must sit above ½ and every loser's below it. Adds each mask's error
/// against the plaintext chain to `errs`.
fn check_masks(f: &Fixture, set: usize, masks: &[&Ciphertext], errs: &mut ErrStats) -> bool {
    let scores = &f.scores[set];
    let dec: Vec<Vec<f64>> = masks
        .iter()
        .map(|ct| f.ctx.decrypt(ct, &f.keys.secret))
        .collect();
    for s in 0..f.ctx.slot_count() {
        let winner = (0..CLASSES)
            .max_by(|&a, &b| scores[a][s].total_cmp(&scores[b][s]))
            .expect("classes are non-empty");
        for (c, d) in dec.iter().enumerate() {
            if (c == winner) != (d[s] > 0.5) {
                return false;
            }
            let want: f64 = (0..CLASSES)
                .filter(|&j| j != c)
                .map(|j| compare_ref(TIER, scores[c][s], scores[j][s]))
                .product();
            errs.add(&d[s..=s], &[want]);
        }
    }
    true
}

/// Per-category time, calls and widths of the mirrored batches.
#[derive(Default, Clone, Copy)]
struct Category {
    seconds: f64,
    calls: u64,
    width: u64,
}

#[derive(Default)]
struct Mirror {
    pack_s: f64,
    unpack_s: f64,
    cats: BTreeMap<&'static str, Category>,
}

/// The span (and metric category) of an HE call of `kind`.
fn span_name(kind: HeOpKind) -> &'static str {
    match kind {
        HeOpKind::Mult => "he.mult",
        HeOpKind::Rescale => "he.rescale",
        HeOpKind::PlainMultConst { .. } => "he.mult_plain",
        HeOpKind::Add | HeOpKind::Sub => "he.add_sub",
        _ => "he.other",
    }
}

/// Replays the schedule batch by batch through the public batched
/// `Evaluator` calls — the same dataflow as `execute_schedule` — with a
/// span around each pack, kernel and unpack.
fn mirror(
    f: &Fixture,
    ev: &Evaluator,
    tracer: &Tracer,
    id: u64,
    inputs: &[Ciphertext],
    acc: &mut Mirror,
) -> Vec<Option<Ciphertext>> {
    let graph: &OpGraph = &f.rec.graph;
    let ctx = ev.context();
    let relin = &f.keys.relin;
    let encode_const = |cid: u32, level: usize, scale: Option<f64>| {
        let (value, pt_scale) = match scale {
            None => f.rec.mult_consts[cid as usize],
            Some(s) => (f.rec.add_consts[cid as usize], s),
        };
        let pt = ctx.encode_at(&vec![value; ctx.slot_count()], level, pt_scale);
        (pt, pt_scale)
    };
    let mut results: Vec<Option<Ciphertext>> = vec![None; graph.len()];
    let mut next = 0;
    for node in graph.nodes() {
        if node.kind == HeOpKind::Input {
            results[node.id] = Some(inputs[next].clone());
            next += 1;
        }
    }
    for batch in &f.schedule.batches {
        let kind = batch.kind;
        let level = batch.level;
        let he = span_name(kind);
        // Seconds inside the HE calls of this batch; the rest of the
        // batch span is the executor's own work.
        let mut he_s = 0.0;
        let mut timed_he = |f: &mut dyn FnMut() -> Vec<Ciphertext>| {
            let t = Instant::now();
            let out = tracer.time(he, id, f);
            he_s += secs(t);
            out
        };
        let out: Vec<Ciphertext> = tracer.time("exec.batch", id, || {
            let operand = |i: usize| -> Vec<Ciphertext> {
                batch
                    .nodes
                    .iter()
                    .map(|&n| {
                        let src = graph.node(n).inputs[i];
                        let ct = results[src].as_ref().expect("operand computed earlier");
                        ev.mod_drop(ct, level)
                    })
                    .collect()
            };
            let lhs = operand(0);
            let rhs = if kind.arity() == 2 {
                operand(1)
            } else {
                Vec::new()
            };
            if lhs.len() == 1 || matches!(kind, HeOpKind::PlainAddConst { .. }) {
                // Single-member groups and per-member plaintext adds run
                // the eager single-ciphertext calls.
                return lhs
                    .iter()
                    .enumerate()
                    .flat_map(|(m, a)| {
                        timed_he(&mut || {
                            vec![match kind {
                                HeOpKind::Add => ev.add(a, &rhs[m]),
                                HeOpKind::Sub => ev.sub(a, &rhs[m]),
                                HeOpKind::Mult => ev.mult(a, &rhs[m], relin),
                                HeOpKind::Rescale => ev.rescale(a),
                                HeOpKind::ModDrop { to_level } => ev.mod_drop(a, to_level),
                                HeOpKind::PlainMultConst { cid } => {
                                    let (pt, s) = encode_const(cid, a.level, None);
                                    ev.mult_plain(a, &pt, s)
                                }
                                HeOpKind::PlainAddConst { cid } => {
                                    let (pt, s) = encode_const(cid, a.level, Some(a.scale));
                                    ev.add_plain(a, &pt, s)
                                }
                                other => panic!("{} is not in the argmax graph", other.label()),
                            }]
                        })
                    })
                    .collect();
            }
            let t = Instant::now();
            let a = tracer.time("exec.pack", id, || {
                BatchedCiphertext::from_ciphertexts(&lhs)
            });
            let b = (!rhs.is_empty()).then(|| {
                tracer.time("exec.pack", id, || {
                    BatchedCiphertext::from_ciphertexts(&rhs)
                })
            });
            acc.pack_s += secs(t);
            let mut packed = None;
            timed_he(&mut || {
                packed = Some(match kind {
                    HeOpKind::Add => ev.add_batch(&a, b.as_ref().expect("binary op")),
                    HeOpKind::Sub => ev.sub_batch(&a, b.as_ref().expect("binary op")),
                    HeOpKind::Mult => ev.mult_batch(&a, b.as_ref().expect("binary op"), relin),
                    HeOpKind::Rescale => ev.rescale_batch(&a),
                    HeOpKind::ModDrop { to_level } => ev.mod_drop_batch(&a, to_level),
                    HeOpKind::PlainMultConst { cid } => {
                        let (pt, s) = encode_const(cid, level, None);
                        ev.mult_plain_batch(&a, &pt, s)
                    }
                    other => panic!("{} is not in the argmax graph", other.label()),
                });
                Vec::new()
            });
            let packed = packed.expect("batched call ran");
            let t = Instant::now();
            let cts = tracer.time("exec.unpack", id, || packed.to_ciphertexts());
            acc.unpack_s += secs(t);
            cts
        });
        let cat = acc.cats.entry(span_name(kind)).or_default();
        cat.seconds += he_s;
        cat.calls += 1;
        cat.width += batch.nodes.len() as u64;
        for (&n, ct) in batch.nodes.iter().zip(out) {
            results[n] = Some(ct);
        }
    }
    results
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
    let keys = f
        .rec
        .register_consts(ReplayKeys::new().with_relin(&f.keys.relin));
    let infer =
        |set: usize| execute_schedule(&f.rec.graph, &f.schedule, &ev, &keys, &f.inputs[set]);

    // The first inference of each score set is decrypted and gated; every
    // later inference of the set must be bit-identical to it.
    tracer.set_phase("check");
    let mut errs = ErrStats::default();
    let mut expected: Vec<Vec<Ciphertext>> = Vec::with_capacity(INPUT_SETS);
    for set in 0..INPUT_SETS {
        let res = infer(set);
        let masks: Vec<&Ciphertext> = f
            .masks
            .iter()
            .map(|&n| res[n].as_ref().expect("mask node computed"))
            .collect();
        if !check_masks(&f, set, &masks, &mut errs) {
            out.correct = false;
            out.notes.push(format!(
                "score set {set}: argmax masks not separable at 1/2"
            ));
        }
        expected.push(masks.into_iter().cloned().collect());
    }
    out.set("precision_bits", errs.rms_bits());
    let matches = |set: usize, res: &[Option<Ciphertext>]| {
        f.masks
            .iter()
            .zip(&expected[set])
            .all(|(&n, want)| res[n].as_ref().is_some_and(|got| ct_identical(got, want)))
    };
    let op = |id: u64| {
        let set = id as usize % INPUT_SETS;
        let res = tracer.time("bench.inference", id, || {
            tracer.time("exec.execute_schedule", id, || infer(set))
        });
        matches(set, &res)
    };

    tracer.set_phase("warmup");
    single_in_flight(1.0, 0, op);

    if !cfg.trace {
        tracer.set_phase("window");
        let s = window(
            cfg.seconds,
            BLOCK_S,
            &mut setups,
            |secs, id| single_in_flight(secs, id, op),
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

    // Traced run. Overhead: untraced `execute_schedule` blocks (the path
    // `ops_per_s` times) interleaved with traced blocks of the
    // batch-by-batch mirror (the path the per-layer numbers come from),
    // so it includes the mirror's own difference (`exec.mirror_coverage`).
    tracer.set_phase("window");
    let mut scratch = Mirror::default();
    let mut traced_op = |id: u64| {
        let set = id as usize % INPUT_SETS;
        let got = tracer.time("bench.mirror", id, || {
            mirror(&f, &ev, tracer, id, &f.inputs[set], &mut scratch)
        });
        matches(set, &got)
    };
    let (overhead, mut attempted, mut failed) =
        trace_overhead(tracer, cfg.seconds * 0.4, 1.0, |s, id| {
            if tracer.on() {
                single_in_flight(s, id, &mut traced_op)
            } else {
                single_in_flight(s, id, op)
            }
        });
    out.set("trace.overhead", overhead);

    // Mirror: each inference runs `execute_schedule` and then the
    // batch-by-batch replay, which must agree bit for bit.
    tracer.set_phase("mirror");
    let mut execute_s = Vec::new();
    let mut ratio = Vec::new();
    let mut totals = Mirror::default();
    let t0 = Instant::now();
    let mut id = 2_000_000u64;
    while secs(t0) < cfg.seconds * 0.45 || execute_s.is_empty() {
        let set = id as usize % INPUT_SETS;
        // The paired `execute_schedule` stays out of the mirror phase's
        // spans so its self times describe the replay alone.
        tracer.set_enabled(false);
        let t = Instant::now();
        let want = infer(set);
        let exec = secs(t);
        tracer.set_enabled(true);
        let t = Instant::now();
        let got = tracer.time("bench.mirror", id, || {
            mirror(&f, &ev, tracer, id, &f.inputs[set], &mut totals)
        });
        let mirror_s = secs(t);
        let identical = want.len() == got.len()
            && want.iter().zip(&got).all(|(w, g)| match (w, g) {
                (Some(w), Some(g)) => ct_identical(w, g),
                (None, None) => true,
                _ => false,
            });
        attempted += 1;
        if !identical || !matches(set, &got) {
            failed += 1;
            out.notes.push(format!(
                "inference {id}: mirror differs from execute_schedule"
            ));
        }
        execute_s.push(exec);
        ratio.push(mirror_s / exec);
        id += 1;
    }
    out.attempted = attempted;
    out.failed = failed;
    let n = execute_s.len() as f64;
    let exec_ms = median(&execute_s) * 1e3;
    out.set("exec.execute_ms", exec_ms);
    out.set("exec.mirror_coverage", median(&ratio));
    let pack_us = totals.pack_s / n * 1e6;
    let unpack_us = totals.unpack_s / n * 1e6;
    out.set("exec.pack_us", pack_us);
    out.set("exec.unpack_us", unpack_us);
    out.set(
        "exec.pack_share",
        (pack_us + unpack_us) * 1e-6 / mean(&execute_s),
    );
    for (cat, ms, calls, width) in [
        (
            "he.mult",
            "he.mult_batch_ms",
            "he.mult_batch_calls",
            "he.mult_batch_width",
        ),
        (
            "he.rescale",
            "he.rescale_batch_ms",
            "he.rescale_batch_calls",
            "he.rescale_batch_width",
        ),
        (
            "he.mult_plain",
            "he.mult_plain_batch_ms",
            "he.mult_plain_batch_calls",
            "he.mult_plain_batch_width",
        ),
        (
            "he.add_sub",
            "he.add_sub_batch_ms",
            "he.add_sub_batch_calls",
            "he.add_sub_batch_width",
        ),
    ] {
        let c = totals.cats.get(cat).copied().unwrap_or_default();
        out.set(ms, c.seconds / n * 1e3);
        out.set(calls, c.calls as f64 / n);
        out.set(width, c.width as f64 / c.calls.max(1) as f64);
    }
    let other = totals.cats.get("he.other").copied().unwrap_or_default();
    out.set("he.other_ms", other.seconds / n * 1e3);
    for (layer, share) in tracer.self_shares("mirror") {
        match layer {
            "bench" => out.set("self.bench_share", share),
            "exec" => out.set("self.exec_share", share),
            "he" => out.set("self.he_share", share),
            _ => {}
        }
    }

    // Scheduler and model, from the kept fixture.
    let p = f.ctx.params();
    let sched = &f.schedule;
    out.set("sched.record_ms", f.record_s * 1e3);
    out.set("sched.schedule_ms", f.schedule_s * 1e3);
    out.set("sched.batches", sched.batches.len() as f64);
    let waves = sched.batches.iter().map(|b| b.wave + 1).max().unwrap_or(0);
    out.set("sched.waves", waves as f64);
    out.set(
        "sched.occupancy",
        sched.op_count() as f64 / sched.batches.len().max(1) as f64,
    );
    out.set("model.wall_ms", sched.wall_s() * 1e3);
    out.set(
        "model.naive_ms",
        f.scheduler.naive_wall_s(&f.rec.graph, p) * 1e3,
    );

    kern::measure(
        &mut out,
        tracer,
        &f.ctx,
        &f.inputs[0][0],
        cfg.seconds * 0.15,
    );
    let mut counts = OpCounts::default();
    for node in f.rec.graph.nodes() {
        kern::add_counts(&mut counts, &kern::node_counts(p, node));
    }
    kern::set_counts(&mut out, &counts, 1.0);
    out
}
