//! `serve_zipf`: four tenants with Zipf-skewed shares submit a mix of
//! mult, rotate(1), add and rescale over pinned toy-size inputs through
//! `serve_tenants` → `Session::submit` → `Completion::wait` →
//! `Session::take`. One client thread keeps a fixed window of tickets
//! in flight (a closed loop); one worker executes dispatches; the
//! key-cache budget sits below the tenants' combined key bytes.

use crate::common::{
    ct_identical, median, quantile, repeated_setup, secs, trace_overhead, window, ErrStats,
    LoopStats, Outcome, Rng, RunConfig, SetupSamples, SetupTimes,
};
use crate::kern;
use crate::trace::Tracer;
use cross_ckks::costs::OpCounts;
use cross_ckks::{Ciphertext, CkksContext, CkksParams, Evaluator, KeyPair, SwitchingKey};
use cross_sched::serve::{ServeConfig, ServeKeys};
use cross_sched::{serve_tenants, Completion, CtId, HeOpKind, Server, Session, TenantSpec};
use cross_tpu::TpuGeneration;
use std::collections::VecDeque;
use std::time::Instant;

const TENANTS: usize = 4;
/// Inputs at the default scale Δ that mult, add and rotate draw from.
const INPUTS_PER_TENANT: usize = 2;
/// Tickets the client keeps in flight.
const WINDOW: usize = 16;
/// Dispatch workers; with the client and dispatcher threads this keeps
/// busy threads at or below two cores.
const WORKERS: usize = 1;
/// Zipf exponent of the tenant shares.
const ZIPF_S: f64 = 1.2;
/// Key-cache budget as a share of all tenants' key bytes.
const KEY_BUDGET: f64 = 0.6;
/// One ticket in this many is checked bit for bit against the eager
/// evaluator (chosen by the seeded generator).
const CHECK_ONE_IN: usize = 8;
/// Largest error an op result may show against plaintext arithmetic.
const MAX_ERR: f64 = 1.0 / 1024.0;
/// Set-up constructions per run (about 25 ms each).
const SETUP_REPEATS: usize = 40;
/// Seconds of traffic between two set-up constructions of the
/// untraced window.
const BLOCK_S: f64 = 0.75;

/// One of the distinct requests a tenant can make. Mult, add and
/// rotate read the tenant's inputs at scale Δ; rescale reads its one
/// input encrypted at Δ², so the result lands back at ≈ Δ.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Req {
    Mult(usize, usize),
    Rotate(usize),
    Add(usize, usize),
    Rescale,
}

/// Index of the Δ² input in a tenant's input list.
const WIDE: usize = INPUTS_PER_TENANT;

impl Req {
    fn all() -> Vec<Req> {
        let mut v = vec![Req::Rescale];
        for a in 0..INPUTS_PER_TENANT {
            for b in 0..INPUTS_PER_TENANT {
                v.push(Req::Mult(a, b));
                v.push(Req::Add(a, b));
            }
            v.push(Req::Rotate(a));
        }
        v
    }

    fn kind(self) -> HeOpKind {
        match self {
            Req::Mult(..) => HeOpKind::Mult,
            Req::Rotate(_) => HeOpKind::Rotate { steps: 1 },
            Req::Add(..) => HeOpKind::Add,
            Req::Rescale => HeOpKind::Rescale,
        }
    }

    fn operands(self) -> Vec<usize> {
        match self {
            Req::Mult(a, b) | Req::Add(a, b) => vec![a, b],
            Req::Rotate(a) => vec![a],
            Req::Rescale => vec![WIDE],
        }
    }

    fn eager(self, ev: &Evaluator, t: &Tenant) -> Ciphertext {
        let x = &t.inputs;
        match self {
            Req::Mult(a, b) => ev.mult(&x[a], &x[b], &t.keys.relin),
            Req::Rotate(a) => ev.rotate(&x[a], 1, &t.rot),
            Req::Add(a, b) => ev.add(&x[a], &x[b]),
            Req::Rescale => ev.rescale(&x[WIDE]),
        }
    }

    fn plain(self, m: &[Vec<f64>]) -> Vec<f64> {
        let n = m[0].len();
        match self {
            Req::Mult(a, b) => (0..n).map(|i| m[a][i] * m[b][i]).collect(),
            Req::Rotate(a) => (0..n).map(|i| m[a][(i + 1) % n]).collect(),
            Req::Add(a, b) => (0..n).map(|i| m[a][i] + m[b][i]).collect(),
            Req::Rescale => m[WIDE].clone(),
        }
    }
}

struct Tenant {
    keys: KeyPair,
    rot: SwitchingKey,
    msgs: Vec<Vec<f64>>,
    inputs: Vec<Ciphertext>,
}

struct Fixture {
    ctx: CkksContext,
    tenants: Vec<Tenant>,
}

fn build(seed: u64, tracer: &Tracer, rep: u64) -> (Fixture, SetupTimes) {
    let mut t = SetupTimes::default();
    let mut rng = Rng::new(seed, 1);
    let s = Instant::now();
    let ctx = tracer.time("setup.context", rep, || {
        CkksContext::new(CkksParams::toy(), seed)
    });
    t.context = secs(s);

    let s = Instant::now();
    let keys: Vec<(KeyPair, SwitchingKey)> = tracer.time("setup.keygen", rep, || {
        (0..TENANTS)
            .map(|_| {
                let kp = ctx.generate_keys();
                let rot = ctx.generate_rotation_key(&kp.secret, 1);
                (kp, rot)
            })
            .collect()
    });
    t.keygen = secs(s);

    let s = Instant::now();
    tracer.time("setup.plan", rep, || {
        for l in 1..=ctx.params().limbs {
            ctx.ks_plan(l);
        }
        ctx.galois_eval_perm(ctx.galois_element(1));
    });
    t.plan = secs(s);

    let slots = ctx.slot_count();
    let msgs: Vec<Vec<Vec<f64>>> = (0..TENANTS)
        .map(|_| (0..=WIDE).map(|_| rng.message(slots, -1.0, 1.0)).collect())
        .collect();
    let top = ctx.params().limbs;
    let wide_scale = ctx.params().scale() * ctx.params().scale();
    let s = Instant::now();
    let tenants = tracer.time("setup.encrypt", rep, || {
        keys.into_iter()
            .zip(msgs)
            .map(|((keys, rot), msgs)| {
                let mut inputs: Vec<Ciphertext> = msgs[..WIDE]
                    .iter()
                    .map(|m| ctx.encrypt(m, &keys.public))
                    .collect();
                let wide = ctx.encode_at(&msgs[WIDE], top, wide_scale);
                inputs.push(ctx.encrypt_plaintext(&wide, &keys.public, wide_scale));
                Tenant {
                    inputs,
                    keys,
                    rot,
                    msgs,
                }
            })
            .collect()
    });
    t.encrypt = secs(s);
    (Fixture { ctx, tenants }, t)
}

/// The seeded request stream: Zipf-skewed tenant choice (the rank
/// order of tenants is itself drawn from the seed), a uniform op kind,
/// then uniform operands among that tenant's inputs.
struct Load {
    rng: Rng,
    cdf: Vec<(f64, usize)>,
    reqs: Vec<Req>,
}

impl Load {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 11);
        let mut order: Vec<usize> = (0..TENANTS).collect();
        for i in (1..TENANTS).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let weights: Vec<f64> = (1..=TENANTS).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .zip(order)
            .map(|(w, tenant)| {
                acc += w / total;
                (acc, tenant)
            })
            .collect();
        Load {
            rng,
            cdf,
            reqs: Req::all(),
        }
    }

    /// `(tenant, request index, checked?)`.
    fn next(&mut self) -> (usize, usize, bool) {
        let u = self.rng.unit();
        let tenant = self
            .cdf
            .iter()
            .find(|(c, _)| u < *c)
            .map_or(self.cdf[TENANTS - 1].1, |&(_, t)| t);
        let kind = [
            HeOpKind::Mult,
            HeOpKind::Rotate { steps: 1 },
            HeOpKind::Add,
            HeOpKind::Rescale,
        ][self.rng.below(4)];
        let variants: Vec<usize> = (0..self.reqs.len())
            .filter(|&i| self.reqs[i].kind() == kind)
            .collect();
        let req = variants[self.rng.below(variants.len())];
        let checked = self.rng.below(CHECK_ONE_IN) == 0;
        (tenant, req, checked)
    }
}

struct Ticket {
    id: u64,
    tenant: usize,
    req: usize,
    checked: bool,
    start: Instant,
    submitted: Instant,
    completion: Completion,
}

struct Client<'a> {
    sessions: Vec<Session>,
    ids: Vec<Vec<CtId>>,
    expected: &'a [Vec<Ciphertext>],
    reqs: Vec<Req>,
    load: Load,
    next_id: u64,
    /// Modeled kernel counts of each request, and their running sum
    /// over every submitted ticket.
    counts: Vec<OpCounts>,
    modeled: OpCounts,
}

impl Client<'_> {
    /// Keeps [`WINDOW`] tickets in flight until `seconds` have passed,
    /// then drains. Tickets are awaited oldest first; a ticket's latency
    /// runs from its submit call to its result being taken.
    fn pump(&mut self, tracer: &Tracer, seconds: f64) -> LoopStats {
        let mut s = LoopStats::default();
        let mut inflight: VecDeque<Ticket> = VecDeque::with_capacity(WINDOW);
        let t0 = Instant::now();
        loop {
            while inflight.len() < WINDOW && secs(t0) < seconds {
                let (tenant, req, checked) = self.load.next();
                let r = self.reqs[req];
                let ops: Vec<CtId> = r.operands().iter().map(|&i| self.ids[tenant][i]).collect();
                let start = Instant::now();
                let sub = self.sessions[tenant].submit(r.kind(), &ops);
                let submitted = Instant::now();
                s.attempted += 1;
                kern::add_counts(&mut self.modeled, &self.counts[req]);
                match sub {
                    Ok(completion) => inflight.push_back(Ticket {
                        id: self.next_id,
                        tenant,
                        req,
                        checked,
                        start,
                        submitted,
                        completion,
                    }),
                    Err(_) => s.failed += 1,
                }
                self.next_id += 1;
            }
            let Some(t) = inflight.pop_front() else { break };
            let done = t.completion.wait();
            let waited = Instant::now();
            let session = &self.sessions[t.tenant];
            let result = done.ok().and_then(|c| session.take(c.id));
            let taken = Instant::now();
            let ok = match &result {
                Some(ct) if t.checked => ct_identical(ct, &self.expected[t.tenant][t.req]),
                Some(_) => true,
                None => false,
            };
            s.failed += u64::from(!ok);
            s.latencies_s.push((taken - t.start).as_secs_f64());
            if tracer.on() {
                let root = tracer.record("bench.ticket", t.id, None, t.start, taken);
                tracer.record("serve.submit", t.id, root, t.start, t.submitted);
                tracer.record("serve.wait", t.id, root, t.submitted, waited);
                tracer.record("serve.take", t.id, root, waited, taken);
            }
        }
        s.elapsed_s = secs(t0);
        s
    }
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
    let ctx = &f.ctx;
    let ev = Evaluator::new(ctx);
    let reqs = Req::all();

    // Eager references for every (tenant, request); each is also held
    // against plaintext arithmetic for the precision figure.
    tracer.set_phase("check");
    let mut errs = ErrStats::default();
    let expected: Vec<Vec<Ciphertext>> = f
        .tenants
        .iter()
        .map(|t| {
            reqs.iter()
                .map(|r| {
                    let ct = r.eager(&ev, t);
                    let got = ctx.decrypt(&ct, &t.keys.secret);
                    errs.add(&got, &r.plain(&t.msgs));
                    ct
                })
                .collect()
        })
        .collect();
    let max_err = errs.max();
    if max_err > MAX_ERR {
        out.correct = false;
        out.notes
            .push(format!("op error {max_err:e} exceeds {MAX_ERR:e}"));
    }
    out.set("precision_bits", errs.rms_bits());

    let specs: Vec<TenantSpec> = f
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let keys = ServeKeys::new()
                .with_relin(t.keys.relin.clone())
                .with_rotation(1, t.rot.clone());
            TenantSpec::new(i as u64 + 1, keys)
        })
        .collect();
    let key_bytes: f64 = f
        .tenants
        .iter()
        .map(|t| (t.keys.relin.bytes() + t.rot.bytes()) as f64)
        .sum();
    let config = ServeConfig::new(TpuGeneration::V6e, 8)
        .with_workers(WORKERS)
        .with_key_cache_bytes(key_bytes * KEY_BUDGET);
    let level = ctx.params().limbs;
    let counts: Vec<OpCounts> = reqs
        .iter()
        .map(|r| kern::op_counts(ctx.params(), r.kind(), level))
        .collect();

    serve_tenants(ctx, specs, &config, |server: &Server| {
        let sessions: Vec<Session> = (0..TENANTS).map(|i| server.session(i as u64 + 1)).collect();
        let ids: Vec<Vec<CtId>> = f
            .tenants
            .iter()
            .zip(&sessions)
            .map(|(t, s)| t.inputs.iter().map(|x| s.insert(x.clone())).collect())
            .collect();
        let mut client = Client {
            sessions,
            ids,
            expected: &expected,
            reqs: reqs.clone(),
            load: Load::new(cfg.seed),
            next_id: 0,
            counts,
            modeled: OpCounts::default(),
        };

        tracer.set_phase("warmup");
        let warm = client.pump(tracer, 1.0);
        out.attempted += warm.attempted;
        out.failed += warm.failed;

        if !cfg.trace {
            tracer.set_phase("window");
            let s = window(
                cfg.seconds,
                BLOCK_S,
                &mut setups,
                |secs, _| client.pump(tracer, secs),
                |rep| build(cfg.seed, tracer, rep).1,
            );
            out.attempted += s.attempted;
            out.failed += s.failed;
            out.set("ops_per_s", s.ops_per_s());
            return;
        }

        // Traced run: plain and traced half-second stretches interleaved.
        tracer.set_phase("window");
        let (overhead, attempted, failed) =
            trace_overhead(tracer, cfg.seconds * 0.85, 0.5, |secs, _| {
                client.pump(tracer, secs)
            });
        out.attempted += attempted;
        out.failed += failed;
        out.set("trace.overhead", overhead);
        let span = |name| tracer.durations("window", name);
        out.set("serve.submit_us_p50", median(&span("serve.submit")) * 1e6);
        out.set(
            "serve.submit_us_p99",
            quantile(&span("serve.submit"), 0.99) * 1e6,
        );
        out.set("serve.wait_ms_p50", median(&span("serve.wait")) * 1e3);
        out.set(
            "serve.wait_ms_p99",
            quantile(&span("serve.wait"), 0.99) * 1e3,
        );
        out.set("serve.take_us_p50", median(&span("serve.take")) * 1e6);
        kern::set_counts(&mut out, &client.modeled, client.next_id as f64);
        for (layer, share) in tracer.self_shares("window") {
            match layer {
                "bench" => out.set("self.bench_share", share),
                "serve" => out.set("self.serve_share", share),
                _ => {}
            }
        }

        let st = server.stats();
        let ops = st.ops.max(1) as f64;
        out.set("serve.dispatches", st.dispatches as f64 / ops);
        out.set("serve.batches", st.batches as f64 / ops);
        out.set("serve.occupancy", st.occupancy());
        out.set("serve.fused_share", st.fused_ops as f64 / ops);
        let touches = (st.key_hits + st.key_misses).max(1) as f64;
        out.set("serve.key_hit_rate", st.key_hits as f64 / touches);
        out.set("serve.key_evictions", st.key_evictions as f64 / ops);
        out.set("serve.ct_evictions", st.ct_evictions as f64 / ops);
        out.set("serve.failed", st.failed as f64);
        out.set("serve.modeled_ms_per_op", st.modeled_wall_s * 1e3 / ops);
    });
    setups.report(&mut out);
    if !cfg.trace {
        out.set("peak_rss_mb", crate::common::peak_rss_mb());
    } else {
        kern::measure(
            &mut out,
            tracer,
            ctx,
            &f.tenants[0].inputs[0],
            cfg.seconds * 0.1,
        );
    }
    out
}
