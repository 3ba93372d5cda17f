//! The kernel layer (`cross_poly` / `cross_core` / `cross_math`) timed
//! at a workload's own (N, limbs) shape, plus the modeled kernel counts
//! of one workload op from the `he_*_counts` cost functions.

use crate::common::{median, secs, Outcome};
use crate::trace::Tracer;
use cross_ckks::costs::OpCounts;
use cross_ckks::{Ciphertext, CkksContext, CkksParams};
use cross_sched::cost::node_bundles;
use cross_sched::{HeOp, HeOpKind, OpGraph};
use std::hint::black_box;
use std::time::Instant;

/// Median microseconds of `f` over repeats, stopping after `budget_s`
/// seconds or `max_reps` repeats. `prep` builds each repeat's input
/// outside the timed region.
fn time_us<T, R>(
    tracer: &Tracer,
    name: &'static str,
    budget_s: f64,
    mut prep: impl FnMut() -> T,
    mut f: impl FnMut(T) -> R,
) -> f64 {
    const MAX_REPS: usize = 400;
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MAX_REPS && (samples.len() < 5 || secs(t0) < budget_s) {
        let input = prep();
        let t = Instant::now();
        let out = tracer.time(name, samples.len() as u64, || f(black_box(input)));
        samples.push(secs(t) * 1e6);
        drop(black_box(out));
    }
    median(&samples)
}

/// Times the five kernels on `ct`'s polynomials (level `ct.level`),
/// spending about `budget_s` seconds in all.
pub fn measure(
    out: &mut Outcome,
    tracer: &Tracer,
    ctx: &CkksContext,
    ct: &Ciphertext,
    budget_s: f64,
) {
    tracer.set_phase("kern");
    let each = budget_s / 5.0;
    let g = ctx.galois_element(1);
    let perms = ctx.galois_eval_perm(g);
    let mut coeff = ct.c1.clone();
    coeff.to_coefficient();
    let fwd = time_us(
        tracer,
        "kern.ntt_fwd",
        each,
        || coeff.clone(),
        |mut p| {
            p.to_evaluation();
            p
        },
    );
    let inv = time_us(
        tracer,
        "kern.ntt_inv",
        each,
        || ct.c1.clone(),
        |mut p| {
            p.to_coefficient();
            p
        },
    );
    let auto = time_us(
        tracer,
        "kern.automorphism",
        each,
        || (),
        |()| coeff.automorphism(g),
    );
    let gather = time_us(
        tracer,
        "kern.gather_eval",
        each,
        || (),
        |()| ct.c1.gather_eval(&perms),
    );
    let mul = time_us(
        tracer,
        "kern.mul_pointwise",
        each,
        || (),
        |()| ct.c0.mul_pointwise(&ct.c1),
    );
    out.set("kern.ntt_fwd_us", fwd);
    out.set("kern.ntt_inv_us", inv);
    out.set("kern.automorphism_us", auto);
    out.set("kern.gather_eval_us", gather);
    out.set("kern.mul_pointwise_us", mul);
}

/// Modeled kernel counts of one batch-1 `kind` node at `level`.
pub fn op_counts(params: &CkksParams, kind: HeOpKind, level: usize) -> OpCounts {
    let graph = OpGraph::single_op(kind, level);
    let node = graph.nodes().last().expect("single_op has its op node");
    node_counts(params, node)
}

/// Modeled kernel counts of one graph node.
pub fn node_counts(params: &CkksParams, node: &HeOp) -> OpCounts {
    let mut sum = OpCounts::default();
    for b in node_bundles(params, node) {
        add_counts(&mut sum, &b.counts.scaled(b.times));
    }
    sum
}

pub fn add_counts(acc: &mut OpCounts, c: &OpCounts) {
    acc.ntt += c.ntt;
    acc.intt += c.intt;
    acc.bconv += c.bconv;
    acc.vec_mod_mul += c.vec_mod_mul;
    acc.vec_mod_add += c.vec_mod_add;
    acc.automorphism += c.automorphism;
}

/// Records `kern.count.*` as counts per workload op: `total` summed
/// over `ops` ops.
pub fn set_counts(out: &mut Outcome, total: &OpCounts, ops: f64) {
    let per = |c: usize| c as f64 / ops.max(1.0);
    out.set("kern.count.ntt", per(total.ntt));
    out.set("kern.count.intt", per(total.intt));
    out.set("kern.count.bconv", per(total.bconv));
    out.set("kern.count.vec_mod_mul", per(total.vec_mod_mul));
    out.set("kern.count.vec_mod_add", per(total.vec_mod_add));
    out.set("kern.count.automorphism", per(total.automorphism));
}
