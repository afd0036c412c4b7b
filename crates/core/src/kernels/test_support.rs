//! Shared fixtures of the kernel unit tests: a seeded random cell state,
//! a one-shot kernel run, and output comparison against the generic kernel.

use super::generic::GenericKernel;
use super::{StpInputs, StpKernel, StpOutputs};
use crate::plan::{CellSource, StpPlan};
use aderdg_pde::LinearPde;
use aderdg_tensor::Lcg;

/// A padded AoS state, every stored row uniform in `[-0.5, 0.5)` drawn
/// node by node from `Lcg::new(seed)`; the padding stays zero.
pub(super) fn random_state(plan: &StpPlan, seed: u64) -> Vec<f64> {
    let mut rng = Lcg::new(seed);
    let mut q = vec![0.0; plan.aos.len()];
    for node in q.chunks_exact_mut(plan.aos.m_pad()) {
        node[..plan.m()].fill_with(|| rng.unit());
    }
    q
}

/// Runs `kernel` once, on fresh scratch and outputs.
pub(super) fn run(
    kernel: &dyn StpKernel,
    plan: &StpPlan,
    pde: &dyn LinearPde,
    inputs: &StpInputs<'_>,
) -> StpOutputs {
    let mut out = StpOutputs::new(plan);
    let mut scratch = kernel.make_scratch(plan);
    kernel.run(plan, pde, scratch.as_mut(), inputs, &mut out);
    out
}

/// Every output tensor, in a fixed order: `qavg`, `favg`, `qface`, `fface`.
fn tensors(out: &StpOutputs) -> impl Iterator<Item = &[f64]> {
    let volume = [&out.qavg].into_iter().chain(&out.favg).map(|t| &t[..]);
    volume.chain(out.qface.iter().chain(&out.fface).map(|t| &t[..]))
}

/// Asserts every output tensor of `a` within `tol · (1 + |b|)` of `b`'s.
pub(super) fn assert_outputs_close(a: &StpOutputs, b: &StpOutputs, tol: f64) {
    for (t, (x, y)) in tensors(a).zip(tensors(b)).enumerate() {
        for (i, (u, v)) in x.iter().zip(y.iter()).enumerate() {
            let close = (u - v).abs() < tol * (1.0 + v.abs());
            assert!(close, "tensor {t} (`tensors` order) [{i}]: {u} vs {v}");
        }
    }
}

/// Runs `kernel` and the generic kernel on the same inputs and asserts
/// their outputs agree to `tol`.
pub(super) fn compare_with_generic(
    kernel: &dyn StpKernel,
    plan: &StpPlan,
    pde: &dyn LinearPde,
    q0: &[f64],
    dt: f64,
    source: Option<&CellSource>,
    tol: f64,
) {
    let inputs = StpInputs { q0, dt, source };
    let want = run(&GenericKernel, plan, pde, &inputs);
    assert_outputs_close(&run(kernel, plan, pde, &inputs), &want, tol);
}
