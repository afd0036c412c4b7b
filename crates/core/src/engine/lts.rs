//! What only a multi-level (LTS) plan needs beyond the one-cluster
//! macro cycle: the coarse side's sub-window face traces, the worker
//! temps they are composed in, and the per-cluster clocks.

use super::{Engine, SteppingMode};
use crate::kernels::FaceTraces;
use crate::plan::StpPlan;
use aderdg_pde::LinearPde;

/// Composes one sub-window face trace of a coarse cell by differencing
/// its full- and half-window predictor runs: the CK Taylor coefficients
/// depend only on `q0`, so the half-dt run's time-integrated trace *is*
/// the first half-window's exactly, and `full − half` the second's,
/// elementwise (trace tensors are time-integrals, hence additive over
/// sub-windows). With ≤ 1-level gradation one halving always suffices.
///
/// Returns the `(q̄, F̄)` face pair of face slot `fi`: the half-window
/// trace itself for `sub == 0` (no copy), the difference written into
/// `tmp` for `sub == 1`. Only the evolved rows (the plan's `vars`) are
/// time integrals: `q̄` *carries* its parameter rows (the kernels'
/// convention), so those — which the Riemann solve reads the wavespeed
/// from — are copied from the full trace, not differenced to zero.
pub(super) fn sub_window_trace<'a>(
    plan: &StpPlan,
    tmp: &'a mut HaloScratch,
    full: &FaceTraces,
    half: &'a FaceTraces,
    fi: usize,
    sub: usize,
) -> (&'a [f64], &'a [f64]) {
    if sub == 0 {
        return (&half.qface[fi], &half.fface[fi]);
    }
    let (qf, ff) = (&full.qface[fi], &full.fface[fi]);
    let (qh, fh) = (&half.qface[fi], &half.fface[fi]);
    let (q_pad, vars) = (plan.face.m_pad(), plan.cfg.vars);
    let rows = tmp.qtmp.chunks_exact_mut(q_pad).zip(qf.chunks_exact(q_pad));
    for ((t, f), h) in rows.zip(qh.chunks_exact(q_pad)) {
        for s in 0..vars {
            t[s] = f[s] - h[s];
        }
        t[vars..].copy_from_slice(&f[vars..]);
    }
    for i in 0..tmp.ftmp.len() {
        tmp.ftmp[i] = ff[i] - fh[i];
    }
    (&tmp.qtmp, &tmp.ftmp)
}

/// One face-trace temp pair for the second sub-window's difference (at
/// most one side of a face is ever coarse), built on a thread's first
/// cadence-mismatched face. The halo half-window predictor runs need no
/// scratch of their own: they reuse the thread's block scratch, which
/// every kernel's `run` accepts (the `make_block_scratch` contract), and
/// its first [`StpOutputs`].
pub(super) struct HaloScratch {
    qtmp: Vec<f64>,
    ftmp: Vec<f64>,
}

impl HaloScratch {
    /// One worker's temps for the face layouts of `plan`.
    pub(super) fn new(plan: &StpPlan) -> Self {
        Self {
            qtmp: vec![0.0; plan.face.len()],
            ftmp: vec![0.0; plan.flux_face.len()],
        }
    }
}

impl<P: LinearPde> Engine<P> {
    /// Starts the per-cluster clocks at `time` when an LTS step finds none
    /// for the plan's `num_levels` clusters (the first step, or a new
    /// clustering with another level count). Global stepping keeps none.
    pub(super) fn start_lts_clocks(&mut self, num_levels: usize) {
        if self.config.stepping == SteppingMode::Lts && self.lts_clocks.len() != num_levels {
            self.lts_clocks = vec![(self.time, 0); num_levels];
        }
    }

    /// Advances the per-cluster clocks over one macro cycle of
    /// `num_slots` slots (LTS only — none exist under global stepping): a
    /// level-L cluster took `2^(Lmax−L)` sub-steps and all clusters meet
    /// at `t + dt`.
    pub(super) fn advance_lts_clocks(&mut self, dt: f64, num_slots: usize) {
        let t_end = self.time + dt;
        for (level, clock) in self.lts_clocks.iter_mut().enumerate() {
            clock.0 = t_end;
            clock.1 += (num_slots >> level) as u64;
        }
    }
}
