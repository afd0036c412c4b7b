//! Numerical flux (Riemann solver) on element faces.
//!
//! The corrector couples neighbouring elements through a numerical flux
//! `F*` that the paper assumes linear in `Q` and `F` (Sec. II-A). We use
//! the Rusanov (local Lax-Friedrichs) flux, which satisfies that
//! assumption: with the engine's sign convention `Q_t = ∇·F(Q)`,
//!
//! `F* = ½ (F_L + F_R) + ½ s (q_R − q_L)`,  `s = max wave speed`,
//!
//! applied to the *time-integrated* face states and fluxes produced by the
//! predictor, so one Riemann solve per face per time step suffices (eq. 5).

use crate::plan::StpPlan;
use aderdg_mesh::BoundaryKind;
use aderdg_pde::LinearPde;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Debug-build Riemann-solve counter (release builds compile the
/// increment away).
static FLUX_SOLVES: AtomicUsize = AtomicUsize::new(0);

/// True when [`flux_solve_count`] actually counts (debug builds only —
/// release builds skip the atomic increment in the hot face sweep).
pub const fn flux_solve_counting_enabled() -> bool {
    cfg!(debug_assertions)
}

/// Number of [`rusanov_face`] invocations since the last
/// [`reset_flux_solve_count`] (process-global; boundary faces count one
/// solve each, because [`boundary_face`] resolves through
/// [`rusanov_face`]). Always `0` in release builds — check
/// [`flux_solve_counting_enabled`]. This is the measurement behind the
/// once-per-face contract: a cell-centric corrector performs `6 · cells`
/// solves per step, the face-indexed sweep `interior + boundary` faces.
pub fn flux_solve_count() -> usize {
    FLUX_SOLVES.load(Ordering::Relaxed)
}

/// Resets [`flux_solve_count`] to zero.
pub fn reset_flux_solve_count() {
    FLUX_SOLVES.store(0, Ordering::Relaxed);
}

#[inline]
fn count_flux_solve() {
    if flux_solve_counting_enabled() {
        FLUX_SOLVES.fetch_add(1, Ordering::Relaxed);
    }
}

/// Computes the Rusanov flux for one interior face of normal dimension `d`.
///
/// `q_l`, `f_l` belong to the lower cell's upper face; `q_r`, `f_r` to the
/// upper cell's lower face. The `q̄` traces are at [`StpPlan::face`] (the
/// wavespeed reads their parameter rows); the fluxes `f_l`, `f_r` and the
/// written `f_star` are at [`StpPlan::flux_face`], whose padding rows
/// `f_star` gets as zeros.
#[allow(clippy::too_many_arguments)] // mirrors the paper's kernel signature
pub fn rusanov_face(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    d: usize,
    q_l: &[f64],
    f_l: &[f64],
    q_r: &[f64],
    f_r: &[f64],
    f_star: &mut [f64],
) {
    count_flux_solve();
    let n = plan.n();
    let (m, vars) = (plan.m(), pde.num_vars());
    assert!(vars <= plan.flux_face.m, "plan drops evolved flux rows");
    let (qf_pad, ff_pad) = (plan.face.m_pad(), plan.flux_face.m_pad());
    f_star[..plan.flux_face.len()].fill(0.0);
    for node in 0..n * n {
        let (qo, fo) = (node * qf_pad, node * ff_pad);
        let s_l = pde.max_wavespeed(d, &q_l[qo..qo + m]);
        let s_r = pde.max_wavespeed(d, &q_r[qo..qo + m]);
        let s = s_l.max(s_r);
        for v in 0..vars {
            f_star[fo + v] =
                0.5 * (f_l[fo + v] + f_r[fo + v]) + 0.5 * s * (q_r[qo + v] - q_l[qo + v]);
        }
    }
}

/// Scratch for boundary-face ghost states.
#[derive(Debug, Clone)]
pub struct BoundaryScratch {
    /// Ghost `q̄` face tensor ([`StpPlan::face`]).
    pub q_ghost: Vec<f64>,
    /// Ghost flux face tensor ([`StpPlan::flux_face`]).
    pub f_ghost: Vec<f64>,
    /// Pointwise flux evaluation buffer (`m` quantities) — owned here so
    /// the hot corrector loop never allocates per boundary face.
    flux: Vec<f64>,
}

impl BoundaryScratch {
    /// Allocates face-sized ghost buffers.
    pub fn new(plan: &StpPlan) -> Self {
        Self {
            q_ghost: vec![0.0; plan.face.len()],
            f_ghost: vec![0.0; plan.flux_face.len()],
            flux: vec![0.0; plan.m()],
        }
    }
}

/// Computes the Rusanov flux for a domain-boundary face: builds the ghost
/// state from the interior trace according to `kind`, evaluates its flux,
/// and calls the interior Riemann solve with interior/ghost ordered by
/// `side` (0 = the boundary is the cell's lower face). Layouts as in
/// [`rusanov_face`]: `q_in` at [`StpPlan::face`], `f_in` and `f_star` at
/// [`StpPlan::flux_face`].
#[allow(clippy::too_many_arguments)]
pub fn boundary_face(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    d: usize,
    side: usize,
    kind: BoundaryKind,
    q_in: &[f64],
    f_in: &[f64],
    scratch: &mut BoundaryScratch,
    f_star: &mut [f64],
) {
    let n = plan.n();
    let m = plan.m();
    let mf_pad = plan.face.m_pad();
    let (fvars, ff_pad) = (plan.flux_face.m, plan.flux_face.m_pad());
    let outward = if side == 1 { 1.0 } else { -1.0 };
    match kind {
        BoundaryKind::Outflow | BoundaryKind::Periodic => {
            // Absorbing boundary: Riemann solve against a *quiescent
            // exterior* (zero evolved variables, parameters copied). The
            // Rusanov flux then upwinds the outgoing characteristics and
            // damps incoming ones — the naive zero-gradient copy
            // (F* = F_in) leaves incoming characteristics unconstrained
            // and is unstable for wave systems. (Periodic faces are
            // normally resolved to interior neighbours by the mesh; a
            // stray call is treated the same way.)
            let vars = pde.num_vars();
            scratch.q_ghost[..plan.face.len()].copy_from_slice(&q_in[..plan.face.len()]);
            scratch.f_ghost[..plan.flux_face.len()].fill(0.0);
            for node in 0..n * n {
                let o = node * mf_pad;
                scratch.q_ghost[o..o + vars].fill(0.0);
            }
        }
        BoundaryKind::Reflective => {
            for node in 0..n * n {
                let (o, fo) = (node * mf_pad, node * ff_pad);
                pde.reflective_ghost(d, outward, &q_in[o..o + m], &mut scratch.q_ghost[o..o + m]);
                pde.flux(d, &scratch.q_ghost[o..o + m], &mut scratch.flux);
                // The flux's parameter rows are zero: keep the evolved ones.
                scratch.f_ghost[fo..fo + fvars].copy_from_slice(&scratch.flux[..fvars]);
            }
        }
    }
    if side == 1 {
        // Boundary is the upper face: interior is the left state.
        rusanov_face(
            plan,
            pde,
            d,
            q_in,
            f_in,
            &scratch.q_ghost,
            &scratch.f_ghost,
            f_star,
        );
    } else {
        rusanov_face(
            plan,
            pde,
            d,
            &scratch.q_ghost,
            &scratch.f_ghost,
            q_in,
            f_in,
            f_star,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StpConfig;
    use aderdg_gemm::Isa;
    use aderdg_pde::{AdvectionSystem, Elastic, Material};
    use aderdg_tensor::Lcg;

    /// The full-row [`rusanov_face`]: every face tensor at all `m` rows
    /// ([`StpPlan::face`]). Kept as the bitwise reference.
    #[allow(clippy::too_many_arguments)]
    fn rusanov_face_reference(
        plan: &StpPlan,
        pde: &dyn LinearPde,
        d: usize,
        q_l: &[f64],
        f_l: &[f64],
        q_r: &[f64],
        f_r: &[f64],
        f_star: &mut [f64],
    ) {
        let mf_pad = plan.face.m_pad();
        f_star[..plan.face.len()].fill(0.0);
        for node in 0..plan.n() * plan.n() {
            let o = node * mf_pad;
            let s_l = pde.max_wavespeed(d, &q_l[o..o + plan.m()]);
            let s_r = pde.max_wavespeed(d, &q_r[o..o + plan.m()]);
            let s = s_l.max(s_r);
            for v in 0..pde.num_vars() {
                f_star[o + v] =
                    0.5 * (f_l[o + v] + f_r[o + v]) + 0.5 * s * (q_r[o + v] - q_l[o + v]);
            }
        }
    }

    /// The full-row [`boundary_face`], layouts as in
    /// [`rusanov_face_reference`]. Kept as the bitwise reference.
    #[allow(clippy::too_many_arguments)]
    fn boundary_face_reference(
        plan: &StpPlan,
        pde: &dyn LinearPde,
        d: usize,
        side: usize,
        kind: BoundaryKind,
        q_in: &[f64],
        f_in: &[f64],
        f_star: &mut [f64],
    ) {
        let (m, mf_pad) = (plan.m(), plan.face.m_pad());
        let mut q_ghost = q_in[..plan.face.len()].to_vec();
        let mut f_ghost = vec![0.0; plan.face.len()];
        let mut flux = vec![0.0; m];
        for node in 0..plan.n() * plan.n() {
            let o = node * mf_pad;
            if kind == BoundaryKind::Reflective {
                let outward = if side == 1 { 1.0 } else { -1.0 };
                pde.reflective_ghost(d, outward, &q_in[o..o + m], &mut q_ghost[o..o + m]);
                pde.flux(d, &q_ghost[o..o + m], &mut flux);
                f_ghost[o..o + m].copy_from_slice(&flux);
            } else {
                q_ghost[o..o + pde.num_vars()].fill(0.0);
            }
        }
        if side == 1 {
            rusanov_face_reference(plan, pde, d, q_in, f_in, &q_ghost, &f_ghost, f_star);
        } else {
            rusanov_face_reference(plan, pde, d, &q_ghost, &f_ghost, q_in, f_in, f_star);
        }
    }

    /// A curvilinear elastic `q̄` face trace ([`StpPlan::face`]) and a flux
    /// trace at all `m` rows plus its [`StpPlan::flux_face`] copy.
    fn elastic_traces(p: &StpPlan, rng: &mut Lcg) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let (m, vars) = (p.m(), p.flux_face.m);
        let mat = Material {
            rho: 2.7,
            cp: 6.0,
            cs: 3.46,
        };
        let mut q = vec![0.0; p.face.len()];
        let mut full = vec![0.0; p.face.len()];
        let mut narrow = vec![0.0; p.flux_face.len()];
        for node in 0..p.n() * p.n() {
            let (o, fo) = (node * p.face.m_pad(), node * p.flux_face.m_pad());
            q[o..o + vars].copy_from_slice(&rng.vec(vars, -0.5, 0.5));
            let mut jac = Elastic::IDENTITY_JAC;
            jac[1] = 0.05 * ((node % 5) as f64 - 2.0);
            jac[5] = 0.03 * ((node % 3) as f64 - 1.0);
            Elastic::set_params(&mut q[o..o + m], mat, &jac);
            full[o..o + vars].copy_from_slice(&rng.vec(vars, -1.0, 1.0));
            narrow[fo..fo + vars].copy_from_slice(&full[o..o + vars]);
        }
        (q, full, narrow)
    }

    /// The leading `rows` entries of every `from_pad`-long node row.
    fn node_rows(v: &[f64], from_pad: usize, rows: usize) -> Vec<u64> {
        v.chunks_exact(from_pad)
            .flat_map(|node| node[..rows].iter().map(|x| x.to_bits()))
            .collect()
    }

    #[test]
    fn evolved_row_solves_are_bitwise_equal_to_the_full_row_references_at_every_isa() {
        let pde = Elastic;
        for width in Isa::supported() {
            let cfg = StpConfig::new(4, pde.num_quantities())
                .with_vars(pde.num_vars())
                .with_width(width);
            let p = StpPlan::new(cfg, [1.0, 0.8, 1.25]);
            let (fp, ff) = (p.face.m_pad(), p.flux_face.m_pad());
            assert!(ff < fp, "{width:?}: the flux layout drops parameter rows");
            let mut rng = Lcg::new(21);
            let (q_l, f_l_full, f_l) = elastic_traces(&p, &mut rng);
            let (q_r, f_r_full, f_r) = elastic_traces(&p, &mut rng);
            for d in 0..3 {
                let at = format!("{width:?} d={d}");
                let mut want = vec![f64::NAN; p.face.len()];
                rusanov_face_reference(&p, &pde, d, &q_l, &f_l_full, &q_r, &f_r_full, &mut want);
                // Every row of the flux layout — padding included — equals
                // the reference's leading rows; the rows dropped were zero.
                let mut got = vec![f64::NAN; p.flux_face.len()];
                rusanov_face(&p, &pde, d, &q_l, &f_l, &q_r, &f_r, &mut got);
                assert_eq!(node_rows(&got, ff, ff), node_rows(&want, fp, ff), "{at}");
                let dropped_zero = want
                    .chunks_exact(fp)
                    .all(|r| r[ff..].iter().all(|&x| x == 0.0));
                assert!(dropped_zero, "{at}: the reference's dropped rows");
                // A face-sized F* (what the benchmark allocates) is
                // written in its leading flux-face part.
                let mut wide = vec![f64::NAN; p.face.len()];
                rusanov_face(&p, &pde, d, &q_l, &f_l, &q_r, &f_r, &mut wide);
                assert_eq!(wide[..got.len()], got[..], "{at}: face-sized F*");

                let mut scratch = BoundaryScratch::new(&p);
                for kind in [BoundaryKind::Outflow, BoundaryKind::Reflective] {
                    for side in 0..2 {
                        let at = format!("{at} {kind:?} side={side}");
                        let mut want = vec![f64::NAN; p.face.len()];
                        boundary_face_reference(
                            &p, &pde, d, side, kind, &q_l, &f_l_full, &mut want,
                        );
                        let mut got = vec![f64::NAN; p.flux_face.len()];
                        boundary_face(&p, &pde, d, side, kind, &q_l, &f_l, &mut scratch, &mut got);
                        assert_eq!(node_rows(&got, ff, ff), node_rows(&want, fp, ff), "{at}");
                    }
                }
            }
        }
    }

    fn face_state(plan: &StpPlan, val: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        let n = plan.n();
        let mf = plan.face.m_pad();
        let mut q = vec![0.0; plan.face.len()];
        for node in 0..n * n {
            for s in 0..plan.m() {
                q[node * mf + s] = val(node, s);
            }
        }
        q
    }

    #[test]
    fn upwind_recovered_for_scalar_advection() {
        // a > 0: information moves +x; F* must equal F(q_L) = −a q_L.
        let plan = StpPlan::new(StpConfig::new(3, 1), [1.0; 3]);
        let pde = AdvectionSystem::new(1, [2.0, 0.0, 0.0]);
        let q_l = face_state(&plan, |n, _| 1.0 + n as f64);
        let q_r = face_state(&plan, |n, _| -3.0 + 0.5 * n as f64);
        let f_l: Vec<f64> = q_l.iter().map(|&q| -2.0 * q).collect();
        let f_r: Vec<f64> = q_r.iter().map(|&q| -2.0 * q).collect();
        let mut f_star = vec![0.0; plan.face.len()];
        rusanov_face(&plan, &pde, 0, &q_l, &f_l, &q_r, &f_r, &mut f_star);
        let mf = plan.face.m_pad();
        for node in 0..9 {
            assert!(
                (f_star[node * mf] - f_l[node * mf]).abs() < 1e-13,
                "node {node}"
            );
        }
    }

    #[test]
    fn consistency_equal_states_give_physical_flux() {
        let plan = StpPlan::new(StpConfig::new(4, 2), [1.0; 3]);
        let pde = AdvectionSystem::new(2, [0.3, -0.7, 0.1]);
        let q = face_state(&plan, |n, s| (n + s) as f64 * 0.1 - 0.4);
        let f: Vec<f64> = q.iter().map(|&x| 0.7 * x).collect();
        let mut f_star = vec![0.0; plan.face.len()];
        rusanov_face(&plan, &pde, 1, &q, &f, &q, &f, &mut f_star);
        let mf = plan.face.m_pad();
        for node in 0..16 {
            for s in 0..2 {
                assert!((f_star[node * mf + s] - f[node * mf + s]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn outflow_boundary_passes_interior_flux() {
        let plan = StpPlan::new(StpConfig::new(3, 1), [1.0; 3]);
        let pde = AdvectionSystem::new(1, [1.0, 0.0, 0.0]);
        let q = face_state(&plan, |n, _| n as f64);
        let f: Vec<f64> = q.iter().map(|&x| -x).collect();
        let mut scratch = BoundaryScratch::new(&plan);
        let mut f_star = vec![0.0; plan.face.len()];
        boundary_face(
            &plan,
            &pde,
            0,
            1,
            BoundaryKind::Outflow,
            &q,
            &f,
            &mut scratch,
            &mut f_star,
        );
        let mf = plan.face.m_pad();
        for node in 0..9 {
            assert!((f_star[node * mf] - f[node * mf]).abs() < 1e-13);
        }
    }

    #[test]
    fn rusanov_dissipation_sign() {
        // With q_R > q_L and F ≡ 0, F* = ½ s (q_R − q_L) > 0.
        let plan = StpPlan::new(StpConfig::new(3, 1), [1.0; 3]);
        let pde = AdvectionSystem::new(1, [1.0, 0.0, 0.0]);
        let q_l = face_state(&plan, |_, _| 0.0);
        let q_r = face_state(&plan, |_, _| 2.0);
        let zero = vec![0.0; plan.face.len()];
        let mut f_star = vec![0.0; plan.face.len()];
        rusanov_face(&plan, &pde, 0, &q_l, &zero, &q_r, &zero, &mut f_star);
        assert!((f_star[0] - 1.0).abs() < 1e-13);
    }
}
