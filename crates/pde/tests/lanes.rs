//! Cross-ISA equivalence of the vectorised user functions: every PDE's
//! `flux_lanes` / `ncp_lanes` at every ISA level the host supports
//! (portable included) against the pointwise functions, over the strides
//! and valid-lane counts the layouts produce.

use aderdg_pde::{
    Acoustic, AdvectionNcpSystem, AdvectionSystem, Elastic, LinearPde, LinearizedSwe, Material,
    Maxwell, RotatingAdvection,
};
use aderdg_tensor::simd::Isa;
use aderdg_tensor::Lcg;

/// One node of physically valid state for `pde`: random evolved
/// quantities, positive material parameters.
fn node(pde: &dyn LinearPde, rng: &mut Lcg) -> Vec<f64> {
    let (vars, m) = (pde.num_vars(), pde.num_quantities());
    let mut q = rng.vec(m, -1.0, 1.0);
    for p in &mut q[vars..] {
        *p = 1.5 + p.abs(); // densities, moduli, depths: strictly positive
    }
    if m == 21 {
        let mut jac = Elastic::IDENTITY_JAC;
        for j in &mut jac {
            *j += 0.1 * rng.unit();
        }
        let mat = Material {
            rho: 2.0 + rng.unit(),
            cp: 5.0 + rng.unit(),
            cs: 2.5 + rng.unit(),
        };
        Elastic::set_params(&mut q, mat, &jac);
    }
    q
}

/// Checks one `(pde, isa, stride, len)` combination in all three
/// directions: valid lanes within 1e-12 of the pointwise functions,
/// padding lanes and parameter rows exactly `0.0` out of a NaN-filled
/// output (so no NaN/Inf escapes the zero-density padding lanes).
fn check(name: &str, pde: &dyn LinearPde, isa: Isa, stride: usize, len: usize) {
    let (vars, m) = (pde.num_vars(), pde.num_quantities());
    let mut rng = Lcg::new((stride * 31 + len) as u64);
    let mut q = vec![0.0; m * stride];
    let mut grad = vec![0.0; m * stride];
    let nodes: Vec<(Vec<f64>, Vec<f64>)> = (0..len)
        .map(|_| (node(pde, &mut rng), rng.vec(m, -1.0, 1.0)))
        .collect();
    for (i, (qi, gi)) in nodes.iter().enumerate() {
        for s in 0..m {
            q[s * stride + i] = qi[s];
            grad[s * stride + i] = gi[s];
        }
    }
    for d in 0..3 {
        let mut got = vec![f64::NAN; m * stride];
        pde.flux_lanes(isa, d, &q, &mut got, len, stride);
        let mut want = vec![0.0; m];
        let mut compare = |got: &[f64], pointwise: &mut dyn FnMut(usize, &mut [f64])| {
            for i in 0..stride {
                want.fill(0.0);
                if i < len {
                    pointwise(i, &mut want);
                }
                for s in 0..m {
                    let (g, w) = (got[s * stride + i], want[s]);
                    let ctx = format!("{name} {isa:?} stride={stride} len={len} d={d} s={s} i={i}");
                    if i < len && s < vars {
                        assert!(
                            (g - w).abs() <= 1e-12 * (1.0 + w.abs()),
                            "{ctx}: {g} vs {w}"
                        );
                    } else {
                        assert_eq!(g, 0.0, "{ctx}: padding / parameter entry");
                    }
                }
            }
        };
        compare(&got, &mut |i, f| pde.flux(d, &nodes[i].0, f));
        // An output chunk that stops after the evolved rows gets exactly
        // those rows.
        let mut evolved = vec![f64::NAN; vars * stride];
        pde.flux_lanes(isa, d, &q, &mut evolved, len, stride);
        assert_eq!(evolved, got[..vars * stride], "{name} {isa:?} evolved-only");
        if pde.has_ncp() {
            let mut got = vec![f64::NAN; m * stride];
            pde.ncp_lanes(isa, d, &q, &grad, &mut got, len, stride);
            compare(&got, &mut |i, out| {
                pde.ncp(d, &nodes[i].0, &nodes[i].1, out)
            });
        }
    }
}

#[test]
fn every_pde_matches_pointwise_at_every_supported_isa() {
    let pdes: [(&str, Box<dyn LinearPde>); 7] = [
        ("elastic", Box::new(Elastic)),
        ("acoustic", Box::new(Acoustic)),
        ("maxwell", Box::new(Maxwell)),
        ("swe", Box::new(LinearizedSwe)),
        (
            "advection",
            Box::new(AdvectionSystem::new(5, [0.3, -0.7, 0.2])),
        ),
        (
            "advection_ncp",
            Box::new(AdvectionNcpSystem::new(3, [0.6, -0.1, 0.9])),
        ),
        (
            "rotating",
            Box::new(RotatingAdvection {
                omega: 1.0,
                center: [0.5; 3],
            }),
        ),
    ];
    for (name, pde) in &pdes {
        for isa in Isa::supported() {
            for stride in [4, 8, 16] {
                for len in [1, stride - 1, stride] {
                    check(name, pde.as_ref(), isa, stride, len);
                }
            }
        }
    }
}

/// The host-ISA convenience entry points are the lane functions at
/// `Isa::detect()`, bit for bit.
#[test]
fn vect_entry_points_are_the_lane_functions_at_the_host_isa() {
    let pde = LinearizedSwe;
    let (m, stride, len) = (pde.num_quantities(), 8, 7);
    let mut rng = Lcg::new(5);
    let mut q = vec![0.0; m * stride];
    for i in 0..len {
        let qi = node(&pde, &mut rng);
        for s in 0..m {
            q[s * stride + i] = qi[s];
        }
    }
    let (mut a, mut b) = (vec![f64::NAN; m * stride], vec![f64::NAN; m * stride]);
    pde.flux_vect(1, &q, &mut a, len, stride);
    pde.flux_lanes(Isa::detect(), 1, &q, &mut b, len, stride);
    assert_eq!(a, b);
    pde.ncp_vect(1, &q, &q, &mut a, len, stride);
    pde.ncp_lanes(Isa::detect(), 1, &q, &q, &mut b, len, stride);
    assert_eq!(a, b);
}
