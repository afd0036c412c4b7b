//! One ISA decision per plan: `StpPlan::with_gemm_backend` puts the GEMM
//! tiles *and* the lane kernels of the AoSoA predictor (vectorised user
//! functions, Taylor axpy, face projection) on the chosen backend's ISA
//! level. At every level the host supports, the AoSoA kernel must agree
//! with the scalar generic kernel on the paper's elastic configuration.

use aderdg::core::kernels::{StpInputs, StpOutputs};
use aderdg::core::{KernelRegistry, StpConfig, StpPlan};
use aderdg::gemm::backends;
use aderdg::pde::{Elastic, LinearPde, Material};
use aderdg::tensor::Lcg;

/// Random evolved quantities over a mildly curvilinear, per-node varying
/// elastic medium.
fn elastic_state(plan: &StpPlan, seed: u64) -> Vec<f64> {
    let mut rng = Lcg::new(seed);
    let mat = Material {
        rho: 2.7,
        cp: 6.0,
        cs: 3.46,
    };
    let mut q0 = vec![0.0; plan.aos.len()];
    for (k, node) in q0.chunks_exact_mut(plan.aos.m_pad()).enumerate() {
        node[..9].copy_from_slice(&rng.vec(9, -0.5, 0.5));
        let mut jac = Elastic::IDENTITY_JAC;
        jac[1] = 0.05 * ((k % 5) as f64 - 2.0);
        jac[5] = 0.03 * ((k % 3) as f64 - 1.0);
        Elastic::set_params(&mut node[..21], mat, &jac);
    }
    q0
}

#[test]
fn aosoa_matches_generic_on_every_supported_backend() {
    let registry = KernelRegistry::global();
    let generic = registry.resolve("generic").expect("builtin kernel");
    let aosoa = registry.resolve("aosoa_splitck").expect("builtin kernel");
    let pde = Elastic;
    for backend in backends().iter().filter(|b| b.supported()) {
        for n in [3, 4, 7, 8] {
            let cfg = StpConfig::new(n, pde.num_quantities());
            let plan = StpPlan::with_gemm_backend(cfg, [1.0, 0.8, 1.25], *backend);
            assert_eq!(plan.isa(), backend.isa(), "lanes follow the GEMM backend");
            let q0 = elastic_state(&plan, 17 + n as u64);
            let inputs = StpInputs {
                q0: &q0,
                dt: 0.01,
                source: None,
            };
            let run = |kernel: &dyn aderdg::core::StpKernel| {
                let mut out = StpOutputs::new(&plan);
                let mut scratch = kernel.make_scratch(&plan);
                kernel.run(&plan, &pde, scratch.as_mut(), &inputs, &mut out);
                out
            };
            let (want, got) = (run(generic), run(aosoa));
            let tensors = |o: &StpOutputs| -> Vec<f64> {
                let all = o.favg.iter().chain(&o.qface).chain(&o.fface);
                all.chain([&o.qavg]).flat_map(|t| t.to_vec()).collect()
            };
            for (i, (a, b)) in tensors(&got).iter().zip(&tensors(&want)).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-10 * (1.0 + b.abs()),
                    "{} n={n} entry {i}: {a} vs {b}",
                    backend.name()
                );
            }
        }
    }
}
