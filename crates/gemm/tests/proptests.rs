//! Property-style equivalence of the planned kernels vs the naive
//! reference, across random shapes, strides, scales and ISA caps —
//! deterministic seeded sweeps (hermetic build — no external
//! property-testing framework).

use aderdg_gemm::{gemm_naive, select_backend, Gemm, GemmSpec, Isa};
use aderdg_tensor::Lcg;

const ISAS: [Isa; 3] = [Isa::Baseline, Isa::Avx2, Isa::Avx512];

fn run_case(spec: GemmSpec, isa: Isa, rng: &mut Lcg) {
    let (ra, rb, rc) = spec.required_lens();
    let a = rng.vec(ra.max(1), -2.0, 2.0);
    let b = rng.vec(rb.max(1), -2.0, 2.0);
    let c0 = rng.vec(rc.max(1), -2.0, 2.0);

    let mut c_ref = c0.clone();
    gemm_naive(&spec, &a, &b, &mut c_ref);

    let mut c_got = c0;
    Gemm::with_isa(spec, isa).execute(&a, &b, &mut c_got);

    for (i, (g, w)) in c_got.iter().zip(&c_ref).enumerate() {
        assert!(
            (g - w).abs() <= 1e-10 * (1.0 + w.abs()),
            "spec={spec:?} isa={isa:?} idx={i}: {g} vs {w}"
        );
    }
}

#[test]
fn planned_matches_naive() {
    // 128 random cases per ISA cap, mirroring the former proptest config.
    for isa in ISAS {
        let mut rng = Lcg::new(0xA11CE ^ isa.width_doubles() as u64);
        for _ in 0..128 {
            let m = rng.usize(1, 24);
            let n = rng.usize(1, 40);
            let k = rng.usize(1, 16);
            let (da, db, dc) = (rng.usize(0, 6), rng.usize(0, 6), rng.usize(0, 6));
            let alpha = rng.f64(-2.0, 2.0);
            let beta = [0.0, 1.0, -1.0, 0.5][rng.usize(0, 4)];
            let spec = GemmSpec::dense(m, n, k)
                .with_ld(k + da, n + db, n + dc)
                .with_scale(alpha, beta);
            run_case(spec, isa, &mut rng);
        }
    }
}

#[test]
fn every_supported_backend_matches_naive() {
    // The registry-style sweep: whatever `select_backend` yields per cap
    // must agree with the reference on the same inputs.
    for isa in ISAS {
        let backend = select_backend(isa);
        let mut rng = Lcg::new(0xBACC ^ isa.width_doubles() as u64);
        for _ in 0..32 {
            let m = rng.usize(1, 12);
            let n = rng.usize(1, 33);
            let k = rng.usize(1, 12);
            let spec = GemmSpec::dense(m, n, k);
            let a = rng.vec(m * k, -2.0, 2.0);
            let b = rng.vec(k * n, -2.0, 2.0);
            let mut c_ref = vec![0.0; m * n];
            gemm_naive(&spec, &a, &b, &mut c_ref);
            let mut c_got = vec![0.0; m * n];
            Gemm::with_backend(spec, backend).execute(&a, &b, &mut c_got);
            for (g, w) in c_got.iter().zip(&c_ref) {
                assert!(
                    (g - w).abs() <= 1e-10 * (1.0 + w.abs()),
                    "backend={}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn gemm_is_linear_in_a() {
    // (s·A)·B == s·(A·B) — linearity the CK predictor relies on.
    let mut rng = Lcg::new(42);
    for _ in 0..64 {
        let m = rng.usize(1, 8);
        let n = rng.usize(1, 20);
        let k = rng.usize(1, 8);
        let s = rng.f64(-3.0, 3.0);
        let spec = GemmSpec::dense(m, n, k);
        let a = rng.vec(m * k, -2.0, 2.0);
        let b = rng.vec(k * n, -2.0, 2.0);
        let sa: Vec<f64> = a.iter().map(|&x| s * x).collect();

        let plan = Gemm::new(spec);
        let mut c1 = vec![0.0; m * n];
        plan.execute(&sa, &b, &mut c1);
        let mut c2 = vec![0.0; m * n];
        plan.execute(&a, &b, &mut c2);

        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - s * y).abs() < 1e-9 * (1.0 + (s * y).abs()));
        }
    }
}

#[test]
fn accumulation_equals_two_step() {
    // C = A·B1 then C += A·B2  ==  C = A·(B1 + B2).
    let mut rng = Lcg::new(77);
    for _ in 0..64 {
        let m = rng.usize(1, 8);
        let n = rng.usize(1, 20);
        let k = rng.usize(1, 8);
        let a = rng.vec(m * k, -2.0, 2.0);
        let b1 = rng.vec(k * n, -2.0, 2.0);
        let b2 = rng.vec(k * n, -2.0, 2.0);
        let bsum: Vec<f64> = b1.iter().zip(&b2).map(|(x, y)| x + y).collect();

        let overwrite = Gemm::new(GemmSpec::dense(m, n, k));
        let acc = Gemm::new(GemmSpec::dense(m, n, k).accumulate());

        let mut c = vec![0.0; m * n];
        overwrite.execute(&a, &b1, &mut c);
        acc.execute(&a, &b2, &mut c);

        let mut c_ref = vec![0.0; m * n];
        overwrite.execute(&a, &bsum, &mut c_ref);

        for (x, y) in c.iter().zip(&c_ref) {
            assert!((x - y).abs() < 1e-9 * (1.0 + y.abs()));
        }
    }
}
