//! Property-style equivalence suite for the packed register-tiled GEMM
//! kernels (deterministic seeded sweeps — hermetic build, no external
//! property-testing framework).
//!
//! Every host-supported kernel — SIMD and portable — must agree with the
//! scalar reference baseline [`gemm_naive`] within `1e-13` relative, on a
//! shape matrix built around the tile sizes (`MR/NR ∈ {4, 8, 16}`: each
//! dimension at 1, tile−1, tile, tile+1, odd tails) and the paper's
//! problem shapes (`m = 21` elastic quantities, order 2–5 node counts),
//! across strided, fused and shared-operand batches, with and without
//! plan-cached packed panels, including `α/β ≠ 1`.

use aderdg_gemm::{backends, gemm_naive, Gemm, GemmBackend, GemmBatch, GemmSpec};
use aderdg_tensor::Lcg;

/// Tolerance of the suite: SIMD kernels fuse multiply-add (one rounding
/// where the reference takes two) and sum in tile order, so equivalence is
/// relative `1e-13`, not bitwise.
const TOL: f64 = 1e-13;

fn assert_close(got: &[f64], want: &[f64], ctx: &dyn std::fmt::Display) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= TOL * (1.0 + w.abs()),
            "{ctx} idx={i}: {g} vs {w} (|Δ|={:.3e})",
            (g - w).abs()
        );
    }
}

/// The oracle over a batch: [`gemm_naive`] per item.
fn naive_batched(spec: &GemmSpec, batch: &GemmBatch, a: &[f64], b: &[f64], c: &mut [f64]) {
    for i in 0..batch.count {
        gemm_naive(
            spec,
            &a[i * batch.stride_a..],
            &b[i * batch.stride_b..],
            &mut c[i * batch.stride_c..],
        );
    }
}

fn supported_backends() -> Vec<&'static dyn GemmBackend> {
    backends()
        .iter()
        .copied()
        .filter(|b| b.supported())
        .collect()
}

/// The M/N/K axis values the suite sweeps: unit, around every registered
/// tile size (4, 8, 16 → tile−1, tile, tile+1), odd tails, and the paper
/// shapes (m = 21 quantities; order 2–5 ⇒ 3–6 nodes per dimension).
const DIMS: [usize; 12] = [1, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 21];

/// Contraction depths: unit, the order-2..5 node counts (3..=6), a tail
/// beyond the widest tile row, and one deep case.
const KS: [usize; 6] = [1, 3, 5, 6, 9, 13];

#[test]
fn single_call_matrix_matches_baseline() {
    let mut rng = Lcg::new(0x9ACC_ED01);
    for bk in supported_backends() {
        for &m in &DIMS {
            for &n in &DIMS {
                for &k in &KS {
                    // Cycle strides/scales deterministically per shape.
                    let (da, db, dc) = (rng.usize(0, 4), rng.usize(0, 4), rng.usize(0, 4));
                    let (alpha, beta) = match (m + n + k) % 3 {
                        0 => (1.0, 0.0),
                        1 => (1.0, 1.0),
                        _ => (-1.75, 0.5), // the α/β ≠ 1 leg
                    };
                    let spec = GemmSpec::dense(m, n, k)
                        .with_ld(k + da, n + db, n + dc)
                        .with_scale(alpha, beta);
                    let (ra, rb, rc) = spec.required_lens();
                    let a = rng.vec(ra.max(1), -2.0, 2.0);
                    let b = rng.vec(rb.max(1), -2.0, 2.0);
                    let c0 = rng.vec(rc.max(1), -2.0, 2.0);

                    let mut c_ref = c0.clone();
                    gemm_naive(&spec, &a, &b, &mut c_ref);

                    let plain = Gemm::with_backend(spec, bk);
                    let mut c_got = c0.clone();
                    plain.execute(&a, &b, &mut c_got);
                    assert_close(&c_got, &c_ref, &format!("{} {spec:?}", bk.name()));

                    // Same call with plan-cached panels on both sides:
                    // `pack_a`/`pack_b` round-trip through `execute`.
                    let mut c_packed = c0.clone();
                    plain
                        .with_packed_a(&a)
                        .with_packed_b(&b)
                        .execute(&a, &b, &mut c_packed);
                    assert_close(&c_packed, &c_ref, &format!("{} packed {spec:?}", bk.name()));
                }
            }
        }
    }
}

/// Batched execution across stride patterns — shared-A (operator·panels),
/// fused row-stacked shared-B (the AoSoA x-derivative), gapped strides,
/// fully strided — with per-batch panels on the shared operand.
#[test]
fn batched_matrix_matches_baseline() {
    let mut rng = Lcg::new(0x0BA7_C4ED);
    // (m, n, k, count, kind) — kind: 0 shared-A, 1 fused shared-B,
    // 2 gapped shared-A, 3 fully strided.
    let cases = [
        (4, 8, 5, 6, 0),
        (8, 8, 5, 4, 1),
        (5, 16, 6, 3, 1),
        (21, 8, 6, 5, 1), // paper shape: m=21 quantities, order-5 nodes
        (3, 24, 3, 7, 0), // order-2 nodes, wide fused columns
        (6, 40, 6, 4, 2),
        (7, 9, 4, 5, 3),
        (1, 1, 1, 3, 3),
        (9, 17, 13, 2, 0), // odd tails on every axis
    ];
    for bk in supported_backends() {
        for &(m, n, k, count, kind) in &cases {
            for &(alpha, beta) in &[(1.0, 0.0), (-0.5, 1.25)] {
                let spec = GemmSpec::dense(m, n, k).with_scale(alpha, beta);
                let batch = match kind {
                    0 => GemmBatch::shared_a(count, k * n, m * n),
                    1 => GemmBatch::shared_b(count, m * k, m * n),
                    2 => GemmBatch::shared_a(count, k * n + 5, m * n + 3),
                    _ => GemmBatch::new(count, m * k + 2, k * n + 1, m * n + 4),
                };
                let (ra, rb, rc) = batch.required_lens(&spec);
                let a = rng.vec(ra.max(1), -2.0, 2.0);
                let b = rng.vec(rb.max(1), -2.0, 2.0);
                let c0 = rng.vec(rc.max(1), -2.0, 2.0);

                let mut c_ref = c0.clone();
                naive_batched(&spec, &batch, &a, &b, &mut c_ref);

                let mut plan = Gemm::with_backend(spec, bk);
                let mut c_got = c0.clone();
                plan.execute_batched(&batch, &a, &b, &mut c_got);
                let ctx = format!("{} batch kind {kind} {spec:?}", bk.name());
                assert_close(&c_got, &c_ref, &ctx);

                // Panels on the shared operand (what the plan caches).
                if batch.stride_a == 0 {
                    plan = plan.with_packed_a(&a);
                }
                if batch.stride_b == 0 {
                    plan = plan.with_packed_b(&b);
                }
                let mut c_packed = c0.clone();
                plan.execute_batched(&batch, &a, &b, &mut c_packed);
                assert_close(&c_packed, &c_ref, &format!("{ctx} packed"));
            }
        }
    }
}

/// The plan-level path: a `Gemm` with cached operator panels must match
/// the same plan without them, on the spec shapes `StpPlan` produces
/// (order 2–5 node counts × acoustic m=6 and elastic m=21).
#[test]
fn plan_cached_panels_match_uncached_on_paper_shapes() {
    let mut rng = Lcg::new(0x09A9_E125);
    for bk in supported_backends() {
        for n_nodes in 3..=6 {
            for m_q in [6, 21] {
                // AoSoA d = 0 shape: C(m × n_pad) = A · Dᵀ, fused rows.
                // The cached `B` panels must stay valid across the row
                // fusion on both AVX-512 tiles: `n_pad = 8` runs 8×8,
                // `n_pad = 16` runs 4×16.
                for n_pad in [8, 16] {
                    let spec = GemmSpec {
                        m: m_q,
                        n: n_pad,
                        k: n_nodes,
                        lda: n_pad,
                        ldb: n_pad,
                        ldc: n_pad,
                        alpha: 2.5,
                        beta: 0.0,
                    };
                    let cells = 4 * n_nodes * n_nodes;
                    let stride = m_q * n_pad;
                    let batch = GemmBatch::shared_b(cells, stride, stride);
                    assert!(batch.fuse_rows(&spec).is_some());
                    let (ra, rb, rc) = batch.required_lens(&spec);
                    let a = rng.vec(ra, -1.0, 1.0);
                    let b = rng.vec(rb, -1.0, 1.0);

                    let plain = Gemm::with_backend(spec, bk);
                    let cached = Gemm::with_backend(spec, bk).with_packed_b(&b);

                    let mut c1 = vec![0.0; rc];
                    plain.execute_batched(&batch, &a, &b, &mut c1);
                    let mut c2 = vec![0.0; rc];
                    cached.execute_batched(&batch, &a, &b, &mut c2);
                    let mut c_ref = vec![0.0; rc];
                    naive_batched(&spec, &batch, &a, &b, &mut c_ref);

                    let ctx = format!("{} n={n_nodes} m={m_q} n_pad={n_pad} fused", bk.name());
                    assert_close(&c1, &c_ref, &ctx);
                    assert_close(&c2, &c_ref, &format!("{ctx} cached"));
                }

                // AoSoA d = 2 shape: C = D · B(block), D shared.
                let spec =
                    GemmSpec::dense(n_nodes, n_nodes * m_q * 8, n_nodes).with_scale(1.0, 1.0);
                let (_, rb, rc) = spec.required_lens();
                let batch = GemmBatch::shared_a(3, rb, rc);
                let (la, lb, lc) = batch.required_lens(&spec);
                let a = rng.vec(la, -1.0, 1.0);
                let b = rng.vec(lb, -1.0, 1.0);
                let c0 = rng.vec(lc, -1.0, 1.0);

                let cached = Gemm::with_backend(spec, bk).with_packed_a(&a);
                let mut c1 = c0.clone();
                cached.execute_batched(&batch, &a, &b, &mut c1);
                let mut c_ref = c0.clone();
                naive_batched(&spec, &batch, &a, &b, &mut c_ref);
                assert_close(
                    &c1,
                    &c_ref,
                    &format!("{} n={n_nodes} m={m_q} shared-A cached", bk.name()),
                );
            }
        }
    }
}

/// The exact-length slicing of the batched driver must reject strides
/// that run past the logical operand instead of silently reading on.
#[test]
#[should_panic(expected = "too short")]
fn oversized_stride_fails_loudly() {
    let spec = GemmSpec::dense(2, 2, 2);
    let batch = GemmBatch::new(3, 64, 0, 4);
    let a = vec![0.0; 16]; // item 2 starts at 128 — far out of bounds
    let b = vec![0.0; 4];
    let mut c = vec![0.0; 12];
    let portable = aderdg_gemm::backend_by_name("baseline").unwrap();
    Gemm::with_backend(spec, portable).execute_batched(&batch, &a, &b, &mut c);
}
