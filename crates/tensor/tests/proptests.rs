//! Property-style tests for the layout substrate, driven by deterministic
//! seeded sweeps (the container builds hermetically, so no external
//! property-testing framework is used — properties are checked over
//! exhaustive small domains plus LCG-random data).

use aderdg_tensor::{
    aos_to_aosoa, aosoa_to_aos, convert, pad_to, transpose_matrix, AlignedVec, DofLayout, Isa,
    LayoutKind, Lcg, ALIGNMENT,
};

const KINDS: [LayoutKind; 2] = [LayoutKind::Aos, LayoutKind::AoSoA];

#[test]
fn padding_is_minimal_multiple() {
    for n in 0usize..200 {
        for w in 1usize..16 {
            let p = pad_to(n, w);
            assert!(p >= n);
            assert_eq!(p % w, 0);
            assert!(p < n + w, "n={n} w={w} p={p}");
        }
    }
}

#[test]
fn aligned_vec_roundtrip() {
    for len in [0usize, 1, 2, 7, 64, 299] {
        let mut rng = Lcg::new(len as u64 + 11);
        let data: Vec<f64> = (0..len).map(|_| rng.f64(-1e9, 1e9)).collect();
        let v = AlignedVec::from_slice(&data);
        assert_eq!(v.as_slice(), data.as_slice());
        if !data.is_empty() {
            assert_eq!(v.base_addr() % ALIGNMENT, 0);
        }
    }
}

#[test]
fn layout_indices_bijective() {
    for n in 1usize..7 {
        for m in 1usize..12 {
            for w in Isa::ALL {
                for kind in KINDS {
                    let l = DofLayout::new(n, m, w, kind);
                    let mut seen = std::collections::HashSet::new();
                    for k3 in 0..n {
                        for k2 in 0..n {
                            for k1 in 0..n {
                                for s in 0..m {
                                    let i = l.idx(k3, k2, k1, s);
                                    assert!(i < l.len());
                                    assert!(seen.insert(i), "duplicate index {i}");
                                }
                            }
                        }
                    }
                    assert_eq!(seen.len(), l.useful_len());
                }
            }
        }
    }
}

#[test]
fn convert_roundtrips_any_pair() {
    for (n, m) in [(1usize, 1usize), (3, 5), (5, 9), (4, 2)] {
        for wa in Isa::ALL {
            for wb in Isa::ALL {
                for ka in KINDS {
                    for kb in KINDS {
                        let la = DofLayout::new(n, m, wa, ka);
                        let lb = DofLayout::new(n, m, wb, kb);
                        let mut rng = Lcg::new((n * 31 + m) as u64 ^ 0xC0FFEE);
                        let mut src = vec![0.0; la.len()];
                        for k3 in 0..n {
                            for k2 in 0..n {
                                for k1 in 0..n {
                                    for s in 0..m {
                                        src[la.idx(k3, k2, k1, s)] = rng.f64(-1.0, 1.0);
                                    }
                                }
                            }
                        }
                        let mut mid = vec![0.0; lb.len()];
                        convert(&src, &la, &mut mid, &lb);
                        let mut back = vec![0.0; la.len()];
                        convert(&mid, &lb, &mut back, &la);
                        assert_eq!(back, src, "n={n} m={m} {ka:?}->{kb:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn fast_transposes_match_generic() {
    for n in 1usize..7 {
        for m in [1usize, 3, 8, 11] {
            for w in Isa::ALL {
                let la = DofLayout::aos(n, m, w);
                let lb = DofLayout::aosoa(n, m, w);
                let mut rng = Lcg::new((n * 131 + m) as u64 + 7);
                let mut src = vec![0.0; la.len()];
                for v in src.iter_mut() {
                    *v = rng.f64(-1.0, 1.0);
                }
                // Zero the AoS padding so the buffers are layout-valid.
                for k in 0..n * n * n {
                    for s in m..la.m_pad() {
                        src[k * la.m_pad() + s] = 0.0;
                    }
                }
                let mut fast = vec![0.0; lb.len()];
                aos_to_aosoa(&src, &la, &mut fast, &lb);
                let mut slow = vec![0.0; lb.len()];
                convert(&src, &la, &mut slow, &lb);
                assert_eq!(fast, slow, "n={n} m={m} {w:?}");
                let mut back = vec![0.0; la.len()];
                aosoa_to_aos(&fast, &lb, &mut back, &la);
                assert_eq!(back, src);
            }
        }
    }
}

#[test]
fn transpose_involution() {
    for rows in 1usize..10 {
        for cols in 1usize..10 {
            let mut rng = Lcg::new((rows * 17 + cols) as u64);
            let a: Vec<f64> = (0..rows * cols).map(|_| rng.f64(-1.0, 1.0)).collect();
            let t = transpose_matrix(&a, rows, cols);
            let tt = transpose_matrix(&t, cols, rows);
            assert_eq!(tt, a);
        }
    }
}
