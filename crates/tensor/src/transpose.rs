//! Layout conversions (transposes) between AoS, SoA and AoSoA tensors.
//!
//! The AoSoA SplitCK kernel receives engine data in AoS, transposes it to
//! AoSoA on entry and back on exit (paper Sec. V-B); the rejected
//! alternative transposes AoS↔SoA around every user-function call
//! (Sec. V-A). Both are provided so the ablation benches can compare them.

use crate::layout::DofLayout;

/// Copies the useful entries of `src` (layout `src_l`) into `dst`
/// (layout `dst_l`). Padding entries of `dst` are left untouched, so a
/// zero-initialized destination keeps the zero-padding invariant.
///
/// Panics if the layouts disagree on `n`/`m` or a buffer is too short.
pub fn convert(src: &[f64], src_l: &DofLayout, dst: &mut [f64], dst_l: &DofLayout) {
    assert_eq!(src_l.n, dst_l.n, "layout n mismatch");
    assert_eq!(src_l.m, dst_l.m, "layout m mismatch");
    assert!(src.len() >= src_l.len(), "source buffer too short");
    assert!(dst.len() >= dst_l.len(), "destination buffer too short");
    let (n, m) = (src_l.n, src_l.m);
    for k3 in 0..n {
        for k2 in 0..n {
            for k1 in 0..n {
                for s in 0..m {
                    dst[dst_l.idx(k3, k2, k1, s)] = src[src_l.idx(k3, k2, k1, s)];
                }
            }
        }
    }
}

/// AoS → AoSoA fast path: for each `(k3, k2)` plane, transposes the
/// `n × m_pad` AoS block into the `m × n_pad` AoSoA block. This is the
/// kernel-entry transpose of Sec. V-B. Every entry of `dst` is written —
/// the padding lanes `k1 ∈ [n, n_pad)` as zeros — so the destination
/// needs no prior clearing.
pub fn aos_to_aosoa(src: &[f64], src_l: &DofLayout, dst: &mut [f64], dst_l: &DofLayout) {
    debug_assert_eq!(src_l.kind, crate::layout::LayoutKind::Aos);
    debug_assert_eq!(dst_l.kind, crate::layout::LayoutKind::AoSoA);
    assert_eq!(src_l.n, dst_l.n, "layout n mismatch");
    assert_eq!(src_l.m, dst_l.m, "layout m mismatch");
    assert!(src.len() >= src_l.len(), "source buffer too short");
    assert!(dst.len() >= dst_l.len(), "destination buffer too short");
    let (n, m) = (src_l.n, src_l.m);
    let (m_pad, n_pad) = (src_l.m_pad(), dst_l.n_pad());
    for plane in 0..n * n {
        let sb = plane * n * m_pad;
        let db = plane * m * n_pad;
        let src_block = &src[sb..sb + n * m_pad];
        let dst_block = &mut dst[db..db + m * n_pad];
        for k1 in 0..n {
            let row = &src_block[k1 * m_pad..k1 * m_pad + m];
            for (s, &v) in row.iter().enumerate() {
                dst_block[s * n_pad + k1] = v;
            }
        }
        if n < n_pad {
            for line in dst_block.chunks_exact_mut(n_pad) {
                line[n..].fill(0.0);
            }
        }
    }
}

/// AoSoA → AoS fast path (kernel-exit transpose of Sec. V-B); writes
/// every entry of `dst`, padding included (see [`aosoa_to_aos_rows`]).
pub fn aosoa_to_aos(src: &[f64], src_l: &DofLayout, dst: &mut [f64], dst_l: &DofLayout) {
    aosoa_to_aos_rows(src, src_l, dst, dst_l, src_l.m);
}

/// AoSoA → AoS transpose of the first `rows` quantities only: the other
/// quantities and the padding entries `s ∈ [rows, m_pad)` of every node
/// are written as zeros, so the destination needs no prior clearing. The
/// AoSoA kernel uses this for the flux tensors, whose parameter rows are
/// zero by the `LinearPde` contract.
pub fn aosoa_to_aos_rows(
    src: &[f64],
    src_l: &DofLayout,
    dst: &mut [f64],
    dst_l: &DofLayout,
    rows: usize,
) {
    debug_assert_eq!(src_l.kind, crate::layout::LayoutKind::AoSoA);
    debug_assert_eq!(dst_l.kind, crate::layout::LayoutKind::Aos);
    assert_eq!(src_l.n, dst_l.n, "layout n mismatch");
    assert_eq!(src_l.m, dst_l.m, "layout m mismatch");
    assert!(rows <= src_l.m, "more rows than quantities");
    assert!(src.len() >= src_l.len(), "source buffer too short");
    assert!(dst.len() >= dst_l.len(), "destination buffer too short");
    let (n, m) = (src_l.n, src_l.m);
    let (n_pad, m_pad) = (src_l.n_pad(), dst_l.m_pad());
    for plane in 0..n * n {
        let sb = plane * m * n_pad;
        let db = plane * n * m_pad;
        let src_block = &src[sb..sb + m * n_pad];
        let dst_block = &mut dst[db..db + n * m_pad];
        for (k1, node) in dst_block.chunks_exact_mut(m_pad).enumerate() {
            for (s, v) in node[..rows].iter_mut().enumerate() {
                *v = src_block[s * n_pad + k1];
            }
            node[rows..].fill(0.0);
        }
    }
}

/// Transposes a dense row-major `rows × cols` matrix into a new
/// `cols × rows` matrix (used to precompute `Dᵀ` for the AoSoA x-derivative,
/// `Cᵀ = Bᵀ Aᵀ`, Sec. V-B).
pub fn transpose_matrix(a: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    assert!(a.len() >= rows * cols, "matrix buffer too short");
    let mut out = vec![0.0; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = a[i * cols + j];
        }
    }
    out
}

/// Transposes a dense row-major `rows × cols` matrix into a padded
/// row-major `cols × ld` buffer (rows padded with zeros up to `ld`).
pub fn transpose_matrix_padded(a: &[f64], rows: usize, cols: usize, ld: usize) -> Vec<f64> {
    assert!(ld >= rows, "padded leading dimension shorter than rows");
    assert!(a.len() >= rows * cols, "matrix buffer too short");
    let mut out = vec![0.0; cols * ld];
    for i in 0..rows {
        for j in 0..cols {
            out[j * ld + i] = a[i * cols + j];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{DofLayout, LayoutKind};
    use crate::padding::SimdWidth;

    fn filled(l: &DofLayout) -> Vec<f64> {
        let mut v = vec![0.0; l.len()];
        for k3 in 0..l.n {
            for k2 in 0..l.n {
                for k1 in 0..l.n {
                    for s in 0..l.m {
                        v[l.idx(k3, k2, k1, s)] = (((k3 * 100 + k2) * 100 + k1) * 100 + s) as f64;
                    }
                }
            }
        }
        v
    }

    #[test]
    fn generic_convert_all_pairs() {
        let kinds = [LayoutKind::Aos, LayoutKind::Soa, LayoutKind::AoSoA];
        for &a in &kinds {
            for &b in &kinds {
                let la = DofLayout::new(4, 5, SimdWidth::W8, a);
                let lb = DofLayout::new(4, 5, SimdWidth::W4, b);
                let src = filled(&la);
                let mut dst = vec![0.0; lb.len()];
                convert(&src, &la, &mut dst, &lb);
                assert_eq!(dst, filled(&lb), "{a:?} -> {b:?}");
            }
        }
    }

    #[test]
    fn fast_paths_match_generic() {
        let la = DofLayout::aos(6, 9, SimdWidth::W8);
        let lb = DofLayout::aosoa(6, 9, SimdWidth::W8);
        let src = filled(&la);

        let mut fast = vec![0.0; lb.len()];
        aos_to_aosoa(&src, &la, &mut fast, &lb);
        let mut slow = vec![0.0; lb.len()];
        convert(&src, &la, &mut slow, &lb);
        assert_eq!(fast, slow);

        let mut back = vec![0.0; la.len()];
        aosoa_to_aos(&fast, &lb, &mut back, &la);
        assert_eq!(back, src);
    }

    #[test]
    fn roundtrip_preserves_padding_zeros() {
        let la = DofLayout::aos(3, 3, SimdWidth::W8);
        let lb = DofLayout::aosoa(3, 3, SimdWidth::W8);
        let src = filled(&la);
        let mut mid = vec![0.0; lb.len()];
        aos_to_aosoa(&src, &la, &mut mid, &lb);
        // Padding entries (k1 in 3..8 for every (k3,k2,s)) must stay zero.
        for plane in 0..9 {
            for s in 0..3 {
                for k1 in 3..8 {
                    assert_eq!(mid[(plane * 3 + s) * 8 + k1], 0.0);
                }
            }
        }
    }

    #[test]
    fn fast_paths_write_their_own_padding() {
        // NaN-poisoned destinations come out identical to zeroed ones.
        let la = DofLayout::aos(3, 5, SimdWidth::W8);
        let lb = DofLayout::aosoa(3, 5, SimdWidth::W8);
        let src = filled(&la);
        let mut clean = vec![0.0; lb.len()];
        aos_to_aosoa(&src, &la, &mut clean, &lb);
        let mut poisoned = vec![f64::NAN; lb.len()];
        aos_to_aosoa(&src, &la, &mut poisoned, &lb);
        assert_eq!(poisoned, clean);

        let mut back = vec![f64::NAN; la.len()];
        aosoa_to_aos(&clean, &lb, &mut back, &la);
        assert_eq!(back, src);

        // Leading rows only: the rest of every node is zero.
        let mut head = vec![f64::NAN; la.len()];
        aosoa_to_aos_rows(&clean, &lb, &mut head, &la, 2);
        for (node, full) in head.chunks(la.m_pad()).zip(src.chunks(la.m_pad())) {
            assert_eq!(node[..2], full[..2]);
            assert!(node[2..].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn dense_transpose() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        assert_eq!(
            transpose_matrix(&a, 2, 3),
            vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]
        );
        let p = transpose_matrix_padded(&a, 2, 3, 4);
        assert_eq!(
            p,
            vec![1.0, 4.0, 0.0, 0.0, 2.0, 5.0, 0.0, 0.0, 3.0, 6.0, 0.0, 0.0]
        );
    }

    #[test]
    fn double_transpose_is_identity() {
        let a: Vec<f64> = (0..12).map(|x| x as f64).collect(); // 3x4
        let t = transpose_matrix(&a, 3, 4);
        let tt = transpose_matrix(&t, 4, 3);
        assert_eq!(tt, a);
    }
}
