//! Layout descriptors for the element-local degree-of-freedom tensors.
//!
//! A DG element of order `N` stores, at each of the `n = N` quadrature nodes
//! per dimension, `m` quantities. The resulting 4-D tensor over
//! `(k3, k2, k1, s)` — z, y, x node indices and the quantity index — is
//! stored in one of two layouts (paper Sec. III-A and V-A):
//!
//! * **AoS** `A[k3][k2][k1][s]` — quantity fastest; what the engine API and
//!   the generic / LoG / SplitCK kernels use. The `s` extent is zero-padded
//!   to the SIMD width.
//! * **AoSoA** `A[k3][k2][s][k1]` — the paper's hybrid: pseudo-AoS for the
//!   GEMMs, trivially-extractable SoA x-lines for the user functions. The
//!   `k1` extent is padded.

use crate::padding::pad_to_simd;
use crate::simd::Isa;

/// Which of the two storage orders a [`DofLayout`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// `A[k3][k2][k1][s]`, `s` padded (quantity fastest).
    Aos,
    /// `A[k3][k2][s][k1]`, `k1` padded (hybrid, Sec. V).
    AoSoA,
}

/// Shape + storage-order descriptor for one element-local DOF tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DofLayout {
    /// Quadrature nodes per spatial dimension (= order `N` of the scheme).
    pub n: usize,
    /// Stored quantities per node (evolved variables + material parameters).
    pub m: usize,
    /// SIMD level whose register width the leading dimension is padded
    /// to.
    pub width: Isa,
    /// Storage order.
    pub kind: LayoutKind,
}

impl DofLayout {
    /// Creates a layout descriptor. `n` and `m` must be non-zero.
    pub fn new(n: usize, m: usize, width: Isa, kind: LayoutKind) -> Self {
        assert!(n > 0 && m > 0, "DofLayout requires n > 0 and m > 0");
        Self { n, m, width, kind }
    }

    /// AoS layout shortcut.
    pub fn aos(n: usize, m: usize, width: Isa) -> Self {
        Self::new(n, m, width, LayoutKind::Aos)
    }

    /// AoSoA layout shortcut.
    pub fn aosoa(n: usize, m: usize, width: Isa) -> Self {
        Self::new(n, m, width, LayoutKind::AoSoA)
    }

    /// Padded extent of the quantity dimension (`m_pad`).
    #[inline]
    pub fn m_pad(&self) -> usize {
        pad_to_simd(self.m, self.width)
    }

    /// Padded extent of the x dimension (`n_pad`).
    #[inline]
    pub fn n_pad(&self) -> usize {
        pad_to_simd(self.n, self.width)
    }

    /// Total number of doubles a buffer of this layout holds
    /// (including padding).
    #[inline]
    pub fn len(&self) -> usize {
        let n = self.n;
        match self.kind {
            LayoutKind::Aos => n * n * n * self.m_pad(),
            LayoutKind::AoSoA => n * n * self.m * self.n_pad(),
        }
    }

    /// True when the layout stores no unpadded entries — never the case for
    /// valid layouts; provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of *useful* (non-padding) doubles.
    #[inline]
    pub fn useful_len(&self) -> usize {
        self.n * self.n * self.n * self.m
    }

    /// Linear index of node `(k3, k2, k1)`, quantity `s`.
    #[inline]
    pub fn idx(&self, k3: usize, k2: usize, k1: usize, s: usize) -> usize {
        debug_assert!(k3 < self.n && k2 < self.n && k1 < self.n && s < self.m);
        let n = self.n;
        match self.kind {
            LayoutKind::Aos => ((k3 * n + k2) * n + k1) * self.m_pad() + s,
            LayoutKind::AoSoA => ((k3 * n + k2) * self.m + s) * self.n_pad() + k1,
        }
    }

    /// Stride between consecutive `k2` values at fixed `(k3, k1, s)`.
    #[inline]
    pub fn stride_k2(&self) -> usize {
        match self.kind {
            LayoutKind::Aos => self.n * self.m_pad(),
            LayoutKind::AoSoA => self.m * self.n_pad(),
        }
    }

    /// Bytes the tensor occupies — the quantity entering the memory-footprint
    /// comparison of Sec. IV-A.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.len() * std::mem::size_of::<f64>()
    }
}

/// Layout for a face tensor: the `n × n` face nodes times `m` quantities in
/// AoS order `F[k2][k1][s]` with padded `s`, matching the engine's face
/// arrays (inputs to the corrector / Riemann solve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaceLayout {
    /// Nodes per face dimension.
    pub n: usize,
    /// Stored quantities.
    pub m: usize,
    /// SIMD level the quantity dimension is padded for.
    pub width: Isa,
}

impl FaceLayout {
    /// Creates a face-tensor descriptor.
    pub fn new(n: usize, m: usize, width: Isa) -> Self {
        assert!(n > 0 && m > 0, "FaceLayout requires n > 0 and m > 0");
        Self { n, m, width }
    }

    /// Padded quantity extent.
    #[inline]
    pub fn m_pad(&self) -> usize {
        pad_to_simd(self.m, self.width)
    }

    /// Total doubles including padding.
    #[inline]
    pub fn len(&self) -> usize {
        self.n * self.n * self.m_pad()
    }

    /// True if the layout holds no entries (never for valid layouts).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of face node `(k2, k1)`, quantity `s`.
    #[inline]
    pub fn idx(&self, k2: usize, k1: usize, s: usize) -> usize {
        debug_assert!(k2 < self.n && k1 < self.n && s < self.m);
        (k2 * self.n + k1) * self.m_pad() + s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: Isa = Isa::Avx2;

    #[test]
    fn aos_indexing_contract() {
        let l = DofLayout::aos(3, 5, W);
        assert_eq!(l.m_pad(), 8);
        assert_eq!(l.len(), 27 * 8);
        assert_eq!(l.idx(0, 0, 0, 0), 0);
        assert_eq!(l.idx(0, 0, 0, 4), 4);
        assert_eq!(l.idx(0, 0, 1, 0), 8);
        assert_eq!(l.idx(0, 1, 0, 0), 24);
        assert_eq!(l.idx(1, 0, 0, 0), 72);
    }

    #[test]
    fn aosoa_indexing_contract() {
        let l = DofLayout::aosoa(6, 3, Isa::Avx512);
        assert_eq!(l.n_pad(), 8);
        assert_eq!(l.len(), 36 * 3 * 8);
        // A[k3][k2][s][k1]
        assert_eq!(l.idx(0, 0, 1, 0), 1);
        assert_eq!(l.idx(0, 0, 0, 1), 8);
        assert_eq!(l.idx(0, 1, 0, 0), 24);
        assert_eq!(l.idx(1, 0, 0, 0), 144);
    }

    #[test]
    fn indices_unique_and_in_bounds() {
        for kind in [LayoutKind::Aos, LayoutKind::AoSoA] {
            let l = DofLayout::new(5, 9, Isa::Avx512, kind);
            let mut seen = std::collections::HashSet::new();
            for k3 in 0..5 {
                for k2 in 0..5 {
                    for k1 in 0..5 {
                        for s in 0..9 {
                            let i = l.idx(k3, k2, k1, s);
                            assert!(i < l.len(), "{kind:?} out of bounds");
                            assert!(seen.insert(i), "{kind:?} duplicate index");
                        }
                    }
                }
            }
            assert_eq!(seen.len(), l.useful_len());
        }
    }

    #[test]
    fn strides_match_idx_deltas() {
        for kind in [LayoutKind::Aos, LayoutKind::AoSoA] {
            let l = DofLayout::new(4, 3, Isa::Avx2, kind);
            assert_eq!(l.idx(0, 1, 0, 0) - l.idx(0, 0, 0, 0), l.stride_k2());
        }
    }

    #[test]
    fn footprint_bytes() {
        // Paper Sec. IV-A: m = 25, d = 3, generic temporaries O(N^{d+1} m d)
        // exceed 1 MB around N = 6. A single AoS DOF tensor at N = 6,
        // m = 25 (padded to 32 at AVX-512):
        let l = DofLayout::aos(6, 25, Isa::Avx512);
        assert_eq!(l.bytes(), 6 * 6 * 6 * 32 * 8);
    }

    #[test]
    fn face_layout() {
        let f = FaceLayout::new(4, 9, Isa::Avx512);
        assert_eq!(f.m_pad(), 16);
        assert_eq!(f.len(), 16 * 16);
        assert_eq!(f.idx(0, 0, 8), 8);
        assert_eq!(f.idx(0, 1, 0), 16);
        assert_eq!(f.idx(1, 0, 0), 64);
    }

    #[test]
    #[should_panic]
    fn zero_n_rejected() {
        let _ = DofLayout::aos(0, 3, W);
    }
}
