//! The packed register-tiled GEMM driver (the LIBXSMM-style kernel
//! layer, paper Sec. II-D): BLIS-style panel packing plus one generic
//! MR×NR tiled body, instantiated per ISA by [`crate::tiles`].
//!
//! The driver walks *packed panels* — operands re-laid-out so the inner
//! loop reads both matrices with unit stride and zero edge handling:
//!
//! * `A` is packed into row panels of `MR` rows: panel `p` stores
//!   `A[p·MR + r][l]` at `[l·MR + r]` (column-major within the panel), so
//!   one scalar broadcast per row feeds the FMA chain.
//! * `B` is packed into column panels of `NR` columns: panel `p` stores
//!   `B[l][p·NR + t]` at `[l·NR + t]`, one contiguous vector row per `l`.
//!
//! Edge tiles run at full vector width wherever the DG shapes produce
//! them. A row edge (`rows < MR`) of a plan-packed `A` runs the panel's
//! zero-padded rows; a row edge of a raw `A` runs `rows` one-row tiles
//! straight from the buffer. Either way its `rows` accumulator rows are
//! stored with the same vector sequence as a full tile. Only a column
//! edge (`n % NR ≠ 0`, which the padded DG shapes rarely produce) packs
//! its `B` columns zero-padded and stores through a scalar corner loop.
//! Every `C` element keeps one accumulation order on every path — the sum
//! over `l` in order, then `α·acc`, then `+ β·C` — so the edge handling
//! never changes a bit of the result.
//!
//! The body is written once, generically over the portable SIMD layer
//! ([`crate::simd`]) with the tile shape as const generics; each
//! [`GemmBackend`] in [`crate::tiles`] pins one register shape inside a
//! `#[target_feature]` wrapper around the driver's loop over a whole
//! [`GemmBatch`]: one check and one contraction-depth dispatch per
//! batch, a single call being the one-item batch.

use crate::backend::GemmBackend;
use crate::simd::SimdF64;
use crate::spec::{GemmBatch, GemmSpec};
use std::mem::MaybeUninit;

/// Largest `MR` any registered kernel uses (bounds stack scratch).
pub const MR_CAP: usize = 8;
/// Largest `NR` any registered kernel uses (bounds stack scratch).
pub const NR_CAP: usize = 16;
/// Largest `k` whose column-edge packing fits in stack scratch; deeper
/// contractions (never produced by the DG plans, which contract over at
/// most `order + 1 ≤ 12` nodes) fall back to a heap buffer.
const K_STACK: usize = 32;

/// Which operand a [`PackedPanels`] buffer was packed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelSide {
    /// Left operand: row panels of `MR` rows.
    A,
    /// Right operand: column panels of `NR` columns.
    B,
}

/// An operand repacked into zero-padded tile panels.
///
/// Produced by [`GemmBackend::pack_a`] /
/// [`pack_b`](GemmBackend::pack_b) (or the free functions
/// [`pack_a_panels`] / [`pack_b_panels`]); cached
/// per plan for operands that are reused across many calls — the DG
/// operator matrices, which every cell block in every step multiplies by.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedPanels {
    data: Vec<f64>,
    tile: usize,
    k: usize,
    len: usize,
    side: PanelSide,
}

impl PackedPanels {
    /// Which operand side these panels serve.
    pub fn side(&self) -> PanelSide {
        self.side
    }

    /// Panel tile size (`MR` for A-side, `NR` for B-side).
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Contraction depth the panels were packed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical extent covered (`m` for A-side, `n` for B-side).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the packed extent is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of panels.
    pub fn panels(&self) -> usize {
        self.len.div_ceil(self.tile)
    }

    /// One zero-padded panel: `tile · k` doubles.
    pub fn panel(&self, i: usize) -> &[f64] {
        let pl = self.tile * self.k;
        &self.data[i * pl..(i + 1) * pl]
    }

    /// Whether these panels fit a kernel expecting the given geometry.
    pub fn matches(&self, side: PanelSide, tile: usize, k: usize, len: usize) -> bool {
        self.side == side && self.tile == tile && self.k == k && self.len == len
    }
}

/// Packs the left operand of `spec` into zero-padded `mr`-row panels.
pub fn pack_a_panels(spec: &GemmSpec, a: &[f64], mr: usize) -> PackedPanels {
    assert!(mr >= 1, "mr must be positive");
    let (ra, _, _) = spec.required_lens();
    assert!(a.len() >= ra, "A too short to pack: {} < {ra}", a.len());
    let panels = spec.m.div_ceil(mr);
    let mut data = vec![0.0; panels * mr * spec.k];
    for p in 0..panels {
        let i0 = p * mr;
        let rows = mr.min(spec.m - i0);
        let dst = &mut data[p * mr * spec.k..][..mr * spec.k];
        for r in 0..rows {
            for l in 0..spec.k {
                dst[l * mr + r] = a[(i0 + r) * spec.lda + l];
            }
        }
    }
    PackedPanels {
        data,
        tile: mr,
        k: spec.k,
        len: spec.m,
        side: PanelSide::A,
    }
}

/// Packs the right operand of `spec` into zero-padded `nr`-column panels.
pub fn pack_b_panels(spec: &GemmSpec, b: &[f64], nr: usize) -> PackedPanels {
    assert!(nr >= 1, "nr must be positive");
    let (_, rb, _) = spec.required_lens();
    assert!(b.len() >= rb, "B too short to pack: {} < {rb}", b.len());
    let panels = spec.n.div_ceil(nr);
    let mut data = vec![0.0; panels * nr * spec.k];
    for p in 0..panels {
        let j0 = p * nr;
        let cols = nr.min(spec.n - j0);
        let dst = &mut data[p * nr * spec.k..][..nr * spec.k];
        for l in 0..spec.k {
            for t in 0..cols {
                dst[l * nr + t] = b[l * spec.ldb + j0 + t];
            }
        }
    }
    PackedPanels {
        data,
        tile: nr,
        k: spec.k,
        len: spec.n,
        side: PanelSide::B,
    }
}

/// Optional pre-packed panels threaded alongside the raw operands.
///
/// The raw slices stay authoritative: panels cover only the operands a
/// plan caches, and a kernel rejects panels packed for another tile
/// geometry.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedOperands<'p> {
    /// Panels packed from the left operand ([`PanelSide::A`]).
    pub a: Option<&'p PackedPanels>,
    /// Panels packed from the right operand ([`PanelSide::B`]).
    pub b: Option<&'p PackedPanels>,
}

impl<'p> PackedOperands<'p> {
    /// No pre-packed operands.
    pub fn none() -> Self {
        Self::default()
    }
}

/// Validates a batch before a kernel runs it and returns what the tile
/// loop runs: [`GemmBatch::check`] over a batch of several items, then
/// one operand and panel check that holds for every item (they share the
/// spec and lengths). A row-stacked shared-`B` batch comes back fused
/// into one tall item ([`GemmBatch::fuse_rows`]); panels come back only
/// for operands the batch shares (stride `0`). `None` for an empty batch.
#[inline]
pub(crate) fn checked_batch<'p, B: GemmBackend + ?Sized>(
    backend: &B,
    spec: &GemmSpec,
    batch: &GemmBatch,
    a: &[f64],
    b: &[f64],
    c: &[f64],
    packed: PackedOperands<'p>,
) -> Option<(GemmSpec, GemmBatch, PackedOperands<'p>)> {
    if batch.count == 0 {
        return None;
    }
    let fused = if batch.count > 1 {
        batch.check(spec, a, b, c);
        batch.fuse_rows(spec)
    } else {
        None
    };
    let (spec, batch, packed) = match fused {
        // A-side panels describe the per-item `m`, not the fused tall
        // matrix; only shared-B panels carry over (`NR` depends on `n`
        // alone).
        Some(fused) => (fused, GemmBatch::ONE, PackedOperands { a: None, ..packed }),
        None => (
            *spec,
            *batch,
            PackedOperands {
                a: packed.a.filter(|_| batch.stride_a == 0),
                b: packed.b.filter(|_| batch.stride_b == 0),
            },
        ),
    };
    // The first item starts at offset 0, so this is its check; `batch.check`
    // already bounded the later items.
    spec.check(a, b, c);
    let (name, (mr, nr)) = (backend.name(), backend.tile(&spec));
    if let Some(p) = packed.a {
        assert!(
            p.matches(PanelSide::A, mr, spec.k, spec.m),
            "packed A panels (tile {} k {} len {}) do not fit {name} {mr}x{nr} on {spec:?}",
            p.tile(),
            p.k(),
            p.len(),
        );
    }
    if let Some(p) = packed.b {
        assert!(
            p.matches(PanelSide::B, nr, spec.k, spec.n),
            "packed B panels (tile {} k {} len {}) do not fit {name} {mr}x{nr} on {spec:?}",
            p.tile(),
            p.k(),
            p.len(),
        );
    }
    Some((spec, batch, packed))
}

/// Accumulates one full `MR × (NV·LANES)` tile over `k` terms.
///
/// `A` is addressed as `a[l·a_stride_l + r·a_stride_r]` — `(MR, 1)` for a
/// packed panel, `(1, lda)` for an unpacked row panel — and
/// `B` as `b[l·b_stride_l + t]` (`nr` packed, `ldb` unpacked).
///
/// # Safety
/// Both pointers must be valid for every index the strides generate over
/// `l < k`, `r < MR`, `t < NV·LANES`.
#[inline(always)]
unsafe fn tile_acc<S: SimdF64, const MR: usize, const NV: usize>(
    k: usize,
    a: *const f64,
    a_stride_l: usize,
    a_stride_r: usize,
    b: *const f64,
    b_stride_l: usize,
) -> [[S; NV]; MR] {
    let mut acc = [[S::zero(); NV]; MR];
    for l in 0..k {
        let mut bv = [S::zero(); NV];
        for (v, bvv) in bv.iter_mut().enumerate() {
            // SAFETY: caller guarantees the index is in bounds.
            *bvv = unsafe { S::load(b.add(l * b_stride_l + v * S::LANES)) };
        }
        for r in 0..MR {
            // SAFETY: caller guarantees the index is in bounds.
            let av = S::splat(unsafe { *a.add(l * a_stride_l + r * a_stride_r) });
            for v in 0..NV {
                acc[r][v] = acc[r][v].fma(av, bv[v]);
            }
        }
    }
    acc
}

/// Scales and stores the first `rows` rows of a full-width tile straight
/// to `C`: `C ← α·acc + β·C` (with `β = 0` never reading `C`, so
/// garbage/NaN contents are overwritten).
///
/// # Safety
/// `c` must be valid for `rows ≤ MR` rows of `NV·LANES` doubles at row
/// stride `ldc`.
#[inline(always)]
unsafe fn store_rows<S: SimdF64, const MR: usize, const NV: usize>(
    acc: &[[S; NV]; MR],
    c: *mut f64,
    ldc: usize,
    rows: usize,
    alpha: f64,
    beta: f64,
) {
    let va = S::splat(alpha);
    let vb = S::splat(beta);
    for (r, row) in acc.iter().enumerate().take(rows) {
        for (v, &av) in row.iter().enumerate() {
            // SAFETY: caller guarantees the rows are in bounds.
            unsafe {
                let p = c.add(r * ldc + v * S::LANES);
                let mut x = av.mul(va);
                if beta != 0.0 {
                    x = x.add(S::load(p).mul(vb));
                }
                x.store(p);
            }
        }
    }
}

/// Stores the `used_rows × used_cols` corner of a column-edge tile (the
/// remaining lanes are padding computed over packed zeros).
///
/// # Safety
/// `c` must be valid for `used_rows` rows of `used_cols` doubles at row
/// stride `ldc`.
#[inline(always)]
unsafe fn store_tile_partial<S: SimdF64, const MR: usize, const NV: usize>(
    acc: &[[S; NV]; MR],
    c: *mut f64,
    ldc: usize,
    used_rows: usize,
    used_cols: usize,
    alpha: f64,
    beta: f64,
) {
    let nr = NV * S::LANES;
    // Uninitialized on purpose: zeroing a kilobyte per edge tile costs
    // more than the tile's arithmetic at the DG sizes.
    let mut tmp = [MaybeUninit::<f64>::uninit(); MR_CAP * NR_CAP];
    for (r, row) in acc.iter().enumerate() {
        for (v, &av) in row.iter().enumerate() {
            // SAFETY: `MR·NR ≤ MR_CAP·NR_CAP` by the registration caps.
            unsafe { av.store(tmp.as_mut_ptr().cast::<f64>().add(r * nr + v * S::LANES)) };
        }
    }
    for r in 0..used_rows.min(MR) {
        for j in 0..used_cols.min(nr) {
            // SAFETY: the loops above initialized all `MR × nr` leading
            // entries of `tmp`, which bound `(r, j)` here; the caller
            // guarantees the corner of `c` is in bounds.
            unsafe {
                let p = c.add(r * ldc + j);
                let x = alpha * tmp[r * nr + j].assume_init();
                *p = if beta == 0.0 { x } else { x + beta * *p };
            }
        }
    }
}

/// Stores the `rows × cols` used part of a tile: full-width tiles go
/// straight to `C` ([`store_rows`]), column edges through the scalar
/// corner ([`store_tile_partial`]).
///
/// # Safety
/// `c` must be valid for `rows` rows of `cols` doubles at row stride `ldc`.
#[inline(always)]
unsafe fn store_tile<S: SimdF64, const MR: usize, const NV: usize>(
    acc: &[[S; NV]; MR],
    c: *mut f64,
    ldc: usize,
    rows: usize,
    cols: usize,
    alpha: f64,
    beta: f64,
) {
    // SAFETY: forwarded contract; a full-width tile has `cols = NV·LANES`.
    unsafe {
        if cols == NV * S::LANES {
            store_rows::<S, MR, NV>(acc, c, ldc, rows, alpha, beta);
        } else {
            store_tile_partial::<S, MR, NV>(acc, c, ldc, rows, cols, alpha, beta);
        }
    }
}

/// Packs a partial (`cols < nr`) column panel into zero-padded scratch.
#[inline(always)]
fn pack_partial_b(
    dst: &mut [MaybeUninit<f64>],
    b: &[f64],
    ldb: usize,
    j0: usize,
    cols: usize,
    nr: usize,
) {
    let k = dst.len() / nr;
    dst.fill(MaybeUninit::new(0.0));
    for l in 0..k {
        for t in 0..cols {
            dst[l * nr + t] = MaybeUninit::new(b[l * ldb + j0 + t]);
        }
    }
}

/// The shared tiled driver for one item: loops row panels × column
/// tiles, sourcing `A` from plan-cached panels or the raw buffer and `B`
/// from plan-cached panels, the raw buffer (full tiles) or zero-padded
/// scratch (column edges). A row edge of a raw `A` runs one-row tiles.
/// `#[inline(always)]` so each `target_feature` wrapper monomorphizes its
/// own full-width copy.
///
/// # Safety
/// Operands must satisfy `spec.check`, and provided panels must match the
/// `(MR, NV·LANES, k, extent)` geometry — both enforced by
/// [`checked_batch`].
#[inline(always)]
unsafe fn gemm_tiled<S: SimdF64, const MR: usize, const NV: usize>(
    spec: &GemmSpec,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    packed: PackedOperands<'_>,
) {
    let &GemmSpec {
        m,
        n,
        k,
        lda,
        ldb,
        ldc,
        alpha,
        beta,
    } = spec;
    let nr = NV * S::LANES;
    debug_assert!(MR <= MR_CAP && nr <= NR_CAP);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Pure β pass; keep the β = 0 "never read C" contract.
        for i in 0..m {
            for j in 0..n {
                let cj = &mut c[i * ldc + j];
                *cj = if beta == 0.0 { 0.0 } else { beta * *cj };
            }
        }
        return;
    }

    // Scratch for zero-padded column-edge panels. The DG contraction
    // depths all fit the stack buffer; anything deeper packs into a heap
    // buffer. Left uninitialized — `pack_partial_b` writes a whole panel
    // before the tile reads it — because the derivative sweeps issue
    // hundreds of sub-microsecond items per cell and zeroing 4 KiB per
    // item cost more than the multiplication.
    let mut bstack = [MaybeUninit::<f64>::uninit(); K_STACK * NR_CAP];
    let mut bheap = if k > K_STACK {
        vec![MaybeUninit::<f64>::uninit(); k * nr]
    } else {
        Vec::new()
    };

    for ip in 0..m.div_ceil(MR) {
        let i0 = ip * MR;
        let rows = MR.min(m - i0);
        for jp in 0..n.div_ceil(nr) {
            let j0 = jp * nr;
            let cols = nr.min(n - j0);
            let (bp, b_l) = if let Some(p) = packed.b {
                (p.panel(jp).as_ptr(), nr)
            } else if cols == nr {
                (b[j0..].as_ptr(), ldb)
            } else {
                let buf: &mut [MaybeUninit<f64>] = if k > K_STACK {
                    &mut bheap
                } else {
                    &mut bstack[..k * nr]
                };
                pack_partial_b(buf, b, ldb, j0, cols, nr);
                (buf.as_ptr().cast::<f64>(), nr)
            };
            let cp = c[i0 * ldc + j0..].as_mut_ptr();
            // SAFETY: packed panels are zero-padded to full tiles; raw
            // `A` is read only for rows `< m` (a full panel or one row at
            // a time), whose `k` entries `spec.check` bounds; `B` is a
            // packed panel or a full-width raw tile, bounded likewise;
            // the `rows × cols` corner of `C` at `(i0, j0)` is in bounds.
            unsafe {
                if let Some(p) = packed.a {
                    let acc = tile_acc::<S, MR, NV>(k, p.panel(ip).as_ptr(), MR, 1, bp, b_l);
                    store_tile::<S, MR, NV>(&acc, cp, ldc, rows, cols, alpha, beta);
                } else if rows == MR {
                    let acc = tile_acc::<S, MR, NV>(k, a[i0 * lda..].as_ptr(), 1, lda, bp, b_l);
                    store_tile::<S, MR, NV>(&acc, cp, ldc, rows, cols, alpha, beta);
                } else {
                    for r in 0..rows {
                        let ar = a[(i0 + r) * lda..].as_ptr();
                        let acc = tile_acc::<S, 1, NV>(k, ar, 1, 0, bp, b_l);
                        store_tile::<S, 1, NV>(&acc, cp.add(r * ldc), ldc, 1, cols, alpha, beta);
                    }
                }
            }
        }
    }
}

/// Runs every item of `batch` on its exact sub-slices (so a stride past
/// the buffer still panics at the slice), `spec.k` as given.
///
/// # Safety
/// Same contract as [`gemm_batched`].
#[inline(always)]
unsafe fn gemm_items<S: SimdF64, const MR: usize, const NV: usize>(
    spec: &GemmSpec,
    batch: &GemmBatch,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    packed: PackedOperands<'_>,
) {
    let (ra, rb, rc) = spec.required_lens();
    for i in 0..batch.count {
        let (ao, bo, co) = (i * batch.stride_a, i * batch.stride_b, i * batch.stride_c);
        // SAFETY: forwarded contract; each item has the checked lengths.
        unsafe {
            gemm_tiled::<S, MR, NV>(
                spec,
                &a[ao..ao + ra],
                &b[bo..bo + rb],
                &mut c[co..co + rc],
                packed,
            )
        };
    }
}

/// [`gemm_items`] with the contraction depth fixed at compile time — the
/// "generated kernel" trick of the paper's Kernel Generator and LIBXSMM:
/// the `k` loop is fully unrolled for the depths the DG derivative GEMMs
/// actually use.
///
/// # Safety
/// Same contract as [`gemm_batched`].
#[inline(always)]
unsafe fn gemm_items_k<S: SimdF64, const MR: usize, const NV: usize, const K: usize>(
    spec: &GemmSpec,
    batch: &GemmBatch,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    packed: PackedOperands<'_>,
) {
    debug_assert_eq!(spec.k, K);
    let fixed = GemmSpec { k: K, ..*spec };
    // SAFETY: forwarded contract; `fixed` describes the same problem.
    unsafe { gemm_items::<S, MR, NV>(&fixed, batch, a, b, c, packed) }
}

/// The batch loop every tile wrapper runs: one dispatch to a
/// compile-time-`K` instantiation for the common DG depths, then every
/// item of `batch`.
///
/// # Safety
/// `spec`, `batch` and `packed` must come from [`checked_batch`] on these
/// operands, for this `(MR, NV·LANES)` tile.
#[inline(always)]
pub(crate) unsafe fn gemm_batched<S: SimdF64, const MR: usize, const NV: usize>(
    spec: &GemmSpec,
    batch: &GemmBatch,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    packed: PackedOperands<'_>,
) {
    // SAFETY: forwarded contract.
    unsafe {
        match spec.k {
            2 => gemm_items_k::<S, MR, NV, 2>(spec, batch, a, b, c, packed),
            3 => gemm_items_k::<S, MR, NV, 3>(spec, batch, a, b, c, packed),
            4 => gemm_items_k::<S, MR, NV, 4>(spec, batch, a, b, c, packed),
            5 => gemm_items_k::<S, MR, NV, 5>(spec, batch, a, b, c, packed),
            6 => gemm_items_k::<S, MR, NV, 6>(spec, batch, a, b, c, packed),
            7 => gemm_items_k::<S, MR, NV, 7>(spec, batch, a, b, c, packed),
            8 => gemm_items_k::<S, MR, NV, 8>(spec, batch, a, b, c, packed),
            9 => gemm_items_k::<S, MR, NV, 9>(spec, batch, a, b, c, packed),
            10 => gemm_items_k::<S, MR, NV, 10>(spec, batch, a, b, c, packed),
            11 => gemm_items_k::<S, MR, NV, 11>(spec, batch, a, b, c, packed),
            12 => gemm_items_k::<S, MR, NV, 12>(spec, batch, a, b, c, packed),
            _ => gemm_items::<S, MR, NV>(spec, batch, a, b, c, packed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{backend_for, GemmBackend};
    use crate::kernels::gemm_naive;
    use crate::kernels::Isa;
    use crate::spec::GemmBatch;
    use crate::tiles::BaselineKernel;

    fn rand_vec(len: usize, seed: u64) -> Vec<f64> {
        aderdg_tensor::Lcg::new(seed).vec(len.max(1), -1.0, 1.0)
    }

    fn check_micro(micro: &dyn GemmBackend, spec: GemmSpec, seed: u64, pack: (bool, bool)) {
        let (ra, rb, rc) = spec.required_lens();
        let a = rand_vec(ra, seed);
        let b = rand_vec(rb, seed ^ 0xB0B);
        let c0 = rand_vec(rc, seed ^ 0xC0C);

        let mut c_ref = c0.clone();
        gemm_naive(&spec, &a, &b, &mut c_ref);

        let pa = pack.0.then(|| micro.pack_a(&spec, &a));
        let pb = pack.1.then(|| micro.pack_b(&spec, &b));
        let mut c_got = c0.clone();
        // SAFETY: `all_kernels` lists host-supported kernels only.
        unsafe {
            micro.execute(
                &spec,
                &a,
                &b,
                &mut c_got,
                PackedOperands {
                    a: pa.as_ref(),
                    b: pb.as_ref(),
                },
            )
        };
        for (i, (g, w)) in c_got.iter().zip(&c_ref).enumerate() {
            assert!(
                (g - w).abs() <= 1e-13 * (1.0 + w.abs()),
                "{} spec={spec:?} pack={pack:?} idx={i}: {g} vs {w}",
                micro.name()
            );
        }
    }

    /// Every host-supported kernel (under Miri that is the portable one:
    /// `Isa::detect()` is hard-`Baseline` there).
    fn all_kernels() -> impl Iterator<Item = &'static dyn GemmBackend> {
        Isa::supported().map(backend_for)
    }

    #[test]
    fn packing_layout_is_panelwise_column_major() {
        // 3×2 A with lda 3, packed at mr = 2: two panels, second zero-padded.
        let spec = GemmSpec::dense(3, 1, 2).with_ld(3, 1, 1);
        let a = [1.0, 2.0, 99.0, 3.0, 4.0, 99.0, 5.0, 6.0, 99.0];
        let p = pack_a_panels(&spec, &a, 2);
        assert_eq!(p.panels(), 2);
        assert_eq!(p.panel(0), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(p.panel(1), &[5.0, 0.0, 6.0, 0.0]);

        // 2×3 B with ldb 4, packed at nr = 2.
        let spec = GemmSpec::dense(1, 3, 2).with_ld(2, 4, 3);
        let b = [1.0, 2.0, 3.0, 99.0, 4.0, 5.0, 6.0, 99.0];
        let p = pack_b_panels(&spec, &b, 2);
        assert_eq!(p.panels(), 2);
        assert_eq!(p.panel(0), &[1.0, 2.0, 4.0, 5.0]);
        assert_eq!(p.panel(1), &[3.0, 0.0, 6.0, 0.0]);
    }

    #[test]
    fn every_kernel_matches_naive_with_and_without_panels() {
        // Miri interprets every FLOP; keep its shape set small.
        let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
            &[(1, 1, 1), (4, 8, 5), (9, 7, 3)]
        } else {
            &[
                (1, 1, 1),
                (4, 8, 5),
                (8, 8, 5),
                (9, 7, 3),
                (17, 23, 6),
                (5, 16, 11),
                (9, 32, 6),
                (21, 40, 13),
            ]
        };
        for micro in all_kernels() {
            for (i, &(m, n, k)) in shapes.iter().enumerate() {
                for &pack in &[(false, false), (true, false), (false, true), (true, true)] {
                    let spec = GemmSpec::dense(m, n, k).with_scale(1.25, -0.5);
                    check_micro(micro, spec, 40 + i as u64, pack);
                }
            }
        }
    }

    #[test]
    fn kernel_handles_strided_operands() {
        // n = 10 and n = 16: both AVX-512 tile widths.
        for micro in all_kernels() {
            for n in [10, 16] {
                let spec = GemmSpec::dense(6, n, 4).with_ld(7, n + 3, n + 1);
                check_micro(micro, spec, 77, (true, true));
                check_micro(micro, spec, 78, (false, false));
            }
        }
    }

    #[test]
    fn zero_depth_is_a_pure_beta_pass() {
        let spec = GemmSpec::dense(3, 4, 0).with_scale(2.0, 0.5);
        let mut c = vec![2.0; 12];
        // SAFETY: portable kernel has no ISA requirement.
        unsafe {
            BaselineKernel.execute(&spec, &[], &[], &mut c, PackedOperands::none());
        }
        assert!(c.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn beta_zero_never_reads_c() {
        let spec = GemmSpec::dense(5, 9, 3);
        let a = vec![1.0; 15];
        let b = vec![1.0; 27];
        for micro in all_kernels() {
            let mut c = vec![f64::NAN; 45];
            // SAFETY: `all_kernels` lists host-supported kernels only.
            unsafe { micro.execute(&spec, &a, &b, &mut c, PackedOperands::none()) };
            assert!(c.iter().all(|&x| x == 3.0), "{}", micro.name());
        }
    }

    #[test]
    #[should_panic(expected = "packed A panels")]
    fn mismatched_panels_panic() {
        let spec = GemmSpec::dense(4, 8, 3);
        let a = vec![0.0; 12];
        let b = vec![0.0; 24];
        let mut c = vec![0.0; 32];
        let wrong = pack_a_panels(&GemmSpec::dense(5, 8, 3), &[0.0; 15], 4);
        // SAFETY: portable kernel has no ISA requirement.
        unsafe {
            BaselineKernel.execute(
                &spec,
                &a,
                &b,
                &mut c,
                PackedOperands {
                    a: Some(&wrong),
                    b: None,
                },
            )
        };
    }

    /// The portable tile accumulates unfused in `l` order, exactly as
    /// `gemm_naive`; with `β = 1` both store `α·acc + β·C`, so the two
    /// agree bit for bit on every path of the driver.
    fn assert_baseline_bitwise(spec: GemmSpec, batch: GemmBatch, packed_a: bool, seed: u64) {
        let spec = spec.with_scale(-1.5, 1.0);
        let (ra, rb, rc) = batch.required_lens(&spec);
        let a = rand_vec(ra, seed);
        let b = rand_vec(rb, seed ^ 0xB0B);
        // Sentinels past the last item: no store may reach them.
        let c0 = rand_vec(rc + 9, seed ^ 0xC0C);
        let mut want = c0.clone();
        for i in 0..batch.count {
            let (ao, bo, co) = (i * batch.stride_a, i * batch.stride_b, i * batch.stride_c);
            gemm_naive(&spec, &a[ao..], &b[bo..], &mut want[co..]);
        }
        let pa = packed_a.then(|| BaselineKernel.pack_a(&spec, &a));
        let mut got = c0.clone();
        // SAFETY: the portable kernel has no ISA requirement.
        unsafe {
            BaselineKernel.run_batched(
                &spec,
                &batch,
                &a,
                &b,
                &mut got,
                PackedOperands {
                    a: pa.as_ref(),
                    b: None,
                },
            )
        };
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{spec:?} {batch:?} idx={i}");
        }
    }

    #[test]
    fn raw_row_tail_runs_one_row_tiles() {
        // m = 6 on the 4-row tile: a 2-row tail read straight from `A`,
        // at full width (n = 8) and with a column edge (n = 11).
        for n in [8, 11] {
            let spec = GemmSpec::dense(6, n, 3).with_ld(4, n + 1, n + 2);
            assert_baseline_bitwise(spec, GemmBatch::ONE, false, 3 + n as u64);
        }
    }

    #[test]
    fn packed_row_edge_stores_straight_to_c() {
        // m = 3 of a plan-packed 4-row panel over two full-width column
        // tiles; `ldc > n` leaves padding columns the store must not touch.
        let spec = GemmSpec::dense(3, 16, 3).with_ld(3, 16, 19);
        assert_baseline_bitwise(spec, GemmBatch::ONE, true, 17);
    }

    #[test]
    fn batched_wrapper_matches_per_item_calls() {
        let spec = GemmSpec::dense(3, 8, 2);
        // Shared plan-packed `A` over strided items.
        assert_baseline_bitwise(spec, GemmBatch::shared_a(3, 17, 25), true, 5);
        // Row-interleaved items (the AoSoA z-sweep shape).
        let spec = spec.with_ld(2, 8, 3 * 9);
        assert_baseline_bitwise(spec, GemmBatch::shared_a(3, 9, 9), true, 6);
        // Gapped per-item `A` with a row tail per item.
        assert_baseline_bitwise(spec, GemmBatch::new(2, 7, 0, 81), false, 7);
    }

    #[test]
    fn deep_contraction_uses_heap_scratch() {
        // k beyond K_STACK exercises the heap fallback for edge packing.
        for micro in all_kernels() {
            for n in [7, 16] {
                let spec = GemmSpec::dense(5, n, K_STACK + 3);
                check_micro(micro, spec, 91, (false, false));
            }
        }
    }
}
