//! Memory-access trace generators — the cache-simulator inputs behind the
//! memory-stall panels of Figs. 4, 6 and 10.
//!
//! Each generator replays the array-sweep order of its kernel variant at
//! buffer granularity: one event per full pass over a tensor, which the
//! cache simulator expands to per-line accesses. The model assumes perfect
//! register blocking inside a GEMM micro-tile (a tensor is streamed once
//! per sweep); what remains — and what the paper's analysis is about — is
//! whether the *variant's working set* survives in L2 between sweeps and
//! across Cauchy-Kowalewsky iterations.
//!
//! Production behaviour is modelled by [`trace_batch`]: scratch buffers are
//! reused across cells (same addresses), per-cell inputs/outputs stream.
//! Each kernel body has one replay. AoSoA SplitCK has one body,
//! `stp_aosoa_cells`, whose per-cell `run` is the one-cell block, so its
//! one replay is [`trace_block_batch`]: [`trace_batch`] runs it at block
//! size 1 and the tuner ([`crate::tune`]) at every candidate block size.
//! Every other kernel runs its per-cell path under the block pipeline, so
//! its replay would not depend on the block size.
//!
//! [`steady_state_stall`] is the one measurement procedure on top: the
//! miss profile and mix-aware stall share behind the figures, the bench
//! crate's measurements and the paper-claim tests.

use crate::mix::{stp_pack_counts, UserFunctionCost};
use crate::plan::{KernelVariant, StpPlan};
use aderdg_perf::{Arena, CacheSim, CacheStats, MachineModel, TraceSink};

/// Addresses of one cell's input/output region.
#[derive(Debug, Clone, Copy)]
struct CellIo {
    q0: usize,
    qavg: usize,
    favg: [usize; 3],
    /// Bytes of one volume tensor.
    vol_bytes: usize,
    /// Bytes of all 12 face tensors (treated as one block).
    face_bytes: usize,
    faces: usize,
}

/// Allocates the I/O regions of `cells` consecutive cells.
fn alloc_cell_ios(arena: &mut Arena, plan: &StpPlan, cells: usize) -> Vec<CellIo> {
    let vol = plan.aos.len();
    // Six `q̄` faces at all rows, six flux faces at the evolved rows.
    let faces = 6 * (plan.face.len() + plan.flux_face.len());
    (0..cells)
        .map(|_| CellIo {
            q0: arena.alloc_doubles(vol),
            qavg: arena.alloc_doubles(vol),
            favg: [
                arena.alloc_doubles(vol),
                arena.alloc_doubles(vol),
                arena.alloc_doubles(vol),
            ],
            vol_bytes: vol * 8,
            face_bytes: faces * 8,
            faces: arena.alloc_doubles(faces),
        })
        .collect()
}

/// Scratch addresses of the generic / LoG variants (per-order tensors).
struct BigScratch {
    p: Vec<usize>,
    flux: Vec<[usize; 3]>,
    d_f: Vec<[usize; 3]>,
    grad_q: Vec<[usize; 3]>,
    vol_bytes: usize,
}

impl BigScratch {
    fn alloc(arena: &mut Arena, plan: &StpPlan, padded: bool, ncp: bool) -> Self {
        let n = plan.n();
        let vol = if padded {
            plan.aos.len()
        } else {
            n * n * n * plan.m()
        };
        let mut tens = || arena.alloc_doubles(vol);
        let p = (0..=n).map(|_| tens()).collect();
        let flux = (0..=n).map(|_| [tens(), tens(), tens()]).collect();
        let d_f = (0..n).map(|_| [tens(), tens(), tens()]).collect();
        let grad_q = if ncp {
            (0..n).map(|_| [tens(), tens(), tens()]).collect()
        } else {
            Vec::new()
        };
        Self {
            p,
            flux,
            d_f,
            grad_q,
            vol_bytes: vol * 8,
        }
    }
}

/// Emits one generic/LoG predictor invocation.
fn trace_big(plan: &StpPlan, s: &BigScratch, io: &CellIo, ncp: bool, sink: &mut dyn TraceSink) {
    let n = plan.n();
    let vb = s.vol_bytes;
    // p[0] ← q0.
    sink.read(io.q0, io.vol_bytes);
    sink.write(s.p[0], vb);
    for o in 0..n {
        for d in 0..3 {
            // flux eval: read p[o], write flux[o][d].
            sink.read(s.p[o], vb);
            sink.write(s.flux[o][d], vb);
        }
        for d in 0..3 {
            // derivative: read flux, write dF.
            sink.read(s.flux[o][d], vb);
            sink.write(s.d_f[o][d], vb);
        }
        if ncp {
            for d in 0..3 {
                sink.read(s.p[o], vb);
                sink.write(s.grad_q[o][d], vb);
                sink.read(s.p[o], vb);
                sink.read(s.grad_q[o][d], vb);
                sink.update(s.d_f[o][d], vb);
            }
        }
        // p[o+1] = Σ_d dF[o][d].
        for d in 0..3 {
            sink.read(s.d_f[o][d], vb);
        }
        sink.write(s.p[o + 1], vb);
    }
    // Final flux slot.
    for d in 0..3 {
        sink.read(s.p[n], vb);
        sink.write(s.flux[n][d], vb);
    }
    // Time averaging: all per-order tensors are re-read — the sweep that
    // punishes the O(N^{d+1}) footprint.
    for o in 0..=n {
        sink.read(s.p[o], vb);
        sink.update(io.qavg, io.vol_bytes);
        for d in 0..3 {
            sink.read(s.flux[o][d], vb);
            sink.update(io.favg[d], io.vol_bytes);
        }
    }
    // Face projections.
    sink.read(io.qavg, io.vol_bytes);
    for d in 0..3 {
        sink.read(io.favg[d], io.vol_bytes);
    }
    sink.write(io.faces, io.face_bytes);
}

/// Scratch addresses of the SplitCK variant.
struct SmallScratch {
    p: usize,
    ptemp: usize,
    flux: usize,
    grad_q: usize,
    vol_bytes: usize,
}

impl SmallScratch {
    fn alloc(arena: &mut Arena, plan: &StpPlan) -> Self {
        let vol = plan.aos.len();
        Self {
            p: arena.alloc_doubles(vol),
            ptemp: arena.alloc_doubles(vol),
            flux: arena.alloc_doubles(vol),
            grad_q: arena.alloc_doubles(vol),
            vol_bytes: vol * 8,
        }
    }
}

/// Emits one SplitCK invocation.
fn trace_small(plan: &StpPlan, s: &SmallScratch, io: &CellIo, ncp: bool, sink: &mut dyn TraceSink) {
    let n = plan.n();
    let vb = s.vol_bytes;
    // Entry: p ← q0.
    sink.read(io.q0, io.vol_bytes);
    sink.write(s.p, vb);
    // qavg ← c0 p.
    sink.read(s.p, vb);
    sink.write(io.qavg, io.vol_bytes);
    for _o in 0..n {
        sink.write(s.ptemp, vb);
        for _d in 0..3 {
            sink.read(s.p, vb);
            sink.write(s.flux, vb);
            sink.read(s.flux, vb);
            sink.update(s.ptemp, vb);
            if ncp {
                sink.read(s.p, vb);
                sink.write(s.grad_q, vb);
                sink.read(s.p, vb);
                sink.read(s.grad_q, vb);
                sink.update(s.ptemp, vb);
            }
        }
        // swap is free; qavg accumulation reads the new p.
        sink.read(s.ptemp, vb);
        sink.update(io.qavg, io.vol_bytes);
    }
    // favg recomputation from qavg.
    for d in 0..3 {
        sink.read(io.qavg, io.vol_bytes);
        sink.write(s.flux, vb);
        sink.read(s.flux, vb);
        sink.write(io.favg[d], io.vol_bytes);
    }
    // Face projections.
    sink.read(io.qavg, io.vol_bytes);
    for d in 0..3 {
        sink.read(io.favg[d], io.vol_bytes);
    }
    sink.write(io.faces, io.face_bytes);
}

/// Replays `cells` consecutive predictor invocations of `variant`:
/// scratch reused, per-cell I/O streaming — the production access pattern
/// the paper's VTune measurements observe.
pub fn trace_batch(
    plan: &StpPlan,
    variant: KernelVariant,
    has_ncp: bool,
    cells: usize,
    sink: &mut dyn TraceSink,
) {
    let mut arena = Arena::new();
    match variant {
        KernelVariant::Generic | KernelVariant::LoG => {
            let padded = variant == KernelVariant::LoG;
            let s = BigScratch::alloc(&mut arena, plan, padded, has_ncp);
            for io in &alloc_cell_ios(&mut arena, plan, cells) {
                trace_big(plan, &s, io, has_ncp, sink);
            }
        }
        KernelVariant::SplitCk => {
            let s = SmallScratch::alloc(&mut arena, plan);
            for io in &alloc_cell_ios(&mut arena, plan, cells) {
                trace_small(plan, &s, io, has_ncp, sink);
            }
        }
        // The per-cell `run` is the one-cell block of the block body.
        KernelVariant::AoSoASplitCk => {
            trace_block_batch(plan, variant, has_ncp, 1, cells, sink);
        }
    }
}

/// The steady state of `cells` predictor invocations of `variant` (no
/// ncp term) on the exact Skylake-SP hierarchy: one warm-up cell fills the
/// reused scratch, the counters reset, then `cells` cells replay. Returns
/// the steady-state miss profile and the share of pipeline slots it
/// stalls, with the compute cycles of `variant`'s instruction mix over
/// `cells` cells (the lower panels of Figs. 4, 6 and 10).
pub fn steady_state_stall(
    plan: &StpPlan,
    variant: KernelVariant,
    cost: UserFunctionCost,
    cells: usize,
) -> (CacheStats, f64) {
    let mut sim = CacheSim::skylake_sp(1);
    trace_batch(plan, variant, false, 1, &mut sim);
    sim.reset_stats();
    trace_batch(plan, variant, false, cells, &mut sim);
    let stats = sim.stats();
    let mix = stp_pack_counts(plan, variant, cost).scale(cells as u64);
    let stall = MachineModel::skylake_sp().stall_fraction_mix(&stats, &mix);
    (stats, stall)
}

/// Scratch addresses of one blocked AoSoA invocation: the SplitCK-style
/// rotating tensors (`p`, `ptemp`, `flux`, `gradQ`, `qavg_h`), each
/// stacked over the `B` cells of a block as in `AosoaScratch`, plus the
/// differentiation-operator matrix that one batched GEMM per sweep loads
/// once per block instead of once per cell.
struct BlockScratch {
    tensors: [usize; 5],
    op: usize,
    op_bytes: usize,
    /// Bytes of one stacked tensor (`B ×` per-cell volume).
    vol_bytes: usize,
}

/// Replays `blocks` invocations of the engine's batched block pipeline at
/// block size `block_size`: per-cell inputs/outputs stream, the kernel's
/// block scratch is reused across blocks, and every stage sweeps the whole
/// staged block before the next stage starts. Returns the number of stage
/// sweeps per block — the grain over which a block amortizes its
/// per-stage overhead (operator load, loop prologue) — or `None` for
/// every variant but AoSoA SplitCK: the others run the per-cell
/// `run_block` fallback, whose access pattern does not depend on the
/// block size, so there is nothing for a model to rank.
///
/// At `block_size = 1` this is [`trace_batch`]'s AoSoA replay. The
/// model-driven tuner ([`crate::tune`]) feeds it through a scaled
/// [`CacheSim`] at every candidate block size: growing `block_size`
/// multiplies every temporary by `B` (the L2-residency cost), while the
/// per-block overheads shrink as `1/B` (the amortization gain).
pub fn trace_block_batch(
    plan: &StpPlan,
    variant: KernelVariant,
    has_ncp: bool,
    block_size: usize,
    blocks: usize,
    sink: &mut dyn TraceSink,
) -> Option<usize> {
    assert!(block_size >= 1, "block size must be at least 1");
    assert!(blocks >= 1, "need at least one block to replay");
    if variant != KernelVariant::AoSoASplitCk {
        return None;
    }
    let n = plan.n();
    let mut arena = Arena::new();
    let bvol = block_size * plan.aosoa.len();
    let tensors = std::array::from_fn(|_| arena.alloc_doubles(bvol));
    let scratch = BlockScratch {
        tensors,
        op: arena.alloc_doubles(n * n),
        op_bytes: n * n * 8,
        vol_bytes: bvol * 8,
    };

    let ios = alloc_cell_ios(&mut arena, plan, blocks * block_size);

    // Every block sweeps the same stages.
    let mut stages = 0;
    for io in ios.chunks(block_size) {
        stages = trace_aosoa_block(plan, &scratch, io, has_ncp, sink);
    }
    Some(stages)
}

/// Emits one blocked AoSoA SplitCK invocation (mirrors `stp_aosoa_cells`);
/// returns the stage-sweep count.
fn trace_aosoa_block(
    plan: &StpPlan,
    s: &BlockScratch,
    io: &[CellIo],
    ncp: bool,
    sink: &mut dyn TraceSink,
) -> usize {
    let n = plan.n();
    let vb = s.vol_bytes;
    let [p, ptemp, flux, grad_q, qavg_h] = s.tensors;
    let mut stages = 0usize;

    // Entry transpose: per-cell q0 streams in, p is written stacked.
    for c in io {
        sink.read(c.q0, c.vol_bytes);
    }
    sink.write(p, vb);
    stages += 1;
    // qavg_h ← c0 · p.
    sink.read(p, vb);
    sink.write(qavg_h, vb);
    stages += 1;

    for _o in 0..n {
        for d in 0..3 {
            // Vectorized flux sweep.
            sink.read(p, vb);
            sink.write(flux, vb);
            stages += 1;
            // One batched derivative GEMM over the whole block; the x
            // sweep overwrites ptemp (no clearing pass), y and z
            // accumulate. (Whole-tensor granularity: that the GEMMs skip
            // the parameter rows is below this model's resolution.)
            sink.read(s.op, s.op_bytes);
            sink.read(flux, vb);
            if d == 0 {
                sink.write(ptemp, vb);
            } else {
                sink.update(ptemp, vb);
            }
            stages += 1;
            if ncp {
                sink.read(s.op, s.op_bytes);
                sink.read(p, vb);
                sink.write(grad_q, vb);
                stages += 1;
                sink.read(p, vb);
                sink.read(grad_q, vb);
                sink.update(ptemp, vb);
                stages += 1;
            }
        }
        // swap is free; the Taylor accumulation reads the new p.
        sink.read(ptemp, vb);
        sink.update(qavg_h, vb);
        stages += 1;
    }

    // Exit transpose of q̄ per cell.
    sink.read(qavg_h, vb);
    for c in io {
        sink.write(c.qavg, c.vol_bytes);
    }
    stages += 1;
    // favg recomputation: one block-wide flux sweep per dimension, then a
    // per-cell transpose out.
    for d in 0..3 {
        sink.read(qavg_h, vb);
        sink.write(flux, vb);
        stages += 1;
        sink.read(flux, vb);
        for c in io {
            sink.write(c.favg[d], c.vol_bytes);
        }
        stages += 1;
    }
    // Face projections stream per cell.
    for c in io {
        sink.read(c.qavg, c.vol_bytes);
        for d in 0..3 {
            sink.read(c.favg[d], c.vol_bytes);
        }
        sink.write(c.faces, c.face_bytes);
    }
    stages += 1;
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StpConfig;
    use aderdg_perf::CountingSink;

    fn plan(n: usize) -> StpPlan {
        StpPlan::new(StpConfig::new(n, 21), [1.0; 3])
    }

    #[test]
    fn traffic_scales_with_variant_footprint() {
        let p = plan(8);
        let mut big = CountingSink::default();
        trace_batch(&p, KernelVariant::LoG, false, 1, &mut big);
        let mut small = CountingSink::default();
        trace_batch(&p, KernelVariant::SplitCk, false, 1, &mut small);
        // LoG touches each per-order tensor at least twice; its logical
        // traffic exceeds SplitCK's (the decisive difference is cache
        // residency, tested below, not raw traffic).
        let big_bytes = big.read_bytes + big.write_bytes;
        let small_bytes = small.read_bytes + small.write_bytes;
        assert!(
            big_bytes as f64 > small_bytes as f64 * 1.2,
            "LoG {big_bytes} vs SplitCK {small_bytes}"
        );
    }

    #[test]
    fn log_stalls_plateau_splitck_stalls_decrease() {
        // The headline mechanism of the paper (Fig. 6): at high order the
        // LoG working set exceeds 1 MiB L2 and its stall ratio stays high;
        // SplitCK's stays L2-resident and its stall ratio falls.
        let cost = crate::mix::UserFunctionCost::elastic();
        let stall = |variant, n: usize| steady_state_stall(&plan(n), variant, cost, 4).1;
        let log_6 = stall(KernelVariant::LoG, 6);
        let log_10 = stall(KernelVariant::LoG, 10);
        let split_6 = stall(KernelVariant::SplitCk, 6);
        let split_10 = stall(KernelVariant::SplitCk, 10);
        // SplitCK improves markedly with order; LoG must not.
        assert!(
            split_10 < split_6,
            "SplitCK stalls should fall: {split_6} -> {split_10}"
        );
        assert!(
            log_10 > split_10,
            "at order 10, LoG ({log_10}) must stall more than SplitCK ({split_10})"
        );
        assert!(
            log_6 < log_10 * 2.0 + 0.2,
            "LoG stalls should not collapse with order: {log_6} -> {log_10}"
        );
    }

    #[test]
    fn batch_reuses_scratch_across_cells() {
        // With many cells, SplitCK scratch stays hot: L1+L2 hit ratio for
        // the steady state must be high at moderate order.
        let p = plan(5);
        let cost = UserFunctionCost::elastic();
        let (stats, _) = steady_state_stall(&p, KernelVariant::SplitCk, cost, 8);
        let total = stats.l1.accesses();
        let dram = stats.dram;
        assert!(
            (dram as f64) < 0.25 * total as f64,
            "dram {dram} of {total} accesses"
        );
    }

    #[test]
    fn block_trace_covers_blocked_variants_only() {
        let p = plan(4);
        let mut sink = CountingSink::default();
        let stages = trace_block_batch(&p, KernelVariant::AoSoASplitCk, false, 4, 2, &mut sink);
        assert!(stages.unwrap() > 0, "AoSoA must report stage sweeps");
        for variant in [
            KernelVariant::Generic,
            KernelVariant::LoG,
            KernelVariant::SplitCk,
        ] {
            assert_eq!(trace_block_batch(&p, variant, false, 4, 1, &mut sink), None);
        }
    }

    #[test]
    fn block_trace_traffic_scales_with_block_size() {
        // Doubling the block size roughly doubles a block's logical
        // traffic (stacked tensors, twice the per-cell I/O).
        let p = plan(5);
        let traffic = |bs: usize| {
            let mut c = CountingSink::default();
            trace_block_batch(&p, KernelVariant::AoSoASplitCk, false, bs, 1, &mut c).unwrap();
            c.read_bytes + c.write_bytes
        };
        let t2 = traffic(2);
        let t4 = traffic(4);
        let ratio = t4 as f64 / t2 as f64;
        assert!((1.8..=2.2).contains(&ratio), "t2={t2} t4={t4}");
    }

    #[test]
    fn oversized_blocks_overflow_l2_in_the_replay() {
        // AoSoA at order 6 / m = 21: the per-cell hybrid working set is
        // ~200 KiB, so a couple of cells stay L2-resident while 16 stacked
        // cells thrash — exactly the trade-off the tuner ranks.
        let p = plan(6);
        let dram_per_cell = |bs: usize| {
            let mut sim = CacheSim::skylake_sp(1);
            trace_block_batch(&p, KernelVariant::AoSoASplitCk, false, bs, 1, &mut sim).unwrap();
            sim.reset_stats();
            trace_block_batch(&p, KernelVariant::AoSoASplitCk, false, bs, 2, &mut sim).unwrap();
            sim.stats().dram as f64 / (2 * bs) as f64
        };
        let small = dram_per_cell(2);
        let big = dram_per_cell(16);
        assert!(
            big > small * 1.5,
            "16-cell blocks should miss far more per cell: {small} vs {big}"
        );
    }

    #[test]
    fn ncp_adds_stage_sweeps() {
        let p = plan(4);
        let mut sink = CountingSink::default();
        let mut stages =
            |ncp| trace_block_batch(&p, KernelVariant::AoSoASplitCk, ncp, 2, 1, &mut sink).unwrap();
        let (without, with) = (stages(false), stages(true));
        assert!(with > without);
    }
}
