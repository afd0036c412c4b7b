//! Machine model: pipeline-slot memory-stall estimation.
//!
//! Converts cache-simulator miss counts into the "percentage of pipeline
//! slots affected by memory stalls" metric of the paper's Figs. 4, 6 and 10
//! (originally a VTune top-down metric). The model charges each miss a
//! level-dependent latency, discounted by a memory-level-parallelism factor
//! (out-of-order cores overlap several outstanding misses), and compares
//! against the compute cycles implied by the kernel's classified flop
//! mix. [`BlockCostModel`] charges the same stall cycles plus per-block
//! overheads to rank the plan-time tuner's block sizes.

use crate::cachesim::CacheStats;
use crate::flops::PackCounts;

/// Core execution and memory-latency parameters.
#[derive(Debug, Clone, Copy)]
pub struct MachineModel {
    /// Effective sustained fraction of peak for in-cache kernel code
    /// (accounts for non-FMA instructions, loop overhead).
    pub compute_efficiency: f64,
    /// Cycles to serve an L1 miss from L2.
    pub l2_latency: f64,
    /// Cycles to serve an L2 miss from L3.
    pub l3_latency: f64,
    /// Cycles to serve an L3 miss from DRAM.
    pub dram_latency: f64,
    /// Average overlap of outstanding misses (miss-level parallelism).
    pub mlp: f64,
}

impl MachineModel {
    /// Parameters for the paper's Intel Xeon Platinum 8174 (Skylake SP) at
    /// the AVX-512 base frequency. The L2 latency is the architectural
    /// value; L3/DRAM are *effective* latencies under hardware prefetching
    /// of the kernels' streaming sweeps, and `mlp` is the average overlap
    /// of outstanding misses — both calibrated so the kernel variants land
    /// in the paper's observed 25–50 % stall band with the right ordering
    /// (LoG plateau ≥ 41 %, SplitCK steadily decreasing).
    pub fn skylake_sp() -> Self {
        Self {
            compute_efficiency: 0.45,
            l2_latency: 14.0,
            l3_latency: 30.0,
            dram_latency: 80.0,
            mlp: 12.0,
        }
    }

    /// Effective stall cycles implied by a miss profile.
    pub fn stall_cycles(&self, stats: &CacheStats) -> f64 {
        // L1 misses that were served by L2 = l2.hits, and so on down.
        let from_l2 = stats.l2.hits as f64 * self.l2_latency;
        let from_l3 = stats.l3.hits as f64 * self.l3_latency;
        let from_dram = stats.dram as f64 * self.dram_latency;
        (from_l2 + from_l3 + from_dram) / self.mlp
    }

    /// Compute cycles implied by a *classified* flop mix: a scalar flop
    /// occupies a whole issue slot, a `w`-wide pack amortizes one slot
    /// over `w` flops (two FP pipes, `compute_efficiency` sustained).
    pub fn compute_cycles_mix(&self, mix: &PackCounts) -> f64 {
        let issue = 2.0 * self.compute_efficiency; // FP ops per cycle
        let slots = mix.scalar as f64
            + mix.p128 as f64 / 2.0
            + mix.p256 as f64 / 4.0
            + mix.p512 as f64 / 8.0;
        // Each op slot carries up to 2 flops (FMA).
        slots / (issue * 2.0)
    }

    /// Fraction of pipeline slots lost to memory stalls,
    /// `stall / (stall + compute)` — the y-axis of the lower panels of
    /// Figs. 4, 6 and 10. The cross-variant comparison requires the
    /// compute denominator to reflect how the variant executes its flops
    /// (a scalar kernel hides its misses behind many more compute cycles
    /// than a packed one).
    pub fn stall_fraction_mix(&self, stats: &CacheStats, mix: &PackCounts) -> f64 {
        let stall = self.stall_cycles(stats);
        let compute = self.compute_cycles_mix(mix);
        if stall + compute == 0.0 {
            0.0
        } else {
            stall / (stall + compute)
        }
    }
}

/// Cost model of the engine's batched block pipeline.
///
/// Predicted per-cell cost of running blocks of `B` cells combines two
/// opposing terms the block-size choice trades off:
///
/// * **memory stalls** from the replayed miss profile ([`MachineModel`]) —
///   grows once `B ×` (per-cell temporaries) outgrows L2,
/// * **per-block dispatch overhead** (scratch setup, staging, one operator
///   load and loop prologue per stage sweep instead of per cell) —
///   amortized over the `B` cells of the block, so it *shrinks* with `B`.
///
/// The overhead constants are calibrated against engine step times over
/// `aderdg-run --block-size`: they reproduce the measured
/// single-digit-percent penalty of `B = 1` relative to the plateau on the
/// blocked kernels.
#[derive(Debug, Clone, Copy)]
pub struct BlockCostModel {
    /// Miss-latency and issue-width parameters.
    pub machine: MachineModel,
    /// Fixed cycles per block invocation (virtual dispatch, staging-buffer
    /// bookkeeping, scratch reset).
    pub block_overhead_cycles: f64,
    /// Cycles per stage sweep per block (operator load, loop prologue,
    /// bounds-check hoisting — the costs a bigger block amortizes).
    pub stage_overhead_cycles: f64,
}

impl BlockCostModel {
    /// Calibrated defaults for the paper's Skylake SP machine model.
    pub fn skylake_sp() -> Self {
        Self {
            machine: MachineModel::skylake_sp(),
            block_overhead_cycles: 2_000.0,
            stage_overhead_cycles: 400.0,
        }
    }

    /// Predicted block-size-dependent cycles per cell: stall cycles of the
    /// replayed miss profile plus amortized per-block overhead, divided
    /// over the `cells` cells the replay covered.
    ///
    /// The (block-size-independent) compute cycles are deliberately
    /// excluded — candidates are compared, not absolute-timed.
    pub fn cycles_per_cell(
        &self,
        stats: &CacheStats,
        cells: usize,
        blocks: usize,
        stages_per_block: usize,
    ) -> f64 {
        assert!(cells > 0, "cost model needs at least one replayed cell");
        let stall = self.machine.stall_cycles(stats);
        let overhead = blocks as f64
            * (self.block_overhead_cycles + self.stage_overhead_cycles * stages_per_block as f64);
        (stall + overhead) / cells as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cachesim::LevelStats;

    fn stats(l2_hits: u64, l3_hits: u64, dram: u64) -> CacheStats {
        CacheStats {
            l1: LevelStats {
                hits: 0,
                misses: l2_hits + l3_hits + dram,
            },
            l2: LevelStats {
                hits: l2_hits,
                misses: l3_hits + dram,
            },
            l3: LevelStats {
                hits: l3_hits,
                misses: dram,
            },
            dram,
        }
    }

    /// A mix of `flops` flops, all in 512-bit packs: the Skylake SP peak
    /// of 2 FMA units × 8 lanes × 2 flops = 32 flops per cycle.
    fn packed(flops: u64) -> PackCounts {
        PackCounts {
            p512: flops,
            ..Default::default()
        }
    }

    #[test]
    fn no_misses_no_stalls() {
        let m = MachineModel::skylake_sp();
        let s = CacheStats::default();
        assert_eq!(m.stall_fraction_mix(&s, &packed(1_000_000)), 0.0);
    }

    #[test]
    fn stall_fraction_monotone_in_misses() {
        let m = MachineModel::skylake_sp();
        let f1 = m.stall_fraction_mix(&stats(100, 0, 0), &packed(100_000));
        let f2 = m.stall_fraction_mix(&stats(1000, 0, 0), &packed(100_000));
        let f3 = m.stall_fraction_mix(&stats(1000, 500, 0), &packed(100_000));
        let f4 = m.stall_fraction_mix(&stats(1000, 500, 500), &packed(100_000));
        assert!(f1 < f2 && f2 < f3 && f3 < f4);
        assert!(f4 < 1.0 && f1 > 0.0);
    }

    #[test]
    fn dram_costlier_than_l2() {
        let m = MachineModel::skylake_sp();
        let a = m.stall_fraction_mix(&stats(100, 0, 0), &packed(10_000));
        let b = m.stall_fraction_mix(&stats(0, 0, 100), &packed(10_000));
        assert!(b > a);
    }

    #[test]
    fn more_flops_dilute_stalls() {
        // Higher arithmetic intensity at constant traffic → lower stall
        // share (the paper's expectation for increasing order).
        let m = MachineModel::skylake_sp();
        let f_small = m.stall_fraction_mix(&stats(1000, 100, 10), &packed(100_000));
        let f_large = m.stall_fraction_mix(&stats(1000, 100, 10), &packed(10_000_000));
        assert!(f_large < f_small);
    }

    #[test]
    fn compute_cycles_scale() {
        let m = MachineModel::skylake_sp();
        let want = 32_000.0 / (32.0 * m.compute_efficiency);
        assert!((m.compute_cycles_mix(&packed(32_000)) - want).abs() < 1e-9);
    }

    #[test]
    fn mix_aware_compute_cycles_favor_packed_code() {
        let m = MachineModel::skylake_sp();
        let scalar_mix = PackCounts {
            scalar: 10_000,
            ..Default::default()
        };
        let packed_mix = PackCounts {
            p512: 10_000,
            ..Default::default()
        };
        let cs = m.compute_cycles_mix(&scalar_mix);
        let cp = m.compute_cycles_mix(&packed_mix);
        assert!((cs / cp - 8.0).abs() < 1e-9, "scalar/packed = {}", cs / cp);
    }

    #[test]
    fn mix_aware_stalls_higher_for_fast_code() {
        // Same miss profile: the packed (faster) kernel shows the larger
        // stall share — the paper's observation on the AoSoA variant.
        let m = MachineModel::skylake_sp();
        let s = stats(1000, 100, 100);
        let scalar_mix = PackCounts {
            scalar: 1_000_000,
            ..Default::default()
        };
        let packed_mix = PackCounts {
            p512: 1_000_000,
            ..Default::default()
        };
        assert!(m.stall_fraction_mix(&s, &packed_mix) > m.stall_fraction_mix(&s, &scalar_mix));
    }

    #[test]
    fn cost_model_trades_overhead_against_misses() {
        let model = BlockCostModel::skylake_sp();
        let clean = CacheStats::default();
        // Same cells, more blocks (smaller B): pure overhead rises.
        let small_b = model.cycles_per_cell(&clean, 16, 16, 10);
        let big_b = model.cycles_per_cell(&clean, 16, 1, 10);
        assert!(small_b > big_b);
        // Misses raise the cost at fixed blocking.
        let missy = CacheStats {
            dram: 10_000,
            ..CacheStats::default()
        };
        assert!(model.cycles_per_cell(&missy, 16, 1, 10) > big_b);
    }
}
