//! Autotuning substrate: scaled cache simulation and a block-pipeline
//! cost model.
//!
//! The paper's central claim (Sec. IV) is that kernel performance is
//! governed by whether the predictor's temporaries stay cache-resident.
//! This module turns that claim into a *decision procedure*: candidate
//! configurations (predictor block sizes) are costed by replaying their
//! memory-access pattern through the LRU hierarchy of [`crate::cachesim`]
//! and charging misses via [`MachineModel`]. The plan-level tuner in
//! `aderdg-core` drives these pieces; everything here is plan-agnostic.

use crate::cachesim::{CacheConfig, CacheSim, CacheStats, LINE_BYTES};
use crate::stall::MachineModel;
use crate::trace::TraceSink;

/// A cache hierarchy simulated at reduced granularity: one simulated line
/// stands for `scale` real lines, and every capacity is divided by
/// `scale`.
///
/// Replaying a kernel's full access stream line-by-line is too slow to run
/// at plan time (the tuner evaluates several block-size candidates per
/// engine construction, in debug builds too). Scaling preserves exactly
/// the effect under study — whether a working set of hundreds of KiB
/// survives in a ~1 MiB L2 between sweeps — because the tuned buffers are
/// orders of magnitude larger than even the scaled line, while cutting
/// simulation cost by `scale`. Reported [`stats`](ScaledCacheSim::stats)
/// are scaled back up so they remain directly comparable with (and
/// chargeable by) [`MachineModel`].
#[derive(Debug, Clone)]
pub struct ScaledCacheSim {
    sim: CacheSim,
    scale: usize,
}

impl ScaledCacheSim {
    /// Builds a scaled hierarchy; `scale = 1` is an unscaled [`CacheSim`].
    ///
    /// Capacities are divided by `scale` (floored at one set per level) so
    /// a buffer of `W` bytes occupies the same *fraction* of each level as
    /// in the real hierarchy.
    pub fn new(l1: CacheConfig, l2: CacheConfig, l3: Option<CacheConfig>, scale: usize) -> Self {
        assert!(scale >= 1, "scale must be at least 1");
        let shrink = |c: CacheConfig| CacheConfig {
            capacity: (c.capacity / scale).max(LINE_BYTES * c.ways),
            ways: c.ways,
        };
        Self {
            sim: CacheSim::new(shrink(l1), shrink(l2), l3.map(shrink)),
            scale,
        }
    }

    /// The paper's Skylake SP hierarchy at reduced granularity.
    pub fn skylake_sp(scale: usize) -> Self {
        Self::new(
            CacheConfig {
                capacity: 32 * 1024,
                ways: 8,
            },
            CacheConfig {
                capacity: 1024 * 1024,
                ways: 16,
            },
            Some(CacheConfig {
                capacity: 1408 * 1024,
                ways: 11,
            }),
            scale,
        )
    }

    /// The granularity factor.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Statistics scaled back to real-line counts (each simulated access
    /// stands for `scale` real-line accesses).
    pub fn stats(&self) -> CacheStats {
        let s = self.scale as u64;
        let up = |l: crate::cachesim::LevelStats| crate::cachesim::LevelStats {
            hits: l.hits * s,
            misses: l.misses * s,
        };
        let raw = self.sim.stats();
        CacheStats {
            l1: up(raw.l1),
            l2: up(raw.l2),
            l3: up(raw.l3),
            dram: raw.dram * s,
        }
    }

    /// Clears counters but keeps cache contents (steady-state measurement
    /// after a warm-up replay).
    pub fn reset_stats(&mut self) {
        self.sim.reset_stats();
    }
}

impl TraceSink for ScaledCacheSim {
    fn read(&mut self, addr: usize, bytes: usize) {
        self.sim
            .touch(addr / self.scale, (bytes / self.scale).max(1));
    }

    fn write(&mut self, addr: usize, bytes: usize) {
        self.sim
            .touch(addr / self.scale, (bytes / self.scale).max(1));
    }

    fn update(&mut self, addr: usize, bytes: usize) {
        // One fetch serves the read-modify-write.
        self.sim
            .touch(addr / self.scale, (bytes / self.scale).max(1));
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

/// One costed tuning candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The candidate's value (block size, backend index, …).
    pub value: usize,
    /// Modelled or measured cost — lower is better.
    pub cost: f64,
}

/// The value of the cheapest candidate (first wins ties), or `None` for an
/// empty slate.
pub fn best_candidate(candidates: &[Candidate]) -> Option<usize> {
    candidates
        .iter()
        .min_by(|a, b| a.cost.total_cmp(&b.cost))
        .map(|c| c.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sim_preserves_capacity_effects() {
        // A working set larger than L2 thrashes in both the unscaled and
        // the scaled hierarchy; one that fits stays resident in both.
        for scale in [1usize, 8, 16] {
            let mut sim = ScaledCacheSim::skylake_sp(scale);
            // 4 MiB working set > 1 MiB L2: streaming sweeps never settle.
            let big = 4 * 1024 * 1024;
            for _ in 0..2 {
                sim.read(0, big);
            }
            let s = sim.stats();
            assert!(
                s.dram as f64 > 0.9 * s.l1.accesses() as f64,
                "scale {scale}: big set should stream from DRAM: {s:?}"
            );

            let mut sim = ScaledCacheSim::skylake_sp(scale);
            // 256 KiB working set fits L2: the second sweep hits.
            let small = 256 * 1024;
            sim.read(1 << 24, small);
            sim.reset_stats();
            sim.read(1 << 24, small);
            let s = sim.stats();
            assert_eq!(
                s.dram, 0,
                "scale {scale}: resident set must not reach DRAM: {s:?}"
            );
        }
    }

    #[test]
    fn scaled_stats_are_comparable_across_scales() {
        // The same sweep reports (approximately) the same real-line miss
        // count regardless of granularity.
        let bytes = 2 * 1024 * 1024;
        let count = |scale: usize| {
            let mut sim = ScaledCacheSim::skylake_sp(scale);
            sim.read(0, bytes);
            sim.stats().l1.misses
        };
        let exact = count(1);
        let scaled = count(16);
        let ratio = scaled as f64 / exact as f64;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "scaled {scaled} vs exact {exact}"
        );
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

    #[test]
    fn best_candidate_is_argmin_first_wins_ties() {
        assert_eq!(best_candidate(&[]), None);
        let c = [
            Candidate {
                value: 1,
                cost: 5.0,
            },
            Candidate {
                value: 4,
                cost: 2.0,
            },
            Candidate {
                value: 8,
                cost: 2.0,
            },
        ];
        assert_eq!(best_candidate(&c), Some(4));
    }
}
