//! Set-associative LRU cache simulator.
//!
//! Substitute for VTune's memory-stall measurements (paper Figs. 4, 6, 10):
//! kernel variants replay their memory-access pattern at cache-line
//! granularity through a two/three-level LRU hierarchy configured like the
//! paper's Intel Xeon Platinum 8174 (Skylake SP: 32 KiB L1d / 8-way,
//! 1 MiB L2 / 16-way per core). The mechanism under study — LoG temporaries
//! overflowing the 1 MiB L2 from order 6 while SplitCK stays resident — is
//! a pure working-set/replacement effect that this model captures.

/// Cache line size in bytes (Skylake, and our alignment unit).
pub const LINE_BYTES: usize = 64;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity / (LINE_BYTES * self.ways)
    }
}

/// Hit/miss counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that hit in this level.
    pub hits: u64,
    /// Accesses that missed and were forwarded down.
    pub misses: u64,
}

impl LevelStats {
    /// Total accesses seen by this level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio (0 if never accessed).
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

/// One set-associative LRU cache level.
#[derive(Debug, Clone)]
struct Level {
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags` (higher = more recent).
    stamps: Vec<u64>,
    clock: u64,
    stats: LevelStats,
}

impl Level {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets().max(1);
        let ways = cfg.ways.max(1);
        Self {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            stats: LevelStats::default(),
        }
    }

    /// Accesses `line` (line index, not byte address); returns true on hit.
    fn access(&mut self, line: u64) -> bool {
        self.clock += 1;
        let set = (line as usize) % self.sets;
        let base = set * self.ways;
        let slots = base..base + self.ways;
        // Hit?
        for i in slots.clone() {
            if self.tags[i] == line {
                self.stamps[i] = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        // Miss: fill the LRU way.
        self.stats.misses += 1;
        let mut victim = base;
        for i in slots {
            if self.tags[i] == u64::MAX {
                victim = i;
                break;
            }
            if self.stamps[i] < self.stamps[victim] {
                victim = i;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        false
    }
}

/// Aggregate hit/miss statistics of a simulated hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// L1 data cache.
    pub l1: LevelStats,
    /// L2 (the 1 MiB per-core cache at the centre of the paper's analysis).
    pub l2: LevelStats,
    /// L3 (shared; modelled per-core slice as a last level before DRAM).
    pub l3: LevelStats,
    /// Accesses that missed every level (DRAM).
    pub dram: u64,
}

/// A multi-level cache hierarchy with LRU replacement.
///
/// Replaying a kernel's full access stream line by line is too slow to
/// run at plan time (the tuner costs several block sizes per engine
/// construction, in debug builds too). A granularity factor `scale > 1`
/// preserves exactly the effect under study — whether a working set of
/// hundreds of KiB survives in a ~1 MiB L2 between sweeps — because the
/// traced buffers are orders of magnitude larger than even the scaled
/// line, while cutting simulation cost by `scale`. [`stats`](Self::stats)
/// reports real-line counts at every scale, so they stay chargeable by
/// [`MachineModel`](crate::MachineModel).
#[derive(Debug, Clone)]
pub struct CacheSim {
    l1: Level,
    l2: Level,
    l3: Option<Level>,
    scale: usize,
}

impl CacheSim {
    /// Builds a hierarchy; `l3 = None` models only the per-core caches.
    /// `scale = 1` simulates every real line; a larger `scale` divides
    /// each capacity by it (floored at one set per level), so a buffer of
    /// `W` bytes occupies the same *fraction* of each level.
    pub fn new(l1: CacheConfig, l2: CacheConfig, l3: Option<CacheConfig>, scale: usize) -> Self {
        assert!(scale >= 1, "scale must be at least 1");
        let shrink = |c: CacheConfig| {
            Level::new(CacheConfig {
                capacity: (c.capacity / scale).max(LINE_BYTES * c.ways),
                ways: c.ways,
            })
        };
        Self {
            l1: shrink(l1),
            l2: shrink(l2),
            l3: l3.map(shrink),
            scale,
        }
    }

    /// The paper's Skylake SP core: 32 KiB / 8-way L1d, 1 MiB / 16-way L2,
    /// and a 1.375 MiB / 11-way L3 slice, at granularity `scale`.
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

    /// Touches every cache line in `[addr, addr + bytes)`; a no-op for
    /// `bytes == 0`. At `scale > 1` the range shrinks by `scale` and
    /// covers at least one simulated byte.
    pub fn touch(&mut self, addr: usize, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let (addr, bytes) = (addr / self.scale, (bytes / self.scale).max(1));
        let first = addr / LINE_BYTES;
        let last = (addr + bytes - 1) / LINE_BYTES;
        for line in first..=last {
            self.access_line(line as u64);
        }
    }

    /// Accesses a single simulated cache line by index.
    fn access_line(&mut self, line: u64) {
        if self.l1.access(line) {
            return;
        }
        if self.l2.access(line) {
            return;
        }
        if let Some(l3) = &mut self.l3 {
            l3.access(line);
        }
    }

    /// Statistics snapshot in real-line counts (each simulated access
    /// stands for `scale` real-line accesses).
    pub fn stats(&self) -> CacheStats {
        let s = self.scale as u64;
        let up = |l: LevelStats| LevelStats {
            hits: l.hits * s,
            misses: l.misses * s,
        };
        let l3 = self.l3.as_ref().map(|l| l.stats).unwrap_or_default();
        let dram = match &self.l3 {
            Some(l) => l.stats.misses,
            None => self.l2.stats.misses,
        };
        CacheStats {
            l1: up(self.l1.stats),
            l2: up(self.l2.stats),
            l3: up(l3),
            dram: dram * s,
        }
    }

    /// Clears counters but keeps cache contents (to measure steady state
    /// after a warm-up pass).
    pub fn reset_stats(&mut self) {
        self.l1.stats = LevelStats::default();
        self.l2.stats = LevelStats::default();
        if let Some(l3) = &mut self.l3 {
            l3.stats = LevelStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;

    fn tiny() -> CacheSim {
        // L1: 4 sets x 2 ways x 64B = 512 B; L2: 16 lines = 1 KiB.
        CacheSim::new(
            CacheConfig {
                capacity: 512,
                ways: 2,
            },
            CacheConfig {
                capacity: 1024,
                ways: 4,
            },
            None,
            1,
        )
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        c.touch(0, 8);
        c.touch(0, 8);
        c.touch(8, 8); // same line
        let s = c.stats();
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l1.hits, 2);
        assert_eq!(s.l2.misses, 1);
    }

    #[test]
    fn zero_byte_touch_is_a_noop_at_every_scale() {
        for scale in [1usize, 16] {
            let mut c = CacheSim::skylake_sp(scale);
            c.touch(4096, 0);
            assert_eq!(c.stats(), CacheStats::default(), "scale {scale}");
        }
    }

    #[test]
    fn touch_spans_lines() {
        let mut c = tiny();
        c.touch(0, 129); // lines 0, 1, 2
        assert_eq!(c.stats().l1.accesses(), 3);
    }

    #[test]
    fn working_set_larger_than_l1_spills_to_l2() {
        let mut c = tiny();
        // 16 lines > 8-line L1, fits 16-line L2. Two sweeps:
        for _ in 0..2 {
            for i in 0..16 {
                c.access_line(i);
            }
        }
        let s = c.stats();
        // First sweep: 16 L1 misses -> L2 misses. Second sweep: L1 misses
        // again (capacity), but L2 hits.
        assert_eq!(s.l1.misses, 32);
        assert_eq!(s.l2.misses, 16);
        assert_eq!(s.l2.hits, 16);
    }

    #[test]
    fn working_set_larger_than_l2_thrashes() {
        let mut c = tiny();
        // 32 lines > 16-line L2: streaming sweeps always miss everywhere.
        for _ in 0..3 {
            for i in 0..32 {
                c.access_line(i);
            }
        }
        let s = c.stats();
        assert_eq!(s.l2.hits, 0);
        assert_eq!(s.dram, 96);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct test on one set: L1 has 4 sets, so lines 0, 4, 8 map to
        // set 0 with 2 ways.
        let mut c = tiny();
        c.access_line(0);
        c.access_line(4);
        c.access_line(0); // refresh 0 -> LRU is 4
        c.access_line(8); // evicts 4
        c.access_line(0); // still hit
        c.access_line(4); // miss
        let s = c.stats();
        assert_eq!(s.l1.hits, 2);
        assert_eq!(s.l1.misses, 4);
    }

    #[test]
    fn skylake_config_geometry() {
        let cfg = CacheConfig {
            capacity: 1024 * 1024,
            ways: 16,
        };
        assert_eq!(cfg.sets(), 1024);
        let _ = CacheSim::skylake_sp(1);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.access_line(3);
        c.reset_stats();
        c.access_line(3);
        let s = c.stats();
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.l1.misses, 0);
    }

    #[test]
    fn scaled_sim_preserves_capacity_effects() {
        // A working set larger than L2 thrashes in both the unscaled and
        // the scaled hierarchy; one that fits stays resident in both.
        for scale in [1usize, 8, 16] {
            let mut sim = CacheSim::skylake_sp(scale);
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

            let mut sim = CacheSim::skylake_sp(scale);
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
            let mut sim = CacheSim::skylake_sp(scale);
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
}
