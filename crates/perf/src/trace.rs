//! Memory-access traces.
//!
//! Kernel variants replay their array-sweep order through a [`TraceSink`];
//! feeding the sink into a [`crate::cachesim::CacheSim`] yields
//! the miss profile behind the paper's memory-stall figures. Traces use
//! synthetic addresses handed out by an [`Arena`], so no real data is
//! touched — only the *pattern* matters.

use crate::cachesim::CacheSim;

/// Consumer of a memory-access stream.
pub trait TraceSink {
    /// A load of `bytes` bytes starting at `addr`.
    fn read(&mut self, addr: usize, bytes: usize);
    /// A store of `bytes` bytes starting at `addr`.
    fn write(&mut self, addr: usize, bytes: usize);
    /// A read-modify-write (accumulation) of `bytes` bytes at `addr`.
    fn update(&mut self, addr: usize, bytes: usize) {
        self.read(addr, bytes);
        self.write(addr, bytes);
    }
}

impl TraceSink for CacheSim {
    fn read(&mut self, addr: usize, bytes: usize) {
        self.touch(addr, bytes);
    }
    fn write(&mut self, addr: usize, bytes: usize) {
        self.touch(addr, bytes);
    }
    fn update(&mut self, addr: usize, bytes: usize) {
        // A line is fetched once; the write hits the just-fetched line.
        self.touch(addr, bytes);
    }
}

/// Counts accesses and bytes without simulating a cache (used to validate
/// trace generators against analytic traffic formulas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of read events.
    pub reads: u64,
    /// Number of write events.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
}

impl TraceSink for CountingSink {
    fn read(&mut self, _addr: usize, bytes: usize) {
        self.reads += 1;
        self.read_bytes += bytes as u64;
    }
    fn write(&mut self, _addr: usize, bytes: usize) {
        self.writes += 1;
        self.write_bytes += bytes as u64;
    }
}

/// Bump allocator for synthetic trace addresses: every allocation is
/// 64-byte aligned, mirroring [`AlignedVec`](aderdg_tensor::AlignedVec).
#[derive(Debug, Clone)]
pub struct Arena {
    next: usize,
}

impl Arena {
    /// Starts handing out addresses at a page-aligned, non-zero base.
    pub fn new() -> Self {
        Self { next: 1 << 20 }
    }

    /// Reserves `doubles * 8` bytes, 64-byte aligned; returns the address.
    pub fn alloc_doubles(&mut self, doubles: usize) -> usize {
        let addr = self.next;
        let bytes = doubles * 8;
        self.next += bytes.div_ceil(64) * 64;
        addr
    }
}

impl Default for Arena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cachesim::{CacheConfig, CacheSim};

    #[test]
    fn counting_sink_totals() {
        let mut s = CountingSink::default();
        s.read(0, 64);
        s.write(64, 32);
        s.update(128, 8);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 2);
        assert_eq!(s.read_bytes, 72);
        assert_eq!(s.write_bytes, 40);
    }

    #[test]
    fn arena_is_aligned_and_disjoint() {
        let mut a = Arena::new();
        let p1 = a.alloc_doubles(10); // 80 bytes -> 128 reserved
        let p2 = a.alloc_doubles(1);
        assert_eq!(p1 % 64, 0);
        assert_eq!(p2 % 64, 0);
        assert_eq!(p2, p1 + 128);
        assert_eq!(a.alloc_doubles(1), p2 + 64);
    }

    #[test]
    fn cache_sim_as_sink() {
        let mut sim = CacheSim::new(
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
        );
        let sink: &mut dyn TraceSink = &mut sim;
        sink.read(0, 64);
        sink.update(0, 8);
        let stats = sim.stats();
        assert_eq!(stats.l1.misses, 1);
        assert_eq!(stats.l1.hits, 1);
    }
}
