//! Set-associative LRU cache model.

use crate::config::CacheGeometry;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was filled from the next level.
    Miss,
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags only — the model tracks presence, not data. Accesses spanning
/// several lines are split by [`Cache::access_range`].
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `sets × ways` tag array; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Per-(set,way) LRU stamp; larger = more recent.
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero sets or ways).
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        assert!(sets > 0 && geometry.ways > 0, "degenerate cache geometry");
        let n = (sets * geometry.ways) as usize;
        Cache {
            geometry,
            tags: vec![u64::MAX; n],
            stamps: vec![0; n],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Looks up one line by address; fills it on miss (LRU eviction).
    pub fn access(&mut self, addr: u64) -> Access {
        self.tick += 1;
        let line = addr / self.geometry.line_bytes as u64;
        let sets = self.geometry.sets() as u64;
        let set = (line % sets) as usize;
        let ways = self.geometry.ways as usize;
        let base = set * ways;

        // Probe.
        for w in 0..ways {
            if self.tags[base + w] == line {
                self.stamps[base + w] = self.tick;
                self.hits += 1;
                return Access::Hit;
            }
        }
        // Miss: fill LRU way.
        let mut victim = 0;
        for w in 1..ways {
            if self.stamps[base + w] < self.stamps[base + victim] {
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.tick;
        self.misses += 1;
        Access::Miss
    }

    /// Accesses every line in `[addr, addr + bytes)`; returns the number of
    /// misses.
    pub fn access_range(&mut self, addr: u64, bytes: u32) -> u32 {
        if bytes == 0 {
            return 0;
        }
        let lb = self.geometry.line_bytes as u64;
        let first = addr / lb;
        let last = (addr + (bytes as u64 - 1)) / lb;
        let mut misses = 0;
        for line in first..=last {
            if self.access(line * lb) == Access::Miss {
                misses += 1;
            }
        }
        misses
    }

    /// Invalidates every line overlapping `[addr, addr + bytes)` without
    /// touching statistics — used to model writers (e.g. the Polygon List
    /// Builder re-filling the Parameter Buffer) that bypass a read cache
    /// but must keep it coherent.
    pub fn invalidate_range(&mut self, addr: u64, bytes: u32) {
        if bytes == 0 {
            return;
        }
        let lb = self.geometry.line_bytes as u64;
        let sets = self.geometry.sets() as u64;
        let ways = self.geometry.ways as usize;
        let first = addr / lb;
        let last = (addr + (bytes as u64 - 1)) / lb;
        for line in first..=last {
            let base = (line % sets) as usize * ways;
            for w in 0..ways {
                if self.tags[base + w] == line {
                    self.tags[base + w] = u64::MAX;
                    self.stamps[base + w] = 0;
                }
            }
        }
    }

    /// Invalidates all lines and clears statistics.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        Cache::new(CacheGeometry {
            size_bytes: 256,
            line_bytes: 64,
            ways: 2,
            latency: 1,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(0), Access::Hit);
        assert_eq!(c.access(63), Access::Hit, "same line");
        assert_eq!(c.access(64), Access::Miss, "next line");
        assert_eq!((c.hits(), c.misses()), (2, 2));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (even line numbers with 2 sets).
        c.access(0); // set0: {0}
        c.access(2 * 64); // set0: {0, 2}
        c.access(0); // touch 0 → LRU is line 2
        c.access(4 * 64); // evicts line 2
        assert_eq!(c.access(0), Access::Hit, "line 0 retained");
        assert_eq!(c.access(2 * 64), Access::Miss, "line 2 evicted");
    }

    #[test]
    fn range_access_counts_lines() {
        let mut c = tiny();
        // 130 bytes starting at 10 touches lines 0, 1, 2.
        assert_eq!(c.access_range(10, 130), 3);
        assert_eq!(c.access_range(10, 130), 0, "all hits");
        assert_eq!(c.access_range(0, 0), 0, "empty range");
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.access(0), Access::Miss);
    }

    #[test]
    fn invalidate_range_evicts_exactly_the_lines() {
        let mut c = tiny();
        c.access(0);
        c.access(64);
        c.invalidate_range(0, 64); // line 0 only
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(64), Access::Hit);
        // Idempotent on absent lines.
        c.invalidate_range(4096, 64);
    }

    #[test]
    fn disjoint_sets_do_not_interfere() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(64); // set 1
        c.access(2 * 64); // set 0
        c.access(3 * 64); // set 1
                          // Both sets hold 2 lines each — all four still resident.
        for a in [0, 64, 128, 192] {
            assert_eq!(c.access(a), Access::Hit, "addr {a}");
        }
    }
}
