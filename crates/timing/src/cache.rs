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
/// several lines are split by [`Cache::access_range`]. Lines are a power of
/// two bytes, so a probe finds its line with a shift, and its set with a
/// mask when the set count is a power of two too (every Table I cache and
/// `--l2-kb` size), or a remainder otherwise. The set count and
/// associativity are kept, so no probe recomputes them.
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// Number of sets.
    sets: u64,
    /// `sets − 1` when `sets` is a power of two, so a probe indexes its
    /// set with a mask; 0 otherwise, and a probe takes the remainder.
    set_mask: u64,
    /// Associativity.
    ways: usize,
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
    /// Panics if the geometry is degenerate (zero sets or ways) or its line
    /// size is not a power of two.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            geometry.line_bytes.is_power_of_two(),
            "cache line size {} is not a power of two",
            geometry.line_bytes
        );
        let sets = geometry.sets();
        assert!(sets > 0 && geometry.ways > 0, "degenerate cache geometry");
        let n = (sets * geometry.ways) as usize;
        Cache {
            geometry,
            line_shift: geometry.line_bytes.trailing_zeros(),
            sets: u64::from(sets),
            set_mask: if sets.is_power_of_two() {
                u64::from(sets - 1)
            } else {
                0
            },
            ways: geometry.ways as usize,
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

    /// The set line number `line` maps to.
    #[inline]
    fn set(&self, line: u64) -> usize {
        if self.set_mask != 0 {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets) as usize
        }
    }

    /// Looks up one line by address; fills it on miss (LRU eviction).
    pub fn access(&mut self, addr: u64) -> Access {
        self.tick += 1;
        let line = addr >> self.line_shift;
        let ways = self.ways;
        let base = self.set(line) * ways;

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
        let first = addr >> self.line_shift;
        let last = (addr + (bytes as u64 - 1)) >> self.line_shift;
        let mut misses = 0;
        for line in first..=last {
            if self.access(line << self.line_shift) == Access::Miss {
                misses += 1;
            }
        }
        misses
    }

    /// Counts `n` hits on a line an [`access`](Self::access) just touched,
    /// with no access to any other line in between: each would find the
    /// line present and most recent in its set, so only the hit count
    /// changes.
    pub fn add_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Invalidates every line overlapping `[addr, addr + bytes)` without
    /// touching statistics — used to model writers (e.g. the Polygon List
    /// Builder re-filling the Parameter Buffer) that bypass a read cache
    /// but must keep it coherent.
    pub fn invalidate_range(&mut self, addr: u64, bytes: u32) {
        if bytes == 0 {
            return;
        }
        let ways = self.ways;
        let first = addr >> self.line_shift;
        let last = (addr + (bytes as u64 - 1)) >> self.line_shift;
        for line in first..=last {
            let base = self.set(line) * ways;
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
    fn added_hits_count_as_accesses() {
        let mut c = tiny();
        assert_eq!(c.access(0), Access::Miss);
        c.add_hits(3);
        assert_eq!((c.hits(), c.misses(), c.accesses()), (3, 1, 4));
        assert_eq!(c.access(0), Access::Hit);
    }

    #[test]
    fn non_power_of_two_sets_index_by_remainder() {
        // 3 sets × 1 way: lines 0 and 3 share set 0.
        let mut c = Cache::new(CacheGeometry {
            size_bytes: 192,
            line_bytes: 64,
            ways: 1,
            latency: 1,
        });
        c.access(0);
        c.access(64);
        assert_eq!(c.access(3 * 64), Access::Miss, "evicts line 0");
        assert_eq!(c.access(64), Access::Hit, "set 1 untouched");
        assert_eq!(c.access(0), Access::Miss);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn a_line_size_that_is_not_a_power_of_two_panics() {
        let _ = Cache::new(CacheGeometry {
            size_bytes: 96 * 4,
            line_bytes: 96,
            ways: 2,
            latency: 1,
        });
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
