//! PFR-aided Fragment Memoization (Arnau et al., ISCA'14) — the
//! fine-grained baseline of the paper's §V-A / Fig. 16.
//!
//! Two consecutive frames are rendered in parallel with tiles kept
//! synchronized; each shaded fragment's 32-bit input hash (screen
//! coordinates excluded) probes a 2048-entry 4-way LUT. A hit reuses the
//! memoized color and skips the fragment shader; a miss shades and inserts.
//! Because the LUT is shared by the frame *pair*, the second frame of each
//! pair reuses what the first cached, but the first frame of the next pair
//! finds its predecessors long evicted — the halved detection potential the
//! paper contrasts RE against.
//!
//! Per the paper's experimental setup we model the enlarged 2048-entry
//! 4-way LUT so the chip area is comparable to RE's structures.

/// Bytes one LUT entry occupies: a 32-bit tag plus the 32-bit memoized
/// color — what the capacity knob divides by to size the table.
pub const MEMO_ENTRY_BYTES: usize = 8;

/// The paper's LUT capacity in KiB: 2048 entries × 8 B = 16 KiB (enlarged
/// so the chip area is comparable to RE's structures).
pub const DEFAULT_MEMO_KB: u32 = 16;

/// A set-associative memoization LUT keyed by 32-bit fragment-input hashes.
#[derive(Debug, Clone)]
pub struct MemoLut {
    sets: usize,
    ways: usize,
    /// `sets × ways` tags; `None` = invalid.
    tags: Vec<Option<u32>>,
    stamps: Vec<u64>,
    tick: u64,
}

impl MemoLut {
    /// Builds an empty LUT with `entries` total entries and `ways`
    /// associativity.
    ///
    /// # Panics
    /// Panics unless `entries` is a positive multiple of `ways`.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(
            ways > 0 && entries > 0 && entries.is_multiple_of(ways),
            "bad LUT geometry"
        );
        MemoLut {
            sets: entries / ways,
            ways,
            tags: vec![None; entries],
            stamps: vec![0; entries],
            tick: 0,
        }
    }

    /// Probes for `hash`; inserts it (LRU) on miss. Returns `true` on hit.
    pub fn probe_insert(&mut self, hash: u32) -> bool {
        self.tick += 1;
        let set = (hash as usize) % self.sets;
        let base = set * self.ways;
        for w in 0..self.ways {
            if self.tags[base + w] == Some(hash) {
                self.stamps[base + w] = self.tick;
                return true;
            }
        }
        let mut victim = 0;
        for w in 1..self.ways {
            if self.stamps[base + w] < self.stamps[base + victim] {
                victim = w;
            }
        }
        self.tags[base + victim] = Some(hash);
        self.stamps[base + victim] = self.tick;
        false
    }

    /// Builds an empty 4-way LUT holding `kb` KiB of entries (at
    /// [`MEMO_ENTRY_BYTES`] each) — the sweep's `--memo-kb` capacity axis.
    ///
    /// # Panics
    /// Panics if `kb` is 0.
    pub fn with_kb(kb: u32) -> Self {
        assert!(kb > 0, "memo LUT needs at least 1 KiB");
        MemoLut::new(kb as usize * 1024 / MEMO_ENTRY_BYTES, 4)
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }
}

/// Statistics of the memoization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Fragments that had to be shaded (LUT misses).
    pub fragments_shaded: u64,
    /// Fragments whose shading was skipped (LUT hits).
    pub fragments_reused: u64,
}

impl MemoStats {
    /// All fragments processed.
    pub fn total(&self) -> u64 {
        self.fragments_shaded + self.fragments_reused
    }

    /// Fraction of fragments shaded (what Fig. 16 plots, normalized to a
    /// baseline that shades everything).
    pub fn shaded_fraction(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.fragments_shaded as f64 / self.total() as f64
        }
    }
}

/// The PFR pairing driver: buffers the per-tile fragment-hash streams of
/// the first frame of each pair, then replays both frames tile-by-tile
/// interleaved, the access order Parallel Frame Rendering produces.
#[derive(Debug)]
pub struct FragmentMemo {
    lut: MemoLut,
    pending: Option<Vec<Vec<u32>>>,
    /// Results so far.
    pub stats: MemoStats,
}

impl FragmentMemo {
    /// Creates the model with the paper's enlarged LUT (2048 entries,
    /// 4-way — [`DEFAULT_MEMO_KB`]).
    pub fn new() -> Self {
        FragmentMemo::with_lut(MemoLut::with_kb(DEFAULT_MEMO_KB))
    }

    /// Creates the model with a custom LUT (for the ablation).
    pub fn with_lut(lut: MemoLut) -> Self {
        FragmentMemo {
            lut,
            pending: None,
            stats: MemoStats::default(),
        }
    }

    /// Feeds one frame's fragment hashes, grouped per tile. Frames arrive
    /// in display order; every second frame completes a PFR pair and is
    /// processed.
    pub fn push_frame(&mut self, frame: Vec<Vec<u32>>) {
        match self.pending.take() {
            None => self.pending = Some(frame),
            Some(first) => {
                let tiles = first.len().max(frame.len());
                for t in 0..tiles {
                    self.probe_tile(first.get(t).map_or(&[], Vec::as_slice));
                    self.probe_tile(frame.get(t).map_or(&[], Vec::as_slice));
                }
            }
        }
    }

    /// Processes a trailing unpaired frame (end of the run).
    pub fn finish(&mut self) {
        if let Some(first) = self.pending.take() {
            for tile in &first {
                self.probe_tile(tile);
            }
        }
    }

    /// Probes the LUT with one tile's fragment hashes, in shading order.
    /// [`push_frame`](Self::push_frame) and [`finish`](Self::finish) feed
    /// it tile by tile in PFR order; a caller holding a whole log feeds it
    /// that order directly.
    pub fn probe_tile(&mut self, hashes: &[u32]) {
        for &hash in hashes {
            if self.lut.probe_insert(hash) {
                self.stats.fragments_reused += 1;
            } else {
                self.stats.fragments_shaded += 1;
            }
        }
    }
}

impl Default for FragmentMemo {
    fn default() -> Self {
        FragmentMemo::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lut_hits_after_insert() {
        let mut l = MemoLut::new(8, 2);
        assert!(!l.probe_insert(42));
        assert!(l.probe_insert(42));
    }

    #[test]
    fn lut_lru_within_set() {
        let mut l = MemoLut::new(8, 2); // 4 sets
                                        // Hashes 0, 4, 8 all map to set 0.
        l.probe_insert(0);
        l.probe_insert(4);
        l.probe_insert(0); // refresh 0
        l.probe_insert(8); // evicts 4
        assert!(l.probe_insert(0));
        assert!(!l.probe_insert(4), "4 was evicted");
    }

    #[test]
    fn second_frame_of_pair_reuses_first() {
        let mut m = FragmentMemo::new();
        let frame: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4, 5]];
        m.push_frame(frame.clone()); // buffered
        assert_eq!(m.stats.total(), 0, "first frame waits for its pair");
        m.push_frame(frame); // pair processed
        assert_eq!(m.stats.fragments_shaded, 5, "first frame misses");
        assert_eq!(m.stats.fragments_reused, 5, "second frame hits");
    }

    #[test]
    fn cross_pair_reuse_is_lost_under_pressure() {
        // Fill the LUT with unique hashes between pairs: the next pair's
        // first frame cannot reuse its predecessor.
        let mut m = FragmentMemo::with_lut(MemoLut::new(8, 2));
        let a: Vec<Vec<u32>> = vec![(0..8u32).collect()];
        let churn: Vec<Vec<u32>> = vec![(100..108u32).collect()];
        m.push_frame(a.clone());
        m.push_frame(churn); // pair 1: a + churn, LUT ends full of churn
        let before = m.stats.fragments_reused;
        m.push_frame(a.clone());
        m.push_frame(a); // pair 2
                         // Pair 2's first frame misses (evicted), second frame hits.
        assert_eq!(m.stats.fragments_reused - before, 8);
    }

    #[test]
    fn finish_flushes_unpaired_frame() {
        let mut m = FragmentMemo::new();
        m.push_frame(vec![vec![7, 7, 7]]);
        m.finish();
        // 7 misses once then hits twice.
        assert_eq!(m.stats.fragments_shaded, 1);
        assert_eq!(m.stats.fragments_reused, 2);
    }

    #[test]
    fn shaded_fraction_bounds() {
        let s = MemoStats {
            fragments_shaded: 25,
            fragments_reused: 75,
        };
        assert!((s.shaded_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(MemoStats::default().shaded_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "bad LUT geometry")]
    fn bad_geometry_panics() {
        let _ = MemoLut::new(10, 4);
    }

    #[test]
    fn capacity_in_kb_matches_paper_default() {
        assert_eq!(MemoLut::with_kb(DEFAULT_MEMO_KB).entries(), 2048);
        assert_eq!(MemoLut::with_kb(1).entries(), 128);
    }
}
