//! The memory hierarchy: [`MemorySystem::replay`] routes every recorded
//! pipeline access ([`re_gpu::Event`]) through the Table I caches into
//! DRAM.
//!
//! Routing (paper Fig. 4):
//!
//! * vertex fetches → Vertex Cache → L2 → DRAM (`Vertices`)
//! * texel fetches → per-processor Texture Cache → L2 → DRAM (`Texels`)
//! * Parameter Buffer reads → Tile Cache → DRAM (`PrimitiveReads`)
//! * Parameter Buffer writes → write-combined straight to DRAM
//!   (`PrimitiveWrites`; the stream has no reuse)
//! * Color Buffer flushes → write-combined straight to DRAM (`Colors`)
//!
//! Besides cumulative statistics (for energy and Fig. 15b), the system
//! keeps **epoch** counters that a driver samples per tile / per pipeline
//! phase to compute stall cycles; see [`MemorySystem::take_epoch`].

use re_gpu::Event;

use crate::cache::Cache;
use crate::config::TimingConfig;
use crate::dram::{Dram, DramStats, TrafficClass};

/// Memory activity since the previous [`MemorySystem::take_epoch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemEpoch {
    /// Vertex-cache line misses.
    pub vertex_misses: u64,
    /// Texture-cache line misses (requests to L2).
    pub tex_misses: u64,
    /// L2 line misses on the texture/vertex path (requests to DRAM).
    pub l2_misses: u64,
    /// Tile-cache line misses (Parameter Buffer reads from DRAM).
    pub tile_misses: u64,
    /// Sum of DRAM latencies returned on the texel path.
    pub texel_latency_sum: u64,
    /// Sum of DRAM latencies returned on the Parameter-Buffer read path.
    pub prim_read_latency_sum: u64,
    /// Sum of DRAM latencies returned on the vertex path.
    pub vertex_latency_sum: u64,
    /// Bytes written to the Parameter Buffer.
    pub param_write_bytes: u64,
    /// Bytes of colors flushed.
    pub color_bytes: u64,
    /// DRAM channel-occupancy cycles generated in this epoch.
    pub dram_busy_cycles: u64,
}

/// The complete memory system (caches + DRAM).
#[derive(Debug)]
pub struct MemorySystem {
    config: TimingConfig,
    vertex_cache: Cache,
    texture_caches: Vec<Cache>,
    tile_cache: Cache,
    l2: Cache,
    dram: Dram,
    epoch: MemEpoch,
    dram_busy_mark: u64,
}

impl MemorySystem {
    /// Builds the hierarchy from a timing configuration.
    pub fn new(config: TimingConfig) -> Self {
        MemorySystem {
            config,
            vertex_cache: Cache::new(config.vertex_cache),
            texture_caches: (0..config.num_fragment_processors)
                .map(|_| Cache::new(config.texture_cache))
                .collect(),
            tile_cache: Cache::new(config.tile_cache),
            l2: Cache::new(config.l2_cache),
            dram: Dram::new(config),
            epoch: MemEpoch::default(),
            dram_busy_mark: 0,
        }
    }

    /// The timing configuration this system was built from.
    pub fn config(&self) -> &TimingConfig {
        &self.config
    }

    /// Cumulative DRAM statistics (traffic classes, bursts, row behaviour).
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Cumulative accesses of each SRAM structure, as
    /// `(size_bytes, accesses)` pairs — input for the energy model.
    pub fn sram_accesses(&self) -> Vec<(u32, u64)> {
        let mut v = vec![
            (
                self.config.vertex_cache.size_bytes,
                self.vertex_cache.accesses(),
            ),
            (
                self.config.tile_cache.size_bytes,
                self.tile_cache.accesses(),
            ),
            (self.config.l2_cache.size_bytes, self.l2.accesses()),
        ];
        for t in &self.texture_caches {
            v.push((self.config.texture_cache.size_bytes, t.accesses()));
        }
        v
    }

    /// Returns and clears the epoch counters (call at tile/phase
    /// boundaries).
    pub fn take_epoch(&mut self) -> MemEpoch {
        let mut e = self.epoch;
        e.dram_busy_cycles = self.dram.stats().busy_cycles - self.dram_busy_mark;
        self.dram_busy_mark = self.dram.stats().busy_cycles;
        self.epoch = MemEpoch::default();
        e
    }

    fn line_bytes(&self) -> u64 {
        self.config.l2_cache.line_bytes as u64
    }

    /// Replays a recorded access stream, in order, through the hierarchy.
    /// `include_flush` gates the [`Event::ColorFlush`] events (Transaction
    /// Elimination); [`Event::FragShaded`] probes touch no memory.
    pub fn replay(&mut self, events: &[Event], include_flush: bool) {
        for e in events {
            match *e {
                Event::VertexFetch { addr, bytes } => self.vertex_fetch(addr, bytes),
                Event::ParamWrite { addr, bytes } => self.param_write(addr, bytes),
                Event::ParamRead { addr, bytes } => self.param_read(addr, bytes),
                Event::Texel { unit, addr } => self.texel_fetch(unit, addr),
                Event::ColorFlush { addr, bytes } => {
                    if include_flush {
                        self.color_flush(addr, bytes);
                    }
                }
                Event::FragShaded { .. } => {}
            }
        }
    }

    fn vertex_fetch(&mut self, addr: u64, bytes: u32) {
        let lb = self.line_bytes();
        if bytes == 0 {
            return;
        }
        let first = addr / lb;
        let last = (addr + bytes as u64 - 1) / lb;
        for line in first..=last {
            if self.vertex_cache.access(line * lb) == crate::cache::Access::Miss {
                self.epoch.vertex_misses += 1;
                if self.l2.access(line * lb) == crate::cache::Access::Miss {
                    self.epoch.l2_misses += 1;
                    let lat = self
                        .dram
                        .request(TrafficClass::Vertices, line * lb, lb as u32);
                    self.epoch.vertex_latency_sum += lat;
                }
            }
        }
    }

    fn param_write(&mut self, addr: u64, bytes: u32) {
        self.epoch.param_write_bytes += bytes as u64;
        // The PLB rewrites the Parameter Buffer every frame; stale lines in
        // the Tile Cache must not survive (write-invalidate coherence).
        self.tile_cache.invalidate_range(addr, bytes);
        self.dram
            .request(TrafficClass::PrimitiveWrites, addr, bytes);
    }

    fn param_read(&mut self, addr: u64, bytes: u32) {
        let lb = self.line_bytes();
        if bytes == 0 {
            return;
        }
        let first = addr / lb;
        let last = (addr + bytes as u64 - 1) / lb;
        for line in first..=last {
            if self.tile_cache.access(line * lb) == crate::cache::Access::Miss {
                self.epoch.tile_misses += 1;
                let lat = self
                    .dram
                    .request(TrafficClass::PrimitiveReads, line * lb, lb as u32);
                self.epoch.prim_read_latency_sum += lat;
            }
        }
    }

    fn texel_fetch(&mut self, unit: u8, addr: u64) {
        let lb = self.line_bytes();
        let line_addr = addr / lb * lb;
        let unit = (unit as usize) % self.texture_caches.len();
        if self.texture_caches[unit].access(line_addr) == crate::cache::Access::Miss {
            self.epoch.tex_misses += 1;
            if self.l2.access(line_addr) == crate::cache::Access::Miss {
                self.epoch.l2_misses += 1;
                let lat = self
                    .dram
                    .request(TrafficClass::Texels, line_addr, lb as u32);
                self.epoch.texel_latency_sum += lat;
            }
        }
    }

    fn color_flush(&mut self, addr: u64, bytes: u32) {
        self.epoch.color_bytes += bytes as u64;
        self.dram.request(TrafficClass::Colors, addr, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_gpu::access::{FB_BASE, PARAM_BASE, TEX_BASE, VB_BASE};

    fn sys() -> MemorySystem {
        MemorySystem::new(TimingConfig::mali450())
    }

    #[test]
    fn cold_texel_miss_reaches_dram() {
        let mut m = sys();
        m.texel_fetch(0, TEX_BASE);
        let e = m.take_epoch();
        assert_eq!(e.tex_misses, 1);
        assert_eq!(e.l2_misses, 1);
        assert!(e.texel_latency_sum >= 50);
        assert_eq!(m.dram_stats().class_bytes(TrafficClass::Texels), 64);
    }

    #[test]
    fn warm_texel_hits_are_free_of_dram() {
        let mut m = sys();
        m.texel_fetch(0, TEX_BASE);
        m.take_epoch();
        m.texel_fetch(0, TEX_BASE + 4); // same line
        let e = m.take_epoch();
        assert_eq!(e.tex_misses, 0);
        assert_eq!(e.dram_busy_cycles, 0);
    }

    #[test]
    fn texture_units_have_private_caches() {
        let mut m = sys();
        m.texel_fetch(0, TEX_BASE);
        m.take_epoch();
        m.texel_fetch(1, TEX_BASE); // other unit: cold, but L2 hit
        let e = m.take_epoch();
        assert_eq!(e.tex_misses, 1);
        assert_eq!(e.l2_misses, 0, "L2 absorbs the second unit's miss");
    }

    #[test]
    fn param_write_is_pure_dram_traffic() {
        let mut m = sys();
        m.param_write(PARAM_BASE, 144);
        let e = m.take_epoch();
        assert_eq!(e.param_write_bytes, 144);
        assert!(m.dram_stats().class_bytes(TrafficClass::PrimitiveWrites) >= 144);
        assert_eq!(e.tile_misses, 0);
    }

    #[test]
    fn param_read_goes_through_tile_cache() {
        let mut m = sys();
        m.param_read(PARAM_BASE, 144); // 3 lines cold
        let e = m.take_epoch();
        assert_eq!(e.tile_misses, 3);
        m.param_read(PARAM_BASE, 144); // warm
        let e = m.take_epoch();
        assert_eq!(e.tile_misses, 0);
    }

    #[test]
    fn param_write_invalidates_tile_cache() {
        // Next frame's PLB rewrite must not leave stale hits behind.
        let mut m = sys();
        m.param_read(PARAM_BASE, 64);
        m.take_epoch();
        m.param_write(PARAM_BASE, 64);
        m.param_read(PARAM_BASE, 64);
        let e = m.take_epoch();
        assert_eq!(e.tile_misses, 1, "rewritten line must re-miss");
    }

    #[test]
    fn color_flush_counts_bytes_and_busy_cycles() {
        let mut m = sys();
        m.color_flush(FB_BASE, 64);
        let e = m.take_epoch();
        assert_eq!(e.color_bytes, 64);
        assert_eq!(e.dram_busy_cycles, 64 / 4 + 2);
        assert_eq!(m.dram_stats().class_bytes(TrafficClass::Colors), 64);
    }

    #[test]
    fn vertex_fetch_path() {
        let mut m = sys();
        m.vertex_fetch(VB_BASE, 96);
        let e = m.take_epoch();
        assert!(e.vertex_misses >= 2, "96 B spans ≥2 lines");
        assert!(e.vertex_latency_sum > 0);
    }

    #[test]
    fn epoch_resets_after_take() {
        let mut m = sys();
        m.color_flush(FB_BASE, 64);
        let _ = m.take_epoch();
        let e = m.take_epoch();
        assert_eq!(e, MemEpoch::default());
    }

    /// One access of each kind, in the order Stage A records them.
    fn sample() -> Vec<Event> {
        vec![
            Event::VertexFetch {
                addr: VB_BASE,
                bytes: 48,
            },
            Event::ParamWrite {
                addr: PARAM_BASE,
                bytes: 96,
            },
            Event::ParamRead {
                addr: PARAM_BASE,
                bytes: 96,
            },
            Event::Texel {
                unit: 2,
                addr: TEX_BASE,
            },
            Event::ColorFlush {
                addr: FB_BASE,
                bytes: 64,
            },
            Event::FragShaded {
                tile: 3,
                drawcall: 1,
                hash: 0xABCD,
            },
        ]
    }

    #[test]
    fn replay_reproduces_traffic() {
        let mut m = sys();
        m.replay(&sample(), true);
        let e = m.take_epoch();
        assert_eq!(e.vertex_misses, 1, "48 B in one line");
        assert_eq!(e.tile_misses, 2, "96 B over two lines, written first");
        assert_eq!(e.tex_misses, 1);
        assert_eq!(e.l2_misses, 2, "vertex and texel paths");
        assert_eq!(e.param_write_bytes, 96);
        assert_eq!(e.color_bytes, 64);
        for class in TrafficClass::ALL {
            assert!(m.dram_stats().class_bytes(class) > 0, "{class:?}");
        }
    }

    #[test]
    fn replay_can_filter_flush() {
        let (mut with, mut without) = (sys(), sys());
        with.replay(&sample(), true);
        without.replay(&sample(), false);
        let (e_with, e_without) = (with.take_epoch(), without.take_epoch());
        assert_eq!(e_without.color_bytes, 0);
        assert_eq!(e_with.color_bytes, 64);
        let misses = |e: &MemEpoch| (e.vertex_misses, e.tex_misses, e.l2_misses, e.tile_misses);
        assert_eq!(
            misses(&e_with),
            misses(&e_without),
            "cache behaviour untouched"
        );
        for class in TrafficClass::ALL {
            let (w, wo) = (
                with.dram_stats().class_bytes(class),
                without.dram_stats().class_bytes(class),
            );
            match class {
                TrafficClass::Colors => assert_eq!((w, wo), (64, 0)),
                _ => assert_eq!(w, wo, "{class:?} untouched"),
            }
        }
    }

    #[test]
    fn sram_access_report_covers_all_structures() {
        let m = sys();
        // vertex + tile + L2 + 4 texture caches.
        assert_eq!(m.sram_accesses().len(), 7);
    }
}
