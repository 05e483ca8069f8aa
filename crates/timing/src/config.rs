//! The machine description — paper Table I.

/// Geometry of one cache (used for the Vertex/Texture/Tile/L2 caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity (ways).
    pub ways: u32,
    /// Access latency in cycles.
    pub latency: u32,
}

impl CacheGeometry {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// The memory machine of paper Table I: clock, caches, DRAM, queues and
/// pipeline throughputs — everything the baseline, RE and TE machines
/// replay a render log on. RE's own hardware (the Signature Unit's
/// Overlapped-Tiles queue and the Signature Buffer compare cost) is part
/// of RE's options, not of this machine, so a section keyed by a
/// `TimingConfig` is keyed by exactly what it reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Core clock in Hz (400 MHz).
    pub clock_hz: u64,
    /// Supply voltage in volts (1 V). Only the Table I printout reads it:
    /// the energy model's per-event constants are fixed and do not scale
    /// with it.
    pub voltage: f32,
    /// Vertex cache geometry (4 KB, 2-way, 64 B lines, 1 cycle).
    pub vertex_cache: CacheGeometry,
    /// Texture cache geometry, one per fragment processor
    /// (8 KB, 2-way, 64 B lines, 1 cycle).
    pub texture_cache: CacheGeometry,
    /// Number of texture caches / fragment processors (4).
    pub num_fragment_processors: u32,
    /// Tile cache geometry (128 KB, 8-way, 64 B lines, 1 cycle).
    pub tile_cache: CacheGeometry,
    /// L2 cache geometry (256 KB, 8-way, 64 B lines, 2 cycles).
    pub l2_cache: CacheGeometry,
    /// On-chip Color Buffer bytes (1 KB).
    pub color_buffer_bytes: u32,
    /// On-chip Depth Buffer bytes (1 KB).
    pub depth_buffer_bytes: u32,
    /// Number of vertex processors (1).
    pub num_vertex_processors: u32,
    /// Primitive-assembly throughput, triangles per cycle (1).
    pub prims_per_cycle: u32,
    /// Rasterizer throughput, attribute interpolations per cycle (16).
    pub raster_attrs_per_cycle: u32,
    /// Early-Z throughput, fragments per cycle (one quad = 4).
    pub early_z_frags_per_cycle: u32,
    /// Blending throughput, fragments per cycle (4).
    pub blend_frags_per_cycle: u32,
    /// DRAM bandwidth in bytes per core cycle (4 — dual-channel LPDDR3).
    pub dram_bytes_per_cycle: u32,
    /// Minimum DRAM latency in cycles (50 — row-buffer hit).
    pub dram_latency_min: u32,
    /// Maximum DRAM latency in cycles (100 — row-buffer miss).
    pub dram_latency_max: u32,
    /// Outstanding misses a fragment processor can hide (MSHR depth).
    pub texture_outstanding: u32,
    /// Vertex/Triangle/Tile queue depth, entries (16).
    pub queue_entries: u32,
    /// Fragment queue depth, entries (64).
    pub fragment_queue_entries: u32,
}

impl TimingConfig {
    /// The ARM Mali-450-like configuration of Table I.
    pub fn mali450() -> Self {
        let line = 64;
        TimingConfig {
            clock_hz: 400_000_000,
            voltage: 1.0,
            vertex_cache: CacheGeometry {
                size_bytes: 4 << 10,
                line_bytes: line,
                ways: 2,
                latency: 1,
            },
            texture_cache: CacheGeometry {
                size_bytes: 8 << 10,
                line_bytes: line,
                ways: 2,
                latency: 1,
            },
            num_fragment_processors: 4,
            tile_cache: CacheGeometry {
                size_bytes: 128 << 10,
                line_bytes: line,
                ways: 8,
                latency: 1,
            },
            l2_cache: CacheGeometry {
                size_bytes: 256 << 10,
                line_bytes: line,
                ways: 8,
                latency: 2,
            },
            color_buffer_bytes: 1 << 10,
            depth_buffer_bytes: 1 << 10,
            num_vertex_processors: 1,
            prims_per_cycle: 1,
            raster_attrs_per_cycle: 16,
            early_z_frags_per_cycle: 4,
            blend_frags_per_cycle: 4,
            dram_bytes_per_cycle: 4,
            dram_latency_min: 50,
            dram_latency_max: 100,
            texture_outstanding: 8,
            queue_entries: 16,
            fragment_queue_entries: 64,
        }
    }

    /// Average DRAM latency in cycles.
    pub fn dram_latency_avg(&self) -> u32 {
        (self.dram_latency_min + self.dram_latency_max) / 2
    }

    /// Resizes the L2 to `kb` KiB, keeping line size/ways/latency. This is
    /// the canonical KiB→bytes lowering the sweep's `--l2-kb` axis uses;
    /// `kb` must stay below 4 GiB/1024 so `kb << 10` fits the geometry's
    /// `u32` byte count.
    pub fn set_l2_kb(&mut self, kb: u32) {
        self.l2_cache.size_bytes = kb << 10;
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig::mali450()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mali450_matches_table1() {
        let c = TimingConfig::mali450();
        assert_eq!(c.clock_hz, 400_000_000);
        assert_eq!(c.vertex_cache.size_bytes, 4096);
        assert_eq!(c.texture_cache.size_bytes, 8192);
        assert_eq!(c.tile_cache.size_bytes, 131072);
        assert_eq!(c.l2_cache.size_bytes, 262144);
        assert_eq!(c.l2_cache.latency, 2);
        assert_eq!(c.num_fragment_processors, 4);
        assert_eq!(c.num_vertex_processors, 1);
        assert_eq!(c.raster_attrs_per_cycle, 16);
        assert_eq!(c.dram_bytes_per_cycle, 4);
    }

    #[test]
    fn set_counts() {
        let c = TimingConfig::mali450();
        assert_eq!(c.vertex_cache.sets(), 32); // 4KB / (64 × 2)
        assert_eq!(c.l2_cache.sets(), 512); // 256KB / (64 × 8)
    }

    #[test]
    fn dram_latency_average() {
        assert_eq!(TimingConfig::mali450().dram_latency_avg(), 75);
    }
}
