//! Stage-throughput cycle model.
//!
//! The pipeline is modelled as a set of concurrently operating stages with
//! the Table I throughputs; the time of a unit of work (a frame's geometry,
//! or one tile's rasterization) is the busiest stage's busy time plus the
//! memory stalls that cannot be hidden. This reproduces the first-order
//! behaviour the paper reports: fragment-shading- or memory-bound tiles,
//! near-zero cost for empty tiles (flush only), and geometry time that is
//! small relative to raster time.

use re_gpu::stats::{GeometryStats, TileStats};

use crate::config::TimingConfig;
use crate::memory::MemEpoch;

/// Fixed per-tile dispatch overhead (Tile Scheduler handshake).
pub const TILE_DISPATCH_CYCLES: u64 = 16;

/// Cycles for the Geometry Pipeline + Tiling Engine of one frame.
///
/// Stages (vertex fetch, vertex shading, assembly, binning, Parameter
/// Buffer writes) are pipelined, so the frame's geometry time is the
/// maximum of the per-stage busy times; vertex-fetch DRAM latency is
/// partially hidden by the vertex queue.
pub fn geometry_cycles(cfg: &TimingConfig, g: &GeometryStats, mem: &MemEpoch) -> u64 {
    let fetch = g.vertices_fetched + mem.vertex_latency_sum / cfg.queue_entries as u64;
    let shade = g.vs_instr_slots / cfg.num_vertex_processors as u64;
    let assemble = g.prims_in / cfg.prims_per_cycle as u64;
    // The PLB spends one cycle per (primitive, tile) pair and must push the
    // attribute bytes out at DRAM bandwidth.
    let bin = g.prim_tile_pairs;
    let param_bw = mem.param_write_bytes / cfg.dram_bytes_per_cycle as u64;
    fetch.max(shade).max(assemble).max(bin).max(param_bw)
}

/// Cycles for the Raster Pipeline of a single tile.
///
/// `mem` must be the memory epoch of this tile's rasterization: its
/// replay through the caches ([`crate::memory::Caches::replay`]) with
/// its requests serviced by DRAM ([`crate::dram::Dram::service`]).
pub fn raster_tile_cycles(cfg: &TimingConfig, t: &TileStats, mem: &MemEpoch) -> u64 {
    // Triangle setup + attribute interpolation.
    let setup = t.prims_processed * 4;
    let raster = t
        .attr_interpolations
        .div_ceil(cfg.raster_attrs_per_cycle as u64);
    // Early-Z throughput.
    let early_z = t
        .fragments_rasterized
        .div_ceil(cfg.early_z_frags_per_cycle as u64);
    // Fragment shading: instruction slots over the processor array, plus
    // the texture-miss latency the MSHRs cannot hide.
    let shade = t
        .fs_instr_slots
        .div_ceil(cfg.num_fragment_processors as u64)
        + mem.tex_misses * cfg.l2_cache.latency as u64 / cfg.num_fragment_processors as u64
        + mem.texel_latency_sum / cfg.texture_outstanding as u64;
    // Parameter Buffer fetch latency, overlapped by the tile queue.
    let fetch = mem.prim_read_latency_sum / 4;
    // Blending throughput.
    let blend = t.blend_ops.div_ceil(cfg.blend_frags_per_cycle as u64);
    // The tile's DRAM traffic (flush + misses) occupies the channel.
    let dram = mem.dram_busy_cycles;

    TILE_DISPATCH_CYCLES
        + setup
            .max(raster)
            .max(early_z)
            .max(shade)
            .max(fetch)
            .max(blend)
            .max(dram)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TimingConfig {
        TimingConfig::mali450()
    }

    #[test]
    fn empty_tile_costs_only_dispatch_plus_flush() {
        let t = TileStats {
            pixels_flushed: 256,
            color_bytes_flushed: 1024,
            ..Default::default()
        };
        let mem = MemEpoch {
            dram_busy_cycles: 1024 / 4 + 2 * 16,
            ..Default::default()
        };
        let c = raster_tile_cycles(&cfg(), &t, &mem);
        // Dominated by the flush bandwidth (~288 cycles), not by compute.
        assert_eq!(c, TILE_DISPATCH_CYCLES + 1024 / 4 + 32);
    }

    #[test]
    fn shading_bound_tile() {
        let t = TileStats {
            fragments_shaded: 256,
            fs_instr_slots: 256 * 8, // 8 slots per fragment
            fragments_rasterized: 256,
            attr_interpolations: 256 * 3,
            blend_ops: 256,
            ..Default::default()
        };
        let mem = MemEpoch::default();
        let c = raster_tile_cycles(&cfg(), &t, &mem);
        // 2048 slots / 4 processors = 512, the busiest stage.
        assert_eq!(c, TILE_DISPATCH_CYCLES + 512);
    }

    #[test]
    fn texture_misses_add_stalls() {
        let t = TileStats {
            fs_instr_slots: 100,
            ..Default::default()
        };
        let warm = raster_tile_cycles(&cfg(), &t, &MemEpoch::default());
        let cold_mem = MemEpoch {
            tex_misses: 64,
            l2_misses: 64,
            texel_latency_sum: 64 * 75,
            ..Default::default()
        };
        let cold = raster_tile_cycles(&cfg(), &t, &cold_mem);
        assert!(cold > warm + 500, "cold: {cold}, warm: {warm}");
    }

    #[test]
    fn geometry_is_pipelined_max_of_stages() {
        let g = GeometryStats {
            vertices_fetched: 100,
            vs_instr_slots: 600,
            prims_in: 33,
            prim_tile_pairs: 200,
            ..Default::default()
        };
        let c = geometry_cycles(&cfg(), &g, &MemEpoch::default());
        assert_eq!(c, 600, "vertex shading is the busiest stage");
    }

    #[test]
    fn binning_bound_geometry() {
        let g = GeometryStats {
            vertices_fetched: 10,
            vs_instr_slots: 60,
            prims_in: 3,
            prim_tile_pairs: 5000, // a few full-screen primitives
            ..Default::default()
        };
        assert_eq!(geometry_cycles(&cfg(), &g, &MemEpoch::default()), 5000);
    }

    #[test]
    fn param_write_bandwidth_bounds_geometry() {
        let g = GeometryStats {
            prim_tile_pairs: 10,
            ..Default::default()
        };
        let mem = MemEpoch {
            param_write_bytes: 40_000,
            ..Default::default()
        };
        assert_eq!(geometry_cycles(&cfg(), &g, &mem), 10_000);
    }
}
