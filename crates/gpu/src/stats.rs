//! Activity counters produced by the functional pipeline.
//!
//! These are the "activity factors" the paper's cycle-accurate simulator
//! gathers (§IV-A); `re-timing` converts them into cycles and energy.

/// Counters for the Geometry Pipeline + Tiling Engine of one frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeometryStats {
    /// Vertices read by the Vertex Fetcher.
    pub vertices_fetched: u64,
    /// Vertices executed by the Vertex Processor.
    pub vertices_shaded: u64,
    /// Vertex-shader instruction slots executed.
    pub vs_instr_slots: u64,
    /// Triangles entering Primitive Assembly.
    pub prims_in: u64,
    /// Triangles dropped at assembly (offscreen, degenerate, backfacing).
    pub prims_culled: u64,
    /// Triangles produced by near-plane clipping beyond the originals.
    pub prims_from_clipping: u64,
    /// Triangles handed to the Polygon List Builder.
    pub prims_binned: u64,
    /// (primitive, tile) overlap pairs produced by binning — the OT-queue
    /// traffic of the Signature Unit.
    pub prim_tile_pairs: u64,
    /// Bytes appended to the Parameter Buffer.
    pub param_bytes_written: u64,
    /// Bytes of vertex attributes fetched.
    pub vertex_bytes_fetched: u64,
}

impl GeometryStats {
    /// Merges another frame's counters into this one (suite aggregation).
    pub fn merge(&mut self, other: &GeometryStats) {
        self.vertices_fetched += other.vertices_fetched;
        self.vertices_shaded += other.vertices_shaded;
        self.vs_instr_slots += other.vs_instr_slots;
        self.prims_in += other.prims_in;
        self.prims_culled += other.prims_culled;
        self.prims_from_clipping += other.prims_from_clipping;
        self.prims_binned += other.prims_binned;
        self.prim_tile_pairs += other.prim_tile_pairs;
        self.param_bytes_written += other.param_bytes_written;
        self.vertex_bytes_fetched += other.vertex_bytes_fetched;
    }
}

/// Counters for the Raster Pipeline work of a single tile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Primitives fetched and set up for this tile.
    pub prims_processed: u64,
    /// Bytes read from the Parameter Buffer for this tile.
    pub param_bytes_read: u64,
    /// Fragments covered by rasterization (before Early-Z).
    pub fragments_rasterized: u64,
    /// Per-fragment attribute interpolations performed by the rasterizer
    /// (drives the 16-attributes/cycle throughput of Table I).
    pub attr_interpolations: u64,
    /// Fragments discarded by the Early Depth Test.
    pub early_z_killed: u64,
    /// Fragments executed by the Fragment Processors.
    pub fragments_shaded: u64,
    /// Fragment-shader instruction slots executed.
    pub fs_instr_slots: u64,
    /// Texel fetches issued to the Texture Caches.
    pub texel_fetches: u64,
    /// Blend operations performed (writes to the on-chip Color Buffer).
    pub blend_ops: u64,
    /// Depth-buffer accesses (tests + writes).
    pub depth_accesses: u64,
    /// Pixels flushed to the Frame Buffer at tile end.
    pub pixels_flushed: u64,
    /// Bytes flushed to the Frame Buffer at tile end.
    pub color_bytes_flushed: u64,
}

impl TileStats {
    /// Merges another tile's counters into this one.
    pub fn merge(&mut self, other: &TileStats) {
        self.prims_processed += other.prims_processed;
        self.param_bytes_read += other.param_bytes_read;
        self.fragments_rasterized += other.fragments_rasterized;
        self.attr_interpolations += other.attr_interpolations;
        self.early_z_killed += other.early_z_killed;
        self.fragments_shaded += other.fragments_shaded;
        self.fs_instr_slots += other.fs_instr_slots;
        self.texel_fetches += other.texel_fetches;
        self.blend_ops += other.blend_ops;
        self.depth_accesses += other.depth_accesses;
        self.pixels_flushed += other.pixels_flushed;
        self.color_bytes_flushed += other.color_bytes_flushed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = TileStats {
            fragments_shaded: 10,
            texel_fetches: 5,
            ..Default::default()
        };
        let b = TileStats {
            fragments_shaded: 3,
            blend_ops: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.fragments_shaded, 13);
        assert_eq!(a.texel_fetches, 5);
        assert_eq!(a.blend_ops, 7);
    }

    #[test]
    fn geometry_merge_adds_fields() {
        let mut a = GeometryStats {
            vertices_shaded: 4,
            prim_tile_pairs: 9,
            ..Default::default()
        };
        a.merge(&GeometryStats {
            vertices_shaded: 6,
            ..Default::default()
        });
        assert_eq!(a.vertices_shaded, 10);
        assert_eq!(a.prim_tile_pairs, 9);
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(TileStats::default().fragments_shaded, 0);
        assert_eq!(GeometryStats::default().prims_in, 0);
    }
}
