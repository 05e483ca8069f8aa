//! The Tiling Engine: Polygon List Builder and Parameter Buffer encoding.
//!
//! The Polygon List Builder (PLB) receives assembled primitives, determines
//! which tiles each one overlaps, appends the primitive's attributes to the
//! Parameter Buffer in main memory and records the primitive in every
//! overlapped tile's bin. The overlap list is exactly what the paper's
//! Signature Unit consumes through its OT (Overlapped Tiles) Queue, and the
//! Parameter Buffer bytes are the "attributes" blocks it signs.
//!
//! Two binning modes exist (see [`BinningMode`]): the default
//! bounding-box binning of simple low-power tilers (the paper's assumed
//! baseline), and exact-coverage binning via a separating-axis test —
//! fewer (primitive, tile) pairs at the cost of per-tile edge tests.

use re_math::{edge_function, Rect, Vec2};

use crate::access::{Event, PARAM_BASE};
use crate::geometry::{AssembledPrim, ShadedVertex};
use crate::stats::GeometryStats;
use crate::{BinningMode, GpuConfig};

/// Tiles overlapped by a screen-space rectangle, in row-major order.
pub fn tiles_overlapping(config: &GpuConfig, bbox: Rect) -> Vec<u32> {
    if bbox.is_empty() {
        return Vec::new();
    }
    let ts = config.tile_size as i32;
    let tx0 = (bbox.x0 / ts).max(0);
    let ty0 = (bbox.y0 / ts).max(0);
    // Half-open bbox: a box ending exactly on a tile edge does not enter
    // the next tile.
    let tx1 = ((bbox.x1 - 1) / ts).min(config.tiles_x() as i32 - 1);
    let ty1 = ((bbox.y1 - 1) / ts).min(config.tiles_y() as i32 - 1);
    let mut out = Vec::with_capacity(((tx1 - tx0 + 1) * (ty1 - ty0 + 1)).max(0) as usize);
    for ty in ty0..=ty1 {
        for tx in tx0..=tx1 {
            out.push((ty * config.tiles_x() as i32 + tx) as u32);
        }
    }
    out
}

/// Tiles whose area actually intersects the triangle, in row-major order.
///
/// Complete separating-axis test for a convex pair (axis-aligned tile,
/// triangle): the bounding-box prefilter covers the tile's axes; the three
/// triangle edge functions, evaluated at the tile corner most interior per
/// edge, cover the triangle's axes. Exact up to floating-point: a tile is
/// excluded only when it provably lies entirely outside one edge, so no
/// covered pixel can ever be lost relative to bounding-box binning.
pub fn tiles_overlapping_exact(
    config: &GpuConfig,
    bbox: Rect,
    verts: &[ShadedVertex; 3],
) -> Vec<u32> {
    // Normalize orientation so the interior is on the positive side.
    let p = [
        Vec2::new(verts[0].screen[0], verts[0].screen[1]),
        Vec2::new(verts[1].screen[0], verts[1].screen[1]),
        Vec2::new(verts[2].screen[0], verts[2].screen[1]),
    ];
    let (a, b, c) = if edge_function(p[0], p[1], p[2]) >= 0.0 {
        (p[0], p[1], p[2])
    } else {
        (p[0], p[2], p[1])
    };
    let edges = [(b, c), (c, a), (a, b)];
    tiles_overlapping(config, bbox)
        .into_iter()
        .filter(|&tile| {
            let r = config.tile_rect(tile);
            let corners = [
                Vec2::new(r.x0 as f32, r.y0 as f32),
                Vec2::new(r.x1 as f32, r.y0 as f32),
                Vec2::new(r.x0 as f32, r.y1 as f32),
                Vec2::new(r.x1 as f32, r.y1 as f32),
            ];
            edges
                .iter()
                .all(|&(e0, e1)| corners.iter().any(|&k| edge_function(e0, e1, k) >= 0.0))
        })
        .collect()
}

/// Encodes a primitive's Parameter Buffer record: for each of the three
/// vertices, the clip-space position followed by the varyings, 16 B per
/// vec4. One paper "attribute" (a vec4 across the three vertices) is 48 B.
pub fn encode_prim(verts: &[ShadedVertex; 3]) -> Vec<u8> {
    let n_attrs = 1 + verts[0].varyings.len();
    let mut out = Vec::with_capacity(3 * n_attrs * 16);
    for v in verts {
        out.extend_from_slice(&v.clip.to_le_bytes());
        for vy in &v.varyings {
            out.extend_from_slice(&vy.to_le_bytes());
        }
    }
    out
}

/// The Polygon List Builder: owns the frame's primitive list, per-tile bins
/// and the Parameter Buffer write cursor.
#[derive(Debug)]
pub struct PolygonListBuilder {
    config: GpuConfig,
    prims: Vec<AssembledPrim>,
    bins: Vec<Vec<u32>>,
    param_cursor: u64,
}

impl PolygonListBuilder {
    /// Creates an empty builder for one frame.
    pub fn new(config: &GpuConfig) -> Self {
        PolygonListBuilder {
            config: *config,
            prims: Vec::new(),
            bins: vec![Vec::new(); config.tile_count() as usize],
            param_cursor: PARAM_BASE,
        }
    }

    /// Sorts one primitive into tiles and appends it to the Parameter
    /// Buffer. Returns the primitive's index.
    pub fn push_prim(
        &mut self,
        drawcall: u32,
        verts: [ShadedVertex; 3],
        bbox: Rect,
        stats: &mut GeometryStats,
        events: &mut Vec<Event>,
    ) -> u32 {
        let param_bytes = encode_prim(&verts);
        let param_addr = self.param_cursor;
        self.param_cursor += param_bytes.len() as u64;
        events.push(Event::ParamWrite {
            addr: param_addr,
            bytes: param_bytes.len() as u32,
        });
        stats.param_bytes_written += param_bytes.len() as u64;
        stats.prims_binned += 1;

        let overlapped_tiles = match self.config.binning {
            BinningMode::BoundingBox => tiles_overlapping(&self.config, bbox),
            BinningMode::ExactCoverage => tiles_overlapping_exact(&self.config, bbox, &verts),
        };
        stats.prim_tile_pairs += overlapped_tiles.len() as u64;
        // Besides the attribute record, the PLB appends one polygon-list
        // entry (an 8-byte primitive reference) to every overlapped tile's
        // list in the Parameter Buffer.
        let list_bytes = overlapped_tiles.len() as u64 * 8;
        events.push(Event::ParamWrite {
            addr: self.param_cursor,
            bytes: list_bytes as u32,
        });
        self.param_cursor += list_bytes;
        stats.param_bytes_written += list_bytes;

        let idx = self.prims.len() as u32;
        for &t in &overlapped_tiles {
            self.bins[t as usize].push(idx);
        }
        self.prims.push(AssembledPrim {
            drawcall,
            verts,
            bbox,
            param_addr,
            param_bytes,
            overlapped_tiles,
        });
        idx
    }

    /// Consumes the builder, returning the primitive list and the bins.
    pub fn finish(self) -> (Vec<AssembledPrim>, Vec<Vec<u32>>) {
        (self.prims, self.bins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_math::Vec4;

    fn cfg() -> GpuConfig {
        GpuConfig {
            width: 64,
            height: 64,
            tile_size: 16,
            ..Default::default()
        }
    }

    fn sv(x: f32, y: f32) -> ShadedVertex {
        ShadedVertex {
            clip: Vec4::new(x, y, 0.0, 1.0),
            screen: [x, y, 0.5],
            inv_w: 1.0,
            varyings: vec![Vec4::splat(1.0)],
        }
    }

    #[test]
    fn bbox_within_one_tile() {
        let tiles = tiles_overlapping(&cfg(), Rect::new(2, 2, 10, 10));
        assert_eq!(tiles, vec![0]);
    }

    #[test]
    fn bbox_spanning_four_tiles() {
        let tiles = tiles_overlapping(&cfg(), Rect::new(10, 10, 20, 20));
        assert_eq!(tiles, vec![0, 1, 4, 5]);
    }

    #[test]
    fn bbox_on_tile_edge_stays_in_one_tile() {
        // Half-open [0,16): ends exactly at the boundary.
        let tiles = tiles_overlapping(&cfg(), Rect::new(0, 0, 16, 16));
        assert_eq!(tiles, vec![0]);
    }

    #[test]
    fn fullscreen_bbox_touches_all_tiles() {
        let c = cfg();
        let tiles = tiles_overlapping(&c, Rect::new(0, 0, 64, 64));
        assert_eq!(tiles.len() as u32, c.tile_count());
        // Row-major order.
        assert_eq!(tiles[0], 0);
        assert_eq!(tiles[1], 1);
        assert_eq!(tiles[4], 4);
    }

    #[test]
    fn empty_bbox_overlaps_nothing() {
        assert!(tiles_overlapping(&cfg(), Rect::new(5, 5, 5, 9)).is_empty());
    }

    #[test]
    fn encode_prim_layout() {
        let verts = [sv(0.0, 0.0), sv(1.0, 0.0), sv(0.0, 1.0)];
        let bytes = encode_prim(&verts);
        // 3 verts × (pos + 1 varying) × 16 B.
        assert_eq!(bytes.len(), 96);
        // First 16 bytes are v0's clip position.
        assert_eq!(f32::from_le_bytes(bytes[0..4].try_into().unwrap()), 0.0);
        assert_eq!(f32::from_le_bytes(bytes[12..16].try_into().unwrap()), 1.0); // w
                                                                                // Bytes 16..32 are v0's varying (all ones).
        assert_eq!(f32::from_le_bytes(bytes[16..20].try_into().unwrap()), 1.0);
    }

    #[test]
    fn exact_binning_drops_bbox_only_tiles() {
        // A thin diagonal triangle: its bbox spans all 16 tiles of a 64x64
        // screen, but its area misses the off-diagonal corners.
        let c = cfg();
        let verts = [sv(0.0, 0.0), sv(63.0, 57.0), sv(63.0, 63.0)];
        let bbox = Rect::new(0, 0, 64, 64);
        let exact = tiles_overlapping_exact(&c, bbox, &verts);
        let bb = tiles_overlapping(&c, bbox);
        assert!(
            exact.len() < bb.len(),
            "exact {} vs bbox {}",
            exact.len(),
            bb.len()
        );
        // Exactness is conservative: every exact tile is also a bbox tile.
        assert!(exact.iter().all(|t| bb.contains(t)));
        // The far off-diagonal corner tile (top-right) is excluded.
        assert!(!exact.contains(&3), "tile 3 is far outside the sliver");
    }

    #[test]
    fn exact_binning_keeps_fully_covered_tiles() {
        let c = cfg();
        let verts = [sv(-20.0, -20.0), sv(120.0, -20.0), sv(-20.0, 120.0)];
        let bbox = Rect::new(0, 0, 64, 64);
        let exact = tiles_overlapping_exact(&c, bbox, &verts);
        // The big triangle genuinely covers the upper-left region.
        assert!(exact.contains(&0));
        assert!(exact.len() >= 10);
    }

    #[test]
    fn exact_binning_is_winding_independent() {
        let c = cfg();
        let bbox = Rect::new(0, 0, 64, 64);
        let fwd = [sv(5.0, 5.0), sv(60.0, 8.0), sv(30.0, 50.0)];
        let rev = [sv(5.0, 5.0), sv(30.0, 50.0), sv(60.0, 8.0)];
        assert_eq!(
            tiles_overlapping_exact(&c, bbox, &fwd),
            tiles_overlapping_exact(&c, bbox, &rev)
        );
    }

    #[test]
    fn plb_assigns_sequential_param_addresses() {
        let c = cfg();
        let mut plb = PolygonListBuilder::new(&c);
        let mut stats = GeometryStats::default();
        let mut events = Vec::new();
        let verts = [sv(0.0, 0.0), sv(8.0, 0.0), sv(0.0, 8.0)];
        let a = plb.push_prim(
            0,
            verts.clone(),
            Rect::new(0, 0, 8, 8),
            &mut stats,
            &mut events,
        );
        let b = plb.push_prim(0, verts, Rect::new(0, 0, 8, 8), &mut stats, &mut events);
        let (prims, bins) = plb.finish();
        assert_eq!((a, b), (0, 1));
        // 96-byte record + one 8-byte list entry (single overlapped tile).
        assert_eq!(prims[1].param_addr, prims[0].param_addr + 96 + 8);
        assert_eq!(bins[0], vec![0, 1], "bin preserves submission order");
        assert_eq!(stats.prim_tile_pairs, 2);
        let param_write_bytes: u32 = events
            .iter()
            .map(|e| match *e {
                Event::ParamWrite { bytes, .. } => bytes,
                _ => panic!("the PLB emits only PB writes: {e:?}"),
            })
            .sum();
        assert_eq!(param_write_bytes, 2 * (96 + 8));
    }
}
