//! The Geometry Pipeline: vertex fetch, vertex shading, primitive assembly
//! (culling + near-plane clipping) and the hand-off to the Tiling Engine.

use re_math::{edge_function, Rect, Vec2, Vec4};

use crate::access::{Event, VB_BASE};
use crate::api::FrameDesc;
use crate::stats::GeometryStats;
use crate::tiling::PolygonListBuilder;
use crate::GpuConfig;

/// A vertex after the Vertex Processor and viewport transform.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadedVertex {
    /// Clip-space position (output register 0 of the vertex shader).
    pub clip: Vec4,
    /// Screen-space position: `x`, `y` in pixels (y down), `z` in `[0, 1]`.
    pub screen: [f32; 3],
    /// `1 / w` for perspective-correct interpolation.
    pub inv_w: f32,
    /// Varying outputs (registers 1..), undivided.
    pub varyings: Vec<Vec4>,
}

/// A primitive as stored in the Parameter Buffer, plus binning metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledPrim {
    /// Index of the owning drawcall within the frame.
    pub drawcall: u32,
    /// The three shaded vertices.
    pub verts: [ShadedVertex; 3],
    /// Screen-space bounding box, clipped to the screen.
    pub bbox: Rect,
    /// Address of this primitive's record in the Parameter Buffer.
    pub param_addr: u64,
    /// The byte-exact Parameter Buffer record: 3 vertices × (position +
    /// varyings) × 16 B. This is the "attributes" block the Signature Unit
    /// signs (one paper *attribute* = 48 B = one vec4 across 3 vertices).
    pub param_bytes: Vec<u8>,
    /// Tiles this primitive overlaps, in row-major order — the identifiers
    /// the Polygon List Builder pushes into the Signature Unit's OT Queue.
    pub overlapped_tiles: Vec<u32>,
}

/// Per-drawcall metadata retained for the Raster Pipeline and the
/// Signature Unit.
#[derive(Debug, Clone, PartialEq)]
pub struct DrawcallMeta {
    /// The constants block exactly as signed (little-endian vec4 slots).
    pub constants_bytes: Vec<u8>,
    /// Indices into [`GeometryOutput::prims`] of this drawcall's surviving
    /// primitives, in submission order.
    pub prim_indices: Vec<u32>,
}

/// Everything the Geometry Pipeline + Tiling Engine produce for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryOutput {
    /// Per-drawcall metadata, in submission order.
    pub drawcalls: Vec<DrawcallMeta>,
    /// Surviving primitives in Polygon-List-Builder order.
    pub prims: Vec<AssembledPrim>,
    /// Per-tile bins: indices into `prims`, ascending (= submission order).
    pub bins: Vec<Vec<u32>>,
    /// Activity counters.
    pub stats: GeometryStats,
}

impl GeometryOutput {
    /// Iterates a tile's primitive indices in rendering order.
    pub fn bin(&self, tile_id: u32) -> &[u32] {
        &self.bins[tile_id as usize]
    }
}

/// A clip-space vertex bundled with its varyings, used during clipping.
#[derive(Debug, Clone)]
struct ClipVertex {
    clip: Vec4,
    varyings: Vec<Vec4>,
}

impl ClipVertex {
    fn lerp(&self, other: &ClipVertex, t: f32) -> ClipVertex {
        ClipVertex {
            clip: self.clip.lerp(other.clip, t),
            varyings: self
                .varyings
                .iter()
                .zip(&other.varyings)
                .map(|(a, b)| a.lerp(*b, t))
                .collect(),
        }
    }
}

/// Clips a polygon against the half-space `f(v) ≥ 0` (Sutherland–Hodgman).
fn clip_against(poly: &[ClipVertex], f: impl Fn(&Vec4) -> f32) -> Vec<ClipVertex> {
    let mut out = Vec::with_capacity(poly.len() + 1);
    for i in 0..poly.len() {
        let cur = &poly[i];
        let next = &poly[(i + 1) % poly.len()];
        let dc = f(&cur.clip);
        let dn = f(&next.clip);
        if dc >= 0.0 {
            out.push(cur.clone());
        }
        if (dc >= 0.0) != (dn >= 0.0) {
            let t = dc / (dc - dn);
            out.push(cur.lerp(next, t));
        }
    }
    out
}

/// Runs the full Geometry Pipeline over `frame`. See [`crate::Gpu::run_geometry`].
pub fn run_geometry(
    config: &GpuConfig,
    frame: &FrameDesc,
    events: &mut Vec<Event>,
) -> GeometryOutput {
    let mut stats = GeometryStats::default();
    let mut plb = PolygonListBuilder::new(config);
    let mut drawcalls = Vec::with_capacity(frame.drawcalls.len());
    let screen = Rect::new(0, 0, config.width as i32, config.height as i32);

    for (dc_idx, dc) in frame.drawcalls.iter().enumerate() {
        let vs = &dc.state.vertex_shader;
        let n_vary = vs.num_varyings as usize;
        let mut meta = DrawcallMeta {
            constants_bytes: dc.constants_bytes(),
            prim_indices: Vec::new(),
        };
        // One vertex-buffer slab per drawcall; the Vertex Fetcher streams it.
        let vb_base = VB_BASE + ((dc_idx as u64) << 20);

        let mut cursor = 0u64;
        for tri in dc.vertices.chunks_exact(3) {
            stats.prims_in += 1;
            // --- Vertex Fetch + Vertex Processing -----------------------
            let mut shaded: Vec<ClipVertex> = Vec::with_capacity(3);
            for v in tri {
                let stride = v.stride();
                events.push(Event::VertexFetch {
                    addr: vb_base + cursor,
                    bytes: stride,
                });
                cursor += stride as u64;
                stats.vertices_fetched += 1;
                stats.vertex_bytes_fetched += stride as u64;
                let regs = vs.run(&v.attrs, &dc.constants, None);
                stats.vertices_shaded += 1;
                stats.vs_instr_slots += vs.cost() as u64;
                shaded.push(ClipVertex {
                    clip: regs[0],
                    varyings: regs[1..1 + n_vary].to_vec(),
                });
            }

            // --- Primitive Assembly: near clip + cull -------------------
            // Guard plane w ≥ ε keeps the division well-defined, then the
            // OpenGL near plane z ≥ −w.
            let poly = clip_against(&shaded, |v| v.w - 1e-6);
            let poly = clip_against(&poly, |v| v.z + v.w);
            if poly.len() < 3 {
                stats.prims_culled += 1;
                continue;
            }
            stats.prims_from_clipping += poly.len() as u64 - 3;

            // Fan-triangulate the clipped polygon.
            let to_screen = |cv: &ClipVertex| -> ShadedVertex {
                let w = cv.clip.w;
                let inv_w = 1.0 / w;
                let ndc_x = cv.clip.x * inv_w;
                let ndc_y = cv.clip.y * inv_w;
                let ndc_z = cv.clip.z * inv_w;
                ShadedVertex {
                    clip: cv.clip,
                    screen: [
                        (ndc_x * 0.5 + 0.5) * config.width as f32,
                        (0.5 - ndc_y * 0.5) * config.height as f32,
                        (ndc_z * 0.5 + 0.5).clamp(0.0, 1.0),
                    ],
                    inv_w,
                    varyings: cv.varyings.clone(),
                }
            };
            for k in 1..poly.len() - 1 {
                let verts = [
                    to_screen(&poly[0]),
                    to_screen(&poly[k]),
                    to_screen(&poly[k + 1]),
                ];
                let a = Vec2::new(verts[0].screen[0], verts[0].screen[1]);
                let b = Vec2::new(verts[1].screen[0], verts[1].screen[1]);
                let c = Vec2::new(verts[2].screen[0], verts[2].screen[1]);
                let area2 = edge_function(a, b, c);
                if area2 == 0.0 || (dc.state.cull_backface && area2 < 0.0) {
                    stats.prims_culled += 1;
                    continue;
                }
                // Screen-space bounding box, clipped to the screen.
                let min_x = a.x.min(b.x).min(c.x).floor() as i32;
                let min_y = a.y.min(b.y).min(c.y).floor() as i32;
                let max_x = a.x.max(b.x).max(c.x).ceil() as i32;
                let max_y = a.y.max(b.y).max(c.y).ceil() as i32;
                if max_x <= 0 || max_y <= 0 || min_x >= screen.x1 || min_y >= screen.y1 {
                    stats.prims_culled += 1;
                    continue;
                }
                let bbox = Rect::new(
                    min_x.max(0),
                    min_y.max(0),
                    max_x.min(screen.x1),
                    max_y.min(screen.y1),
                );
                if bbox.is_empty() {
                    stats.prims_culled += 1;
                    continue;
                }

                // --- Polygon List Builder -------------------------------
                let prim_idx = plb.push_prim(dc_idx as u32, verts, bbox, &mut stats, events);
                meta.prim_indices.push(prim_idx);
            }
        }
        drawcalls.push(meta);
    }

    let (prims, bins) = plb.finish();
    GeometryOutput {
        drawcalls,
        prims,
        bins,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DrawCall, PipelineState, Vertex};
    use re_math::Mat4;

    fn cfg() -> GpuConfig {
        GpuConfig {
            width: 64,
            height: 64,
            tile_size: 16,
            ..Default::default()
        }
    }

    /// A fullscreen-ish triangle in NDC via an identity transform.
    fn tri_dc(positions: [(f32, f32); 3]) -> DrawCall {
        let verts = positions
            .iter()
            .map(|&(x, y)| {
                Vertex::new(vec![
                    Vec4::new(x, y, 0.0, 1.0),
                    Vec4::new(1.0, 0.0, 0.0, 1.0),
                ])
            })
            .collect();
        DrawCall {
            state: PipelineState::flat_2d(),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices: verts,
        }
    }

    fn frame_of(dcs: Vec<DrawCall>) -> FrameDesc {
        FrameDesc {
            drawcalls: dcs,
            ..FrameDesc::new()
        }
    }

    #[test]
    fn onscreen_triangle_is_assembled_and_binned() {
        let f = frame_of(vec![tri_dc([(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5)])]);
        let geo = run_geometry(&cfg(), &f, &mut Vec::new());
        assert_eq!(geo.prims.len(), 1);
        assert_eq!(geo.stats.prims_binned, 1);
        assert!(geo.stats.prim_tile_pairs >= 4, "spans several 16px tiles");
        assert!(!geo.prims[0].overlapped_tiles.is_empty());
        assert_eq!(geo.drawcalls[0].prim_indices, vec![0]);
    }

    #[test]
    fn offscreen_triangle_is_culled() {
        let f = frame_of(vec![tri_dc([(5.0, 5.0), (6.0, 5.0), (5.0, 6.0)])]);
        let geo = run_geometry(&cfg(), &f, &mut Vec::new());
        assert_eq!(geo.prims.len(), 0);
        assert_eq!(geo.stats.prims_culled, 1);
    }

    #[test]
    fn degenerate_triangle_is_culled() {
        let f = frame_of(vec![tri_dc([(0.0, 0.0), (0.5, 0.5), (0.25, 0.25)])]);
        let geo = run_geometry(&cfg(), &f, &mut Vec::new());
        assert_eq!(geo.prims.len(), 0);
    }

    #[test]
    fn behind_camera_triangle_is_clipped_away() {
        // w < 0 for all vertices (entirely behind the eye).
        let mut dc = tri_dc([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)]);
        for v in &mut dc.vertices {
            v.attrs[0].w = -1.0;
        }
        // Identity VS passes w through.
        let geo = run_geometry(&cfg(), &frame_of(vec![dc]), &mut Vec::new());
        assert_eq!(geo.prims.len(), 0);
        assert_eq!(geo.stats.prims_culled, 1);
    }

    #[test]
    fn straddling_triangle_gets_clipped_into_more_prims() {
        // One vertex behind the w=ε plane forces clipping; the clipped
        // quad fans into two triangles.
        let mut dc = tri_dc([(0.0, -0.5), (0.5, 0.5), (-0.5, 0.5)]);
        dc.vertices[0].attrs[0].w = -0.5;
        let geo = run_geometry(&cfg(), &frame_of(vec![dc]), &mut Vec::new());
        assert!(geo.stats.prims_from_clipping > 0 || !geo.prims.is_empty());
    }

    #[test]
    fn screen_mapping_covers_viewport() {
        let f = frame_of(vec![tri_dc([(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)])]);
        let geo = run_geometry(&cfg(), &f, &mut Vec::new());
        let p = &geo.prims[0];
        assert_eq!(p.bbox, Rect::new(0, 0, 64, 64));
        // NDC (−1,−1) is bottom-left → screen (0, 64) with y-down.
        let v0 = &p.verts[0];
        assert!((v0.screen[0] - 0.0).abs() < 1e-3);
        assert!((v0.screen[1] - 64.0).abs() < 1e-3);
    }

    #[test]
    fn param_record_is_48_bytes_per_attribute() {
        // Position + 1 varying = 2 attributes → 2 × 48 B per primitive.
        let f = frame_of(vec![tri_dc([(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5)])]);
        let geo = run_geometry(&cfg(), &f, &mut Vec::new());
        assert_eq!(geo.prims[0].param_bytes.len(), 2 * 48);
        // Record plus one 8-byte polygon-list entry per overlapped tile.
        assert_eq!(
            geo.stats.param_bytes_written,
            96 + 8 * geo.stats.prim_tile_pairs
        );
    }

    #[test]
    fn vertex_fetch_traffic_reported() {
        let f = frame_of(vec![tri_dc([(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5)])]);
        let mut events = Vec::new();
        let _ = run_geometry(&cfg(), &f, &mut events);
        let (mut vertex_bytes, mut param_write_bytes) = (0, 0);
        for e in &events {
            match *e {
                Event::VertexFetch { bytes, .. } => vertex_bytes += bytes,
                Event::ParamWrite { bytes, .. } => param_write_bytes += bytes,
                _ => panic!("geometry emits only vertex fetches and PB writes: {e:?}"),
            }
        }
        // 3 vertices × 2 attrs × 16 B.
        assert_eq!(vertex_bytes, 96);
        assert!(param_write_bytes >= 96, "record plus list entries");
    }

    #[test]
    fn backface_culling_respects_state_flag() {
        let mut dc = tri_dc([(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5)]);
        dc.vertices.swap(0, 1); // reverse winding
        let geo = run_geometry(&cfg(), &frame_of(vec![dc.clone()]), &mut Vec::new());
        assert_eq!(geo.prims.len(), 1, "no culling when flag off");
        dc.state.cull_backface = true;
        // The reversed triangle must now be culled (winding-dependent).
        let geo_ccw = run_geometry(&cfg(), &frame_of(vec![dc]), &mut Vec::new());
        let reversed_culled = geo_ccw.prims.is_empty();
        assert!(reversed_culled, "reversed winding culled when flag on");
    }

    #[test]
    fn identical_frames_produce_identical_param_bytes() {
        // Determinism underpins RE: same inputs → same signature stream.
        let f = frame_of(vec![tri_dc([(-0.3, -0.4), (0.6, -0.2), (0.1, 0.7)])]);
        let a = run_geometry(&cfg(), &f, &mut Vec::new());
        let b = run_geometry(&cfg(), &f, &mut Vec::new());
        assert_eq!(a.prims[0].param_bytes, b.prims[0].param_bytes);
        assert_eq!(a.prims[0].overlapped_tiles, b.prims[0].overlapped_tiles);
        assert_eq!(
            a.drawcalls[0].constants_bytes,
            b.drawcalls[0].constants_bytes
        );
    }
}
