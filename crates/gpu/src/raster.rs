//! The Raster Pipeline: per-tile rasterization, Early-Z, fragment shading,
//! blending and tile flush.
//!
//! One call to [`rasterize_tile_detached`] performs everything the paper's
//! Raster Pipeline does for one tile — which is exactly the work Rendering
//! Elimination skips for redundant tiles:
//!
//! 1. The Tile Scheduler fetches the tile's primitives from the Parameter
//!    Buffer ([`Event::ParamRead`]).
//! 2. The Rasterizer discretizes each primitive into fragments with edge
//!    functions (top-left fill rule) and interpolates attributes
//!    perspective-correctly.
//! 3. The Early Depth Test culls occluded fragments against the on-chip
//!    Depth Buffer.
//! 4. The Fragment Processors run the fragment program (texel fetches are
//!    recorded as [`Event::Texel`] runs).
//! 5. The Blending unit merges the output into the on-chip Color Buffer.
//! 6. The Tile Flush writes the final colors to the Frame Buffer
//!    ([`Event::ColorFlush`]).
//!
//! The tile's memory accesses are appended to the caller's
//! [`TileRecord::events`] in pipeline order, one event per cache-visible
//! access: a texel fetch on the same [`TEXEL_RUN_BYTES`] line as the same
//! unit's previous fetch in the tile adds one to that fetch's run instead.
//! Each shaded fragment's input hash goes to [`TileRecord::hashes`].

use re_math::{edge_function, Color, Vec2, Vec4};

use crate::access::{Event, TEXEL_RUN_BYTES, TEXEL_UNITS};
use crate::api::FrameDesc;
use crate::geometry::GeometryOutput;
use crate::shader::SampleCtx;
use crate::stats::TileStats;
use crate::texture::{Texture, TextureStore};
use crate::GpuConfig;

/// FNV-1a over a byte slice, seeded; used for fragment-input hashes.
#[inline]
fn fnv1a(seed: u32, bytes: &[u8]) -> u32 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// What rasterizing one tile records besides its pixels and counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TileRecord {
    /// The tile's memory accesses in pipeline order, texel fetches folded
    /// into runs (see the module docs).
    pub events: Vec<Event>,
    /// One 32-bit hash of each shaded fragment's shader inputs
    /// (interpolated varyings + drawcall constants), *excluding screen
    /// coordinates*, in shading order — the key of the PFR
    /// fragment-memoization baseline (paper §V-A).
    pub hashes: Vec<u32>,
}

/// Each texture unit's open texel run in one tile's event stream: the
/// index of the unit's latest [`Event::Texel`]. The rasterizer starts one
/// per tile.
#[derive(Debug, Default)]
pub struct TexelRuns {
    open: [Option<usize>; TEXEL_UNITS as usize],
}

impl TexelRuns {
    /// Records one fetch of `addr` by `unit` in `events`: it joins the
    /// unit's open run when both fall in one [`TEXEL_RUN_BYTES`] line (and
    /// the run's count has room), and is appended as a new run otherwise.
    ///
    /// # Panics
    /// Panics if `unit` is not below [`TEXEL_UNITS`].
    pub fn fetch(&mut self, events: &mut Vec<Event>, unit: u8, addr: u64) {
        let slot = &mut self.open[unit as usize];
        if let Some(i) = *slot {
            if let Event::Texel {
                count, addr: first, ..
            } = &mut events[i]
            {
                if *first / TEXEL_RUN_BYTES == addr / TEXEL_RUN_BYTES && *count < u32::MAX {
                    *count += 1;
                    return;
                }
            }
        }
        *slot = Some(events.len());
        events.push(Event::Texel {
            unit,
            count: 1,
            addr,
        });
    }
}

/// Sampler adapter counting texel fetches and recording them as runs.
struct TexSampler<'a> {
    texture: Option<&'a Texture>,
    filter: crate::texture::Filter,
    unit: u8,
    events: &'a mut Vec<Event>,
    runs: &'a mut TexelRuns,
    fetches: u64,
}

impl SampleCtx for TexSampler<'_> {
    fn sample(&mut self, u: f32, v: f32) -> Vec4 {
        match self.texture {
            Some(t) => {
                let (unit, events, runs) = (self.unit, &mut *self.events, &mut *self.runs);
                let mut fetches = 0;
                let c = t.sample(u, v, self.filter, &mut |addr| {
                    runs.fetch(events, unit, addr);
                    fetches += 1;
                });
                self.fetches += fetches;
                c
            }
            None => Vec4::new(0.0, 0.0, 0.0, 1.0),
        }
    }
}

/// Process-wide count of [`rasterize_tile_detached`] invocations, backed
/// by the [`re_obs`] metrics registry under
/// [`re_obs::names::RASTER_INVOCATIONS`].
///
/// It is the process total that metrics snapshots report; a sweep
/// execution counts the tiles of its own renders separately, exactly
/// even while other executions rasterize.
/// The `Arc` is resolved once and cached so the per-tile increment never
/// touches the registry lock.
fn raster_counter() -> &'static re_obs::Counter {
    static COUNTER: std::sync::OnceLock<std::sync::Arc<re_obs::Counter>> =
        std::sync::OnceLock::new();
    COUNTER
        .get_or_init(|| re_obs::metrics::counter(re_obs::names::RASTER_INVOCATIONS))
        .as_ref()
}

/// Total [`rasterize_tile_detached`] calls made by this process so far
/// (every tile rasterization goes through it).
///
/// Reads the same atomic as the registry counter
/// `gpu.raster_invocations`, so the two are consistent byte for byte.
pub fn raster_invocations() -> u64 {
    raster_counter().get()
}

/// Whether a zero-valued edge function should count as covered — the
/// top-left fill rule, so triangles sharing an edge shade every pixel
/// exactly once. `(dx, dy)` is the edge direction in y-down screen space
/// with interior on the positive side of the edge function.
#[inline]
fn edge_is_top_left(dx: f32, dy: f32) -> bool {
    (dy == 0.0 && dx < 0.0) || dy > 0.0
}

/// Rasterizes tile `tile_id` of the current frame *detached* from any
/// frame buffer: the tile's final colors are returned (row-major over the
/// tile rect) instead of written, and the flush addresses are computed from
/// `back_base_addr`, the base of the surface the frame flushes to
/// ([`crate::framebuffer::surface_base`]). See the module docs for the
/// stage breakdown.
///
/// Stage A records every tile with this call alone.
/// [`crate::Gpu::rasterize_tile`] is this call plus writing the colors into
/// its back buffer. The tile's events and fragment hashes are appended to
/// `record`.
pub fn rasterize_tile_detached(
    config: &GpuConfig,
    frame: &FrameDesc,
    geo: &GeometryOutput,
    tile_id: u32,
    textures: &TextureStore,
    back_base_addr: u64,
    record: &mut TileRecord,
) -> (TileStats, Vec<Color>) {
    raster_counter().incr();
    let TileRecord { events, hashes } = record;
    let mut runs = TexelRuns::default();
    let mut stats = TileStats::default();
    let rect = config.tile_rect(tile_id);
    let tw = rect.width();
    let th = rect.height();

    // On-chip Color and Depth Buffers for this tile.
    let mut color = vec![frame.clear_color; (tw * th) as usize];
    let mut depth = vec![1.0f32; (tw * th) as usize];

    for &pidx in geo.bin(tile_id) {
        let prim = &geo.prims[pidx as usize];
        let dc = &frame.drawcalls[prim.drawcall as usize];
        let state = &dc.state;

        // Tile Scheduler: fetch the primitive record (Tile Cache handles
        // the actual locality; we report the architectural access).
        events.push(Event::ParamRead {
            addr: prim.param_addr,
            bytes: prim.param_bytes.len() as u32,
        });
        stats.param_bytes_read += prim.param_bytes.len() as u64;
        stats.prims_processed += 1;

        // Triangle setup; normalize orientation so the interior is on the
        // positive side of all three edge functions.
        let (v0, v1, v2) = {
            let a = &prim.verts[0];
            let b = &prim.verts[1];
            let c = &prim.verts[2];
            let area2 = edge_function(
                Vec2::new(a.screen[0], a.screen[1]),
                Vec2::new(b.screen[0], b.screen[1]),
                Vec2::new(c.screen[0], c.screen[1]),
            );
            if area2 >= 0.0 {
                (a, b, c)
            } else {
                (a, c, b)
            }
        };
        let p0 = Vec2::new(v0.screen[0], v0.screen[1]);
        let p1 = Vec2::new(v1.screen[0], v1.screen[1]);
        let p2 = Vec2::new(v2.screen[0], v2.screen[1]);
        let area2 = edge_function(p0, p1, p2);
        if area2 <= 0.0 {
            continue; // degenerate after reordering
        }
        let inv_area = 1.0 / area2;
        // Edge directions for the top-left rule: w0 uses edge p1→p2, etc.
        let tl = [
            edge_is_top_left(p2.x - p1.x, p2.y - p1.y),
            edge_is_top_left(p0.x - p2.x, p0.y - p2.y),
            edge_is_top_left(p1.x - p0.x, p1.y - p0.y),
        ];

        let n_vary = v0.varyings.len();
        let fs = &state.fragment_shader;
        let fs_cost = fs.cost() as u64;
        let texture = state.texture.map(|id| textures.get(id));
        // Per-drawcall seed for fragment-input hashes (constants + program
        // identity), precomputed once.
        let dc_seed = fnv1a(
            fnv1a(0x811C_9DC5, state.fragment_shader.name.as_bytes()),
            &dc.constants_bytes(),
        );

        let clip = rect.intersect(&prim.bbox);
        for (px, py) in clip.pixels() {
            let p = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
            let w0 = edge_function(p1, p2, p);
            let w1 = edge_function(p2, p0, p);
            let w2 = edge_function(p0, p1, p);
            let covered = (w0 > 0.0 || (w0 == 0.0 && tl[0]))
                && (w1 > 0.0 || (w1 == 0.0 && tl[1]))
                && (w2 > 0.0 || (w2 == 0.0 && tl[2]));
            if !covered {
                continue;
            }
            stats.fragments_rasterized += 1;
            stats.attr_interpolations += (1 + n_vary) as u64;

            let l0 = w0 * inv_area;
            let l1 = w1 * inv_area;
            let l2 = w2 * inv_area;
            let z = l0 * v0.screen[2] + l1 * v1.screen[2] + l2 * v2.screen[2];
            let li = ((py - rect.y0) * tw + (px - rect.x0)) as usize;

            // Early Depth Test.
            if state.depth_test {
                stats.depth_accesses += 1;
                if z >= depth[li] {
                    stats.early_z_killed += 1;
                    continue;
                }
            }
            if state.depth_write {
                stats.depth_accesses += 1;
                depth[li] = z;
            }

            // Perspective-correct varying interpolation.
            let inv_w = l0 * v0.inv_w + l1 * v1.inv_w + l2 * v2.inv_w;
            let mut varyings = [Vec4::ZERO; 8];
            let k = 1.0 / inv_w;
            #[allow(clippy::needless_range_loop)] // j indexes three vertices' arrays in lockstep
            for j in 0..n_vary.min(8) {
                // Zero-gradient plane equations interpolate exactly in real
                // rasterizers; reproduce that so attribute-constant
                // primitives yield bit-identical fragment inputs.
                varyings[j] =
                    if v0.varyings[j] == v1.varyings[j] && v1.varyings[j] == v2.varyings[j] {
                        v0.varyings[j]
                    } else {
                        (v0.varyings[j] * (l0 * v0.inv_w)
                            + v1.varyings[j] * (l1 * v1.inv_w)
                            + v2.varyings[j] * (l2 * v2.inv_w))
                            * k
                    };
            }
            let varyings = &varyings[..n_vary.min(8)];

            // Fragment Processing. Texture unit banks by fragment quad, as
            // the four fragment processors each own a texture cache.
            let unit = (((px >> 1) + (py >> 1)) & 3) as u8;
            let mut sampler = TexSampler {
                texture,
                filter: state.filter,
                unit,
                events,
                runs: &mut runs,
                fetches: 0,
            };
            let regs = fs.run(varyings, &dc.constants, Some(&mut sampler));
            stats.texel_fetches += sampler.fetches;
            stats.fragments_shaded += 1;
            stats.fs_instr_slots += fs_cost;

            // Record the fragment's input hash for the memoization baseline
            // (screen coordinates deliberately excluded).
            let mut key = [0u8; 8 * 16];
            for (j, vy) in varyings.iter().enumerate() {
                key[j * 16..(j + 1) * 16].copy_from_slice(&vy.to_le_bytes());
            }
            hashes.push(fnv1a(dc_seed, &key[..n_vary * 16]));

            // Blending into the on-chip Color Buffer.
            let src = Color::from_vec4(regs[0]);
            color[li] = if state.blend {
                color[li].blend_over(src)
            } else {
                src
            };
            stats.blend_ops += 1;
        }
    }

    // Tile Flush: record the tile's color writes to the back Frame Buffer,
    // one 64-byte line per 16-pixel run. Addresses reproduce
    // `ColorSurface::pixel_addr` exactly (base + (y·width + x)·4).
    for y in rect.y0..rect.y1 {
        let row_bytes = (tw * 4) as u32;
        let addr = back_base_addr + (y as u64 * config.width as u64 + rect.x0 as u64) * 4;
        events.push(Event::ColorFlush {
            addr,
            bytes: row_bytes,
        });
    }
    stats.pixels_flushed += rect.area() as u64;
    stats.color_bytes_flushed += rect.area() as u64 * 4;

    (stats, color)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DrawCall, PipelineState, Vertex};
    use crate::framebuffer::surface_base;
    use crate::{Gpu, GpuConfig};
    use re_math::Mat4;

    fn cfg() -> GpuConfig {
        GpuConfig {
            width: 32,
            height: 32,
            tile_size: 16,
            ..Default::default()
        }
    }

    fn flat_tri(positions: [(f32, f32); 3], color: Vec4) -> DrawCall {
        let vertices = positions
            .iter()
            .map(|&(x, y)| Vertex::new(vec![Vec4::new(x, y, 0.0, 1.0), color]))
            .collect();
        DrawCall {
            state: PipelineState::flat_2d(),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices,
        }
    }

    fn render_full(gpu: &mut Gpu, frame: &FrameDesc) -> TileStats {
        let geo = gpu.run_geometry(frame, &mut Vec::new());
        let mut agg = TileStats::default();
        for t in 0..gpu.tile_count() {
            let s = gpu.rasterize_tile(frame, &geo, t, &mut TileRecord::default());
            agg.merge(&s);
        }
        agg
    }

    #[test]
    fn fullscreen_quad_covers_every_pixel_once() {
        // Two triangles sharing the diagonal: the top-left rule must shade
        // each pixel exactly once (no seams, no double-blend).
        let mut gpu = Gpu::new(cfg());
        let mut frame = FrameDesc::new();
        let red = Vec4::new(1.0, 0.0, 0.0, 1.0);
        frame
            .drawcalls
            .push(flat_tri([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)], red));
        frame
            .drawcalls
            .push(flat_tri([(-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)], red));
        let stats = render_full(&mut gpu, &frame);
        assert_eq!(
            stats.fragments_rasterized,
            32 * 32,
            "each pixel exactly once"
        );
        for (x, y) in [(0, 0), (31, 31), (0, 31), (31, 0), (16, 16)] {
            assert_eq!(
                gpu.back_pixel(x, y),
                Color::new(255, 0, 0, 255),
                "pixel ({x},{y})"
            );
        }
    }

    #[test]
    fn half_screen_triangle_covers_half_the_pixels() {
        let mut gpu = Gpu::new(cfg());
        let mut frame = FrameDesc::new();
        frame.drawcalls.push(flat_tri(
            [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)],
            Vec4::splat(1.0),
        ));
        let stats = render_full(&mut gpu, &frame);
        // The 32 diagonal pixel centers lie exactly on the hypotenuse and
        // are assigned to this triangle by the top-left rule: 496 strictly
        // interior + 32 boundary.
        assert_eq!(stats.fragments_rasterized, 528);
    }

    #[test]
    fn depth_test_kills_occluded_fragments() {
        let mut gpu = Gpu::new(cfg());
        let mut frame = FrameDesc::new();
        // Near triangle drawn first, far triangle second: the far one is
        // fully early-Z killed where they overlap.
        let mk = |z: f32, col: Vec4| {
            let vertices = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)]
                .iter()
                .map(|&(x, y)| Vertex::new(vec![Vec4::new(x, y, z, 1.0), col]))
                .collect();
            let mut state = PipelineState::flat_2d();
            state.depth_test = true;
            state.depth_write = true;
            state.blend = false;
            DrawCall {
                state,
                constants: Mat4::IDENTITY.cols.to_vec(),
                vertices,
            }
        };
        frame.drawcalls.push(mk(0.1, Vec4::new(1.0, 0.0, 0.0, 1.0)));
        frame.drawcalls.push(mk(0.5, Vec4::new(0.0, 1.0, 0.0, 1.0)));
        let stats = render_full(&mut gpu, &frame);
        assert_eq!(stats.early_z_killed, 528, "entire far triangle killed");
        assert_eq!(
            gpu.back_pixel(31, 16),
            Color::new(255, 0, 0, 255),
            "near color wins"
        );
        assert_eq!(
            stats.fragments_shaded,
            stats.fragments_rasterized - stats.early_z_killed
        );
    }

    #[test]
    fn alpha_blending_mixes_colors() {
        let mut gpu = Gpu::new(cfg());
        let mut frame = FrameDesc::new();
        frame.clear_color = Color::BLACK;
        frame.drawcalls.push(flat_tri(
            [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)],
            Vec4::new(1.0, 1.0, 1.0, 0.5),
        ));
        render_full(&mut gpu, &frame);
        let c = gpu.back_pixel(31, 16);
        assert!(c.r > 120 && c.r < 136, "≈50% white over black, got {}", c.r);
    }

    #[test]
    fn textured_draw_fetches_texels() {
        let mut gpu = Gpu::new(cfg());
        let tex =
            gpu.textures_mut().upload_with(
                8,
                8,
                |x, _| {
                    if x < 4 {
                        Color::WHITE
                    } else {
                        Color::BLACK
                    }
                },
            );
        let mut frame = FrameDesc::new();
        let vertices = [
            ((-1.0, -1.0), (0.0, 0.0)),
            ((1.0, -1.0), (1.0, 0.0)),
            ((1.0, 1.0), (1.0, 1.0)),
        ]
        .iter()
        .map(|&((x, y), (u, v))| {
            Vertex::new(vec![
                Vec4::new(x, y, 0.0, 1.0),
                Vec4::splat(1.0),          // varying 0: color
                Vec4::new(u, v, 0.0, 0.0), // varying 1: uv
            ])
        })
        .collect();
        frame.drawcalls.push(DrawCall {
            state: PipelineState::sprite_2d(tex),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices,
        });
        let geo = gpu.run_geometry(&frame, &mut Vec::new());
        let mut record = TileRecord::default();
        let mut stats = TileStats::default();
        for t in 0..gpu.tile_count() {
            stats.merge(&gpu.rasterize_tile(&frame, &geo, t, &mut record));
        }
        assert_eq!(
            stats.texel_fetches,
            4 * stats.fragments_shaded,
            "bilinear: 4 texels/frag"
        );
        let runs: Vec<(u8, u32, u64)> = record
            .events
            .iter()
            .filter_map(|e| match *e {
                Event::Texel { unit, count, addr } => Some((unit, count, addr)),
                _ => None,
            })
            .collect();
        let fetched: u64 = runs.iter().map(|&(_, count, _)| u64::from(count)).sum();
        assert_eq!(fetched, stats.texel_fetches, "run lengths sum to fetches");
        assert!(
            runs.len() < fetched as usize,
            "an 8×8 texture folds repeat fetches into runs"
        );
        assert!(runs
            .iter()
            .all(|&(unit, count, _)| unit < TEXEL_UNITS && count >= 1));
    }

    #[test]
    fn texel_runs_fold_only_same_unit_same_line_repeats() {
        let mut runs = TexelRuns::default();
        let mut events = Vec::new();
        let line = 0x4000_0000;
        for (unit, addr) in [
            (0, line),
            (0, line + 60), // same line: joins the run
            (1, line),      // other unit: its own run
            (0, line + 4),  // unit 0's run is still open
            (0, line + 64), // next line: a new run
            (0, line),      // back to the first line: a new run
        ] {
            runs.fetch(&mut events, unit, addr);
        }
        assert_eq!(
            events,
            [
                Event::Texel {
                    unit: 0,
                    count: 3,
                    addr: line
                },
                Event::Texel {
                    unit: 1,
                    count: 1,
                    addr: line
                },
                Event::Texel {
                    unit: 0,
                    count: 1,
                    addr: line + 64
                },
                Event::Texel {
                    unit: 0,
                    count: 1,
                    addr: line
                },
            ]
        );
    }

    #[test]
    fn flush_writes_whole_tile_rows() {
        let mut gpu = Gpu::new(cfg());
        let frame = FrameDesc::new();
        let geo = gpu.run_geometry(&frame, &mut Vec::new());
        let mut record = TileRecord::default();
        let s = gpu.rasterize_tile(&frame, &geo, 0, &mut record);
        assert_eq!(s.pixels_flushed, 256);
        let color_bytes: u32 = record
            .events
            .iter()
            .map(|e| match *e {
                Event::ColorFlush { bytes, .. } => bytes,
                _ => 0,
            })
            .sum();
        assert_eq!(color_bytes, 1024, "16 rows × 64 B");
    }

    #[test]
    fn fragment_hash_reported_and_screen_independent() {
        let mut gpu = Gpu::new(cfg());
        let mut frame = FrameDesc::new();
        frame.drawcalls.push(flat_tri(
            [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)],
            Vec4::new(0.3, 0.6, 0.9, 1.0),
        ));
        let geo = gpu.run_geometry(&frame, &mut Vec::new());
        let mut shaded = 0;
        let mut hashes = Vec::new();
        for t in 0..gpu.tile_count() {
            let mut record = TileRecord::default();
            shaded += gpu
                .rasterize_tile(&frame, &geo, t, &mut record)
                .fragments_shaded;
            assert!(!record.events.is_empty(), "tile {t} flushes");
            hashes.extend(record.hashes);
        }
        assert!(!hashes.is_empty());
        assert_eq!(hashes.len() as u64, shaded, "one hash per shaded fragment");
        // Flat color ⇒ identical inputs everywhere ⇒ one unique hash,
        // across all tiles (screen coordinates excluded).
        let first = hashes[0];
        assert!(hashes.iter().all(|&h| h == first));
    }

    /// Stage A's address map and the functional GPU agree: frame `i`
    /// flushes to [`surface_base`]`(cfg, i)`, the GPU's back surface after
    /// `i` swaps, and a detached raster there records exactly what
    /// [`Gpu::rasterize_tile`] does, colors included.
    #[test]
    fn detached_raster_at_surface_base_matches_the_gpu_over_two_frames() {
        let mut gpu = Gpu::new(cfg());
        let tex = gpu.textures_mut().upload_with(8, 8, |x, y| {
            if (x + y) % 2 == 0 {
                Color::WHITE
            } else {
                Color::BLACK
            }
        });
        let mut frame = FrameDesc::new();
        frame.clear_color = Color::new(12, 34, 56, 255);
        frame.drawcalls.push(flat_tri(
            [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)],
            Vec4::new(0.8, 0.1, 0.2, 0.7),
        ));
        let vertices = [
            ((-0.9, -0.2), (0.0, 0.0)),
            ((0.4, -0.9), (1.0, 0.0)),
            ((0.9, 0.9), (1.0, 1.0)),
        ]
        .iter()
        .map(|&((x, y), (u, v))| {
            Vertex::new(vec![
                Vec4::new(x, y, 0.3, 1.0),
                Vec4::splat(1.0),
                Vec4::new(u, v, 0.0, 0.0),
            ])
        })
        .collect();
        frame.drawcalls.push(DrawCall {
            state: PipelineState::sprite_2d(tex),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices,
        });
        let geo = gpu.run_geometry(&frame, &mut Vec::new());

        assert_ne!(surface_base(&cfg(), 0), surface_base(&cfg(), 1));
        for i in 0..2 {
            let base = surface_base(&cfg(), i);
            assert_eq!(base, gpu.framebuffer().back().base_addr(), "frame {i}");
            for t in 0..gpu.tile_count() {
                let mut detached = TileRecord::default();
                let (stats, colors) = rasterize_tile_detached(
                    &cfg(),
                    &frame,
                    &geo,
                    t,
                    gpu.textures(),
                    base,
                    &mut detached,
                );
                let mut record = TileRecord::default();
                let gpu_stats = gpu.rasterize_tile(&frame, &geo, t, &mut record);
                let gpu_colors = gpu.framebuffer().back().read_rect(cfg().tile_rect(t));
                assert_eq!(stats, gpu_stats, "frame {i} tile {t} stats");
                assert_eq!(colors, gpu_colors, "frame {i} tile {t} colors");
                assert_eq!(detached, record, "frame {i} tile {t} events and hashes");
            }
            gpu.end_frame();
        }
    }

    #[test]
    fn unrasterized_tile_keeps_back_buffer_content() {
        let mut gpu = Gpu::new(cfg());
        let mut frame = FrameDesc::new();
        frame.clear_color = Color::new(50, 50, 50, 255);
        let geo = gpu.run_geometry(&frame, &mut Vec::new());
        // Render only tile 0; tile 3's pixels stay black from init.
        gpu.rasterize_tile(&frame, &geo, 0, &mut TileRecord::default());
        assert_eq!(gpu.back_pixel(0, 0), Color::new(50, 50, 50, 255));
        assert_eq!(
            gpu.back_pixel(16, 16),
            Color::BLACK,
            "skipped tile untouched"
        );
    }
}
