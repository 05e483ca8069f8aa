//! The Raster Pipeline: per-tile rasterization, Early-Z, fragment shading,
//! blending and tile flush.
//!
//! One call to [`rasterize_tile_detached`] performs everything the paper's
//! Raster Pipeline does for one tile — which is exactly the work Rendering
//! Elimination skips for redundant tiles:
//!
//! 1. The Tile Scheduler fetches the tile's primitives from the Parameter
//!    Buffer (reported via [`GpuHooks::param_read`]).
//! 2. The Rasterizer discretizes each primitive into fragments with edge
//!    functions (top-left fill rule) and interpolates attributes
//!    perspective-correctly.
//! 3. The Early Depth Test culls occluded fragments against the on-chip
//!    Depth Buffer.
//! 4. The Fragment Processors run the fragment program (texel fetches are
//!    reported via [`GpuHooks::texel_fetch`]).
//! 5. The Blending unit merges the output into the on-chip Color Buffer.
//! 6. The Tile Flush writes the final colors to the Frame Buffer
//!    ([`GpuHooks::color_flush`]).

use re_math::{edge_function, Color, Vec2, Vec4};

use crate::api::FrameDesc;
use crate::geometry::GeometryOutput;
use crate::hooks::GpuHooks;
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

/// Sampler adapter counting texel fetches and reporting their addresses.
struct TexSampler<'a> {
    texture: Option<&'a Texture>,
    filter: crate::texture::Filter,
    unit: u8,
    hooks: &'a mut dyn GpuHooks,
    fetches: u64,
}

impl SampleCtx for TexSampler<'_> {
    fn sample(&mut self, u: f32, v: f32) -> Vec4 {
        match self.texture {
            Some(t) => {
                let unit = self.unit;
                let hooks = &mut *self.hooks;
                let mut n = 0u64;
                let c = t.sample(u, v, self.filter, &mut |addr| {
                    hooks.texel_fetch(unit, addr, 4);
                    n += 1;
                });
                self.fetches += n;
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
/// The render/evaluate split's contract is that a sweep rasterizes each
/// render-key group exactly once no matter how many evaluation-side
/// configurations share it; this counter lets tests assert that directly.
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
/// (every tile rasterization, one at a time or banded, goes through it).
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

/// Tile-parallel rasterization settings: split the frame's tiles into up
/// to [`bands`](Self::bands) row-aligned bands (see
/// [`crate::tiling::band_ranges`]) and rasterize the bands on separate
/// threads.
///
/// Every band owns its tiles exclusively — each tile rasterizes into its
/// own on-chip buffers ([`rasterize_tile_detached`]) and no two bands
/// touch the same output, so the hot path needs no locking. Per-tile
/// activity counters, recorded event streams, flush addresses, final
/// pixels and the [`raster_invocations`] count are all exactly equal to
/// rasterizing the tiles one by one (pinned by proptest in `re-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelRaster {
    /// Maximum band count (= worker threads). `0` or `1` rasterizes every
    /// tile on the calling thread; the effective count is clamped to the
    /// number of tile rows.
    pub bands: usize,
}

/// Rasterizes tile `tile_id` of the current frame *detached* from the
/// frame buffer: the tile's final colors are returned (row-major over the
/// tile rect) instead of written, and the flush addresses are computed from
/// `back_base_addr`, the back surface's
/// [`crate::framebuffer::ColorSurface::base_addr`]. See the module docs for
/// the stage breakdown.
///
/// Taking no `&mut Framebuffer` makes the call safe to run concurrently
/// for different tiles — the foundation of band-parallel rasterization
/// ([`ParallelRaster`], [`crate::Gpu::rasterize_bands`]). The caller
/// commits the colors to the back buffer
/// ([`crate::Gpu::apply_tile_colors`]); [`crate::Gpu::rasterize_tile`] is
/// this function plus that commit.
pub fn rasterize_tile_detached(
    config: &GpuConfig,
    frame: &FrameDesc,
    geo: &GeometryOutput,
    tile_id: u32,
    textures: &TextureStore,
    back_base_addr: u64,
    hooks: &mut dyn GpuHooks,
) -> (TileStats, Vec<Color>) {
    raster_counter().incr();
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
        hooks.param_read(prim.param_addr, prim.param_bytes.len() as u32);
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
                hooks,
                fetches: 0,
            };
            let regs = fs.run(varyings, &dc.constants, Some(&mut sampler));
            stats.texel_fetches += sampler.fetches;
            stats.fragments_shaded += 1;
            stats.fs_instr_slots += fs_cost;

            // Report the fragment's input hash for the memoization baseline
            // (screen coordinates deliberately excluded).
            let mut key = [0u8; 8 * 16];
            for (j, vy) in varyings.iter().enumerate() {
                key[j * 16..(j + 1) * 16].copy_from_slice(&vy.to_le_bytes());
            }
            hooks.fragment_shaded(tile_id, prim.drawcall, fnv1a(dc_seed, &key[..n_vary * 16]));

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

    // Tile Flush: report the tile's color writes to the back Frame Buffer,
    // one 64-byte line per 16-pixel run. Addresses reproduce
    // `ColorSurface::pixel_addr` exactly (base + (y·width + x)·4).
    for y in rect.y0..rect.y1 {
        let row_bytes = (tw * 4) as u32;
        let addr = back_base_addr + (y as u64 * config.width as u64 + rect.x0 as u64) * 4;
        hooks.color_flush(addr, row_bytes);
    }
    stats.pixels_flushed += rect.area() as u64;
    stats.color_bytes_flushed += rect.area() as u64 * 4;

    (stats, color)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DrawCall, PipelineState, Vertex};
    use crate::hooks::{CountingHooks, NullHooks};
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
        let geo = gpu.run_geometry(frame, &mut NullHooks);
        let mut agg = TileStats::default();
        for t in 0..gpu.tile_count() {
            let s = gpu.rasterize_tile(frame, &geo, t, &mut NullHooks);
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
        let geo = gpu.run_geometry(&frame, &mut NullHooks);
        let mut hooks = CountingHooks::default();
        let mut stats = TileStats::default();
        for t in 0..gpu.tile_count() {
            stats.merge(&gpu.rasterize_tile(&frame, &geo, t, &mut hooks));
        }
        assert_eq!(
            stats.texel_fetches,
            4 * stats.fragments_shaded,
            "bilinear: 4 texels/frag"
        );
        assert_eq!(hooks.texel_bytes, stats.texel_fetches * 4);
    }

    #[test]
    fn flush_writes_whole_tile_rows() {
        let mut gpu = Gpu::new(cfg());
        let frame = FrameDesc::new();
        let geo = gpu.run_geometry(&frame, &mut NullHooks);
        let mut hooks = CountingHooks::default();
        let s = gpu.rasterize_tile(&frame, &geo, 0, &mut hooks);
        assert_eq!(s.pixels_flushed, 256);
        assert_eq!(hooks.color_bytes, 1024, "16 rows × 64 B");
    }

    #[test]
    fn fragment_hash_reported_and_screen_independent() {
        struct HashCollect(Vec<(u32, u32)>);
        impl GpuHooks for HashCollect {
            fn fragment_shaded(&mut self, tile: u32, _dc: u32, h: u32) {
                self.0.push((tile, h));
            }
        }
        let mut gpu = Gpu::new(cfg());
        let mut frame = FrameDesc::new();
        frame.drawcalls.push(flat_tri(
            [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)],
            Vec4::new(0.3, 0.6, 0.9, 1.0),
        ));
        let geo = gpu.run_geometry(&frame, &mut NullHooks);
        let mut hc = HashCollect(Vec::new());
        for t in 0..gpu.tile_count() {
            gpu.rasterize_tile(&frame, &geo, t, &mut hc);
        }
        assert!(!hc.0.is_empty());
        // Flat color ⇒ identical inputs everywhere ⇒ one unique hash,
        // across all tiles (screen coordinates excluded).
        let first = hc.0[0].1;
        assert!(hc.0.iter().all(|&(_, h)| h == first));
    }

    /// Records every hook call verbatim, for stream-equality assertions.
    #[derive(Debug, Default, PartialEq)]
    struct CaptureHooks(Vec<(u8, u64, u64, u64)>);

    impl GpuHooks for CaptureHooks {
        fn vertex_fetch(&mut self, addr: u64, bytes: u32) {
            self.0.push((0, addr, bytes as u64, 0));
        }
        fn param_write(&mut self, addr: u64, bytes: u32) {
            self.0.push((1, addr, bytes as u64, 0));
        }
        fn param_read(&mut self, addr: u64, bytes: u32) {
            self.0.push((2, addr, bytes as u64, 0));
        }
        fn texel_fetch(&mut self, unit: u8, addr: u64, bytes: u32) {
            self.0.push((3, addr, bytes as u64, unit as u64));
        }
        fn color_flush(&mut self, addr: u64, bytes: u32) {
            self.0.push((4, addr, bytes as u64, 0));
        }
        fn fragment_shaded(&mut self, tile_id: u32, drawcall: u32, input_hash: u32) {
            self.0
                .push((5, tile_id as u64, drawcall as u64, input_hash as u64));
        }
    }

    #[test]
    fn band_parallel_matches_serial_exactly() {
        let build_frame = |gpu: &mut Gpu| {
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
            frame
        };

        let mut serial = Gpu::new(cfg());
        let frame = build_frame(&mut serial);
        let geo = serial.run_geometry(&frame, &mut NullHooks);
        let mut serial_tiles = Vec::new();
        for t in 0..serial.tile_count() {
            let mut hooks = CaptureHooks::default();
            let stats = serial.rasterize_tile(&frame, &geo, t, &mut hooks);
            let colors = serial
                .framebuffer()
                .back()
                .read_rect(serial.config().tile_rect(t));
            serial_tiles.push((stats, colors, hooks));
        }

        let mut parallel = Gpu::new(cfg());
        let frame2 = build_frame(&mut parallel);
        assert_eq!(frame, frame2);
        let geo2 = parallel.run_geometry(&frame2, &mut NullHooks);
        assert_eq!(geo, geo2);
        // `rasterize_bands` makes one hook set per tile it rasterizes, so a
        // local count of `make_hooks` calls is this call's exact raster
        // count. The process-global counter also moves with sibling tests
        // rasterizing on other threads, so only a lower bound holds there.
        let hook_sets = std::sync::atomic::AtomicU64::new(0);
        let before = raster_invocations();
        let results = parallel.rasterize_bands(&frame2, &geo2, ParallelRaster { bands: 3 }, || {
            hook_sets.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            CaptureHooks::default()
        });
        assert_eq!(
            hook_sets.into_inner(),
            parallel.tile_count() as u64,
            "one invocation per tile, exactly"
        );
        assert!(raster_invocations() - before >= parallel.tile_count() as u64);
        assert_eq!(results.len(), parallel.tile_count() as usize);
        for (t, (stats, colors, hooks)) in results.into_iter().enumerate() {
            let (ref s_stats, ref s_colors, ref s_hooks) = serial_tiles[t];
            assert_eq!(&stats, s_stats, "tile {t} stats");
            assert_eq!(&colors, s_colors, "tile {t} colors");
            assert_eq!(&hooks, s_hooks, "tile {t} hook stream");
            parallel.apply_tile_colors(t as u32, &colors);
        }
        for y in 0..32 {
            for x in 0..32 {
                assert_eq!(
                    serial.back_pixel(x, y),
                    parallel.back_pixel(x, y),
                    "({x},{y})"
                );
            }
        }
    }

    #[test]
    fn single_band_raster_needs_no_threads() {
        let mut gpu = Gpu::new(cfg());
        let mut frame = FrameDesc::new();
        frame.drawcalls.push(flat_tri(
            [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)],
            Vec4::splat(1.0),
        ));
        let geo = gpu.run_geometry(&frame, &mut NullHooks);
        let results = gpu.rasterize_bands(&frame, &geo, ParallelRaster { bands: 1 }, || NullHooks);
        assert_eq!(results.len(), gpu.tile_count() as usize);
        let agg = results
            .iter()
            .fold(TileStats::default(), |mut a, (s, _, _)| {
                a.merge(s);
                a
            });
        assert_eq!(agg.fragments_rasterized, 528);
    }

    #[test]
    fn unrasterized_tile_keeps_back_buffer_content() {
        let mut gpu = Gpu::new(cfg());
        let mut frame = FrameDesc::new();
        frame.clear_color = Color::new(50, 50, 50, 255);
        let geo = gpu.run_geometry(&frame, &mut NullHooks);
        // Render only tile 0; tile 3's pixels stay black from init.
        gpu.rasterize_tile(&frame, &geo, 0, &mut NullHooks);
        assert_eq!(gpu.back_pixel(0, 0), Color::new(50, 50, 50, 255));
        assert_eq!(
            gpu.back_pixel(16, 16),
            Color::BLACK,
            "skipped tile untouched"
        );
    }
}
