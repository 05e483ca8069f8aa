//! Bit-identity of parallel Stage A and compressed `.relog` streams with
//! the serial baseline, across random scenes and configurations.
//!
//! The determinism contract of the sweep layer rests on two claims
//! proved here property-style:
//!
//! 1. **Frame chunking is invisible**: splitting a render's frame range
//!    into any number of chunks ([`chunk_ranges`]), rendering each with a
//!    fresh renderer ([`render_chunk`]), and stitching the logs back
//!    ([`stitch_chunks`]) produces a [`RenderLog`] bit-identical to the
//!    one-chunk [`render_scene`] — including color-id assignment order and
//!    flush addresses (the surface each frame's index selects).
//! 2. **Compression is invisible**: a stream of LZSS frames decodes to
//!    the identical log (NaN bit patterns included) and replays to the
//!    identical [`RunReport`] as one with every frame stored.
//!
//! `staged_equivalence.rs` ties the one-chunk render to an independent
//! reference: a tile-by-tile loop over `Gpu::rasterize_tile`.

use proptest::prelude::*;
use re_core::relog::{self, Compression};
use re_core::render::RenderLog;
use re_core::{
    chunk_ranges, evaluate, render_chunk, render_scene, stitch_chunks, Scene, SimOptions,
};
use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
use re_gpu::texture::TextureStore;
use re_gpu::GpuConfig;
use re_math::{Mat4, Vec4};

/// A randomized scene of animated flat triangles; `nan_every > 0` injects
/// NaN/infinity bit patterns into vertex colors on a period, so the
/// attribute blocks of encoded payloads carry the hostile floats' bytes
/// the codec must preserve exactly.
#[derive(Debug, Clone)]
struct RandomScene {
    tris: Vec<([f32; 6], u32, [f32; 4])>,
    nan_every: u32,
}

impl Scene for RandomScene {
    fn init(&mut self, _textures: &mut TextureStore) {}

    fn frame(&mut self, index: usize) -> FrameDesc {
        let mut frame = FrameDesc::new();
        let mut vertices = Vec::new();
        for (i, (pos, period, color)) in self.tris.iter().enumerate() {
            let shift = if *period == 0 {
                0.0
            } else {
                0.07 * ((index as u32 / period) as f32)
            };
            let mut c = Vec4::new(color[0], color[1], color[2], color[3]);
            if self.nan_every > 0 && (i as u32).is_multiple_of(self.nan_every) {
                // Quiet, signalling, negative NaN and infinities: the
                // shader never reads this lane's w for flat triangles, but
                // the payload bytes must round-trip bit-exactly.
                c.w = [
                    f32::NAN,
                    -f32::NAN,
                    f32::INFINITY,
                    f32::from_bits(0x7FC0_DEAD),
                ][index % 4];
            }
            for k in 0..3 {
                vertices.push(Vertex::new(vec![
                    Vec4::new(pos[2 * k] + shift, pos[2 * k + 1], 0.0, 1.0),
                    c,
                ]));
            }
        }
        frame.drawcalls.push(DrawCall {
            state: PipelineState::flat_2d(),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices,
        });
        frame
    }

    fn name(&self) -> &str {
        "parallel-eq"
    }
}

fn arb_tri() -> impl Strategy<Value = ([f32; 6], u32, [f32; 4])> {
    (
        proptest::array::uniform6(-1.0f32..1.0),
        0u32..4,
        proptest::array::uniform4(0.0f32..1.0),
    )
}

/// `frames` frames of `scene` rendered as `chunks` frame ranges, stitched
/// back together.
fn render_chunked(scene: &RandomScene, cfg: GpuConfig, frames: usize, chunks: usize) -> RenderLog {
    let parts = chunk_ranges(frames, chunks)
        .into_iter()
        .map(|r| render_chunk(&mut scene.clone(), cfg, r))
        .collect();
    stitch_chunks(scene.name(), cfg, parts)
}

fn config(tile_pick: usize) -> GpuConfig {
    GpuConfig {
        width: 48,
        height: 32,
        tile_size: [8u32, 16][tile_pick % 2],
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Chunked frame-parallel rendering (including uneven splits and more
    /// chunks than frames) stitches into the serial log bit for bit.
    #[test]
    fn chunked_render_matches_serial(
        tris in proptest::collection::vec(arb_tri(), 1..5),
        tile_pick in 0usize..2,
        frames in 2usize..8,
        chunks in 1usize..10,
    ) {
        let cfg = config(tile_pick);
        let scene = RandomScene { tris, nan_every: 0 };
        let serial = render_scene(&mut scene.clone(), cfg, frames);
        let chunked = render_chunked(&scene, cfg, frames, chunks);
        prop_assert_eq!(&chunked, &serial);
        // The chunk partition itself is exact: contiguous from 0, total
        // length `frames`.
        let ranges = chunk_ranges(frames, chunks);
        let mut next = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, next);
            prop_assert!(!r.is_empty());
            next = r.end;
        }
        prop_assert_eq!(next, frames);
    }

    /// A compressed `.relog` stream round-trips losslessly — NaN and
    /// infinity bit patterns included — and replays to the identical
    /// report as the stored framing.
    #[test]
    fn compressed_relog_roundtrips_and_replays_identically(
        tris in proptest::collection::vec(arb_tri(), 1..5),
        tile_pick in 0usize..2,
        frames in 2usize..6,
        nan_every in 0u32..3,
    ) {
        let cfg = config(tile_pick);
        let mut scene = RandomScene { tris, nan_every };
        let log = render_scene(&mut scene, cfg, frames);

        let plain = relog::encode(&log);
        let packed = relog::encode_with(&log, Compression::Lzss);
        let decoded = relog::decode(&packed).expect("compressed stream decodes");
        prop_assert_eq!(&decoded, &log);

        let opts = SimOptions { gpu: cfg, ..SimOptions::default() };
        let from_plain = evaluate(&relog::decode(&plain).expect("plain decodes"), &opts);
        let from_packed = evaluate(&decoded, &opts);
        prop_assert_eq!(&from_packed, &from_plain);
    }
}
