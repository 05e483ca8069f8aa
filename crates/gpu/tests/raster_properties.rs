//! Property-based tests of the functional pipeline: rasterization
//! conservation, clipping safety and determinism over random geometry.

use proptest::prelude::*;
use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
use re_gpu::stats::TileStats;
use re_gpu::{Gpu, GpuConfig};
use re_math::{Color, Mat4, Vec4};

fn cfg() -> GpuConfig {
    GpuConfig {
        width: 64,
        height: 48,
        tile_size: 16,
        ..Default::default()
    }
}

fn tri_frame(coords: [f32; 6], w: [f32; 3], color: [f32; 4]) -> FrameDesc {
    let mut frame = FrameDesc::new();
    let vertices = (0..3)
        .map(|k| {
            Vertex::new(vec![
                Vec4::new(coords[2 * k], coords[2 * k + 1], 0.0, w[k]),
                Vec4::new(color[0], color[1], color[2], color[3]),
            ])
        })
        .collect();
    frame.drawcalls.push(DrawCall {
        state: PipelineState::flat_2d(),
        constants: Mat4::IDENTITY.cols.to_vec(),
        vertices,
    });
    frame
}

fn render_all(gpu: &mut Gpu, frame: &FrameDesc) -> TileStats {
    let geo = gpu.run_geometry(frame, &mut Vec::new());
    let mut agg = TileStats::default();
    for t in 0..gpu.tile_count() {
        agg.merge(&gpu.rasterize_tile(frame, &geo, t, &mut re_gpu::TileRecord::default()));
    }
    agg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Coverage is bounded by the primitive's clipped bounding box and the
    /// fragment population is conserved across pipeline stages.
    #[test]
    fn fragment_conservation(
        coords in proptest::array::uniform6(-1.5f32..1.5),
        color in proptest::array::uniform4(0.0f32..1.0),
    ) {
        let mut gpu = Gpu::new(cfg());
        let frame = tri_frame(coords, [1.0; 3], color);
        let geo = gpu.run_geometry(&frame, &mut Vec::new());
        let mut agg = TileStats::default();
        for t in 0..gpu.tile_count() {
            agg.merge(&gpu.rasterize_tile(&frame, &geo, t, &mut re_gpu::TileRecord::default()));
        }
        // Depth test off: every rasterized fragment is shaded and blended.
        prop_assert_eq!(agg.early_z_killed, 0);
        prop_assert_eq!(agg.fragments_shaded, agg.fragments_rasterized);
        prop_assert_eq!(agg.blend_ops, agg.fragments_shaded);
        // Coverage bounded by the bbox area.
        let bbox_area: u64 = geo.prims.iter().map(|p| p.bbox.area() as u64).sum();
        prop_assert!(agg.fragments_rasterized <= bbox_area);
        // Every tile flushes exactly once.
        prop_assert_eq!(agg.pixels_flushed, 64 * 48);
    }

    /// Rendering the same frame twice produces bit-identical framebuffers
    /// and identical statistics.
    #[test]
    fn rendering_is_deterministic(
        coords in proptest::array::uniform6(-1.2f32..1.2),
        color in proptest::array::uniform4(0.0f32..1.0),
    ) {
        let frame = tri_frame(coords, [1.0; 3], color);
        let mut g1 = Gpu::new(cfg());
        let mut g2 = Gpu::new(cfg());
        let s1 = render_all(&mut g1, &frame);
        let s2 = render_all(&mut g2, &frame);
        prop_assert_eq!(s1, s2);
        for y in 0..48 {
            for x in 0..64 {
                prop_assert_eq!(g1.back_pixel(x, y), g2.back_pixel(x, y));
            }
        }
    }

    /// Arbitrary w values (including behind-the-eye vertices) never panic
    /// and never produce out-of-range screen writes.
    #[test]
    fn clipping_is_total(
        coords in proptest::array::uniform6(-2.0f32..2.0),
        w in proptest::array::uniform3(-2.0f32..2.0),
    ) {
        let mut gpu = Gpu::new(cfg());
        let frame = tri_frame(coords, w, [0.5, 0.5, 0.5, 1.0]);
        let _ = render_all(&mut gpu, &frame); // must not panic
    }

    /// Per-tile rasterization is equivalent to whole-frame rasterization:
    /// the tile partition neither loses nor duplicates fragments.
    #[test]
    fn tiling_partition_is_exact(
        coords in proptest::array::uniform6(-1.0f32..1.0),
    ) {
        let frame = tri_frame(coords, [1.0; 3], [1.0, 0.0, 0.0, 1.0]);
        // Tiled (16px) vs "one giant tile" (64px tiles ⇒ fewer cuts).
        let mut tiled = Gpu::new(cfg());
        let mut coarse = Gpu::new(GpuConfig { width: 64, height: 48, tile_size: 64, ..Default::default() });
        let st = render_all(&mut tiled, &frame);
        let sc = render_all(&mut coarse, &frame);
        prop_assert_eq!(st.fragments_rasterized, sc.fragments_rasterized);
        for y in 0..48 {
            for x in 0..64 {
                prop_assert_eq!(tiled.back_pixel(x, y), coarse.back_pixel(x, y));
            }
        }
    }

    /// Opaque draws make the written pixels equal the quantized shader
    /// output regardless of geometry.
    #[test]
    fn flat_color_roundtrip(
        color in proptest::array::uniform4(0.2f32..1.0),
    ) {
        // Fullscreen quad with the given flat color, opaque alpha.
        let mut frame = FrameDesc::new();
        let mut verts = Vec::new();
        for (x, y) in [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)] {
            verts.push(Vertex::new(vec![
                Vec4::new(x, y, 0.0, 1.0),
                Vec4::new(color[0], color[1], color[2], 1.0),
            ]));
        }
        frame.drawcalls.push(DrawCall {
            state: PipelineState::flat_2d(),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices: verts,
        });
        let mut gpu = Gpu::new(cfg());
        render_all(&mut gpu, &frame);
        let expect = Color::from_vec4(Vec4::new(color[0], color[1], color[2], 1.0));
        prop_assert_eq!(gpu.back_pixel(0, 0), expect);
        prop_assert_eq!(gpu.back_pixel(63, 47), expect);
    }
}
