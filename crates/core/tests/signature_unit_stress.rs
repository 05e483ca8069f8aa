//! Stress and edge-case tests for the Signature Unit's queue/timing model
//! and the Signature Buffer. The unit runs over the geometry as Stage A
//! records it ([`FrameGeometry`]); its reference runs over the
//! rasterizer's own output.

use re_core::signature::{reference_signatures, SignatureBuffer, SignatureUnit};
use re_core::FrameGeometry;
use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
use re_gpu::{Gpu, GpuConfig};
use re_math::{Mat4, Vec4};

fn cfg() -> GpuConfig {
    GpuConfig {
        width: 128,
        height: 128,
        tile_size: 16,
        ..Default::default()
    }
}

fn quad_frame(n_layers: usize) -> FrameDesc {
    let mut frame = FrameDesc::new();
    for layer in 0..n_layers {
        let c = Vec4::new(layer as f32 / n_layers.max(1) as f32, 0.5, 0.5, 1.0);
        let verts = [
            (-1.0, -1.0),
            (1.0, -1.0),
            (1.0, 1.0),
            (-1.0, -1.0),
            (1.0, 1.0),
            (-1.0, 1.0),
        ]
        .iter()
        .map(|&(x, y)| Vertex::new(vec![Vec4::new(x, y, 0.0, 1.0), c]))
        .collect();
        frame.drawcalls.push(DrawCall {
            state: PipelineState::flat_2d(),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices: verts,
        });
    }
    frame
}

#[test]
fn many_fullscreen_layers_stress_the_queue() {
    // 20 fullscreen layers: 40 primitives × 64 tiles = 2560 OT pushes.
    let mut gpu = Gpu::new(cfg());
    let geo = gpu.run_geometry(&quad_frame(20), &mut Vec::new());
    let mut su = SignatureUnit::new(16);
    let out = su.process_frame(&FrameGeometry::record(&geo), cfg().tile_count());
    assert_eq!(out.stats.ot_pushes, geo.stats.prim_tile_pairs);
    // The functional result is still exact.
    assert_eq!(out.sigs, reference_signatures(&geo, cfg().tile_count()));
    // Stalls stay bounded: the PLB gives the unit 2 cycles per push, so
    // overflow comes only from constants folds and compute dependencies.
    assert!(
        out.stats.stall_cycles < out.stats.ot_pushes * 3,
        "stalls {} vs pushes {}",
        out.stats.stall_cycles,
        out.stats.ot_pushes
    );
}

#[test]
fn deeper_queues_never_stall_more() {
    let mut gpu = Gpu::new(cfg());
    let geo = gpu.run_geometry(&quad_frame(8), &mut Vec::new());
    let mut prev = u64::MAX;
    for depth in [1usize, 2, 4, 8, 16, 64, 4096] {
        let mut su = SignatureUnit::new(depth);
        let stalls = su
            .process_frame(&FrameGeometry::record(&geo), cfg().tile_count())
            .stats
            .stall_cycles;
        assert!(stalls <= prev, "depth {depth}: {stalls} > {prev}");
        prev = stalls;
    }
}

#[test]
fn signature_buffer_rejects_wrong_tile_count() {
    let mut sb = SignatureBuffer::new(8, 2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sb.push(vec![0u32; 4]); // wrong length
    }));
    assert!(result.is_err(), "length mismatch must be rejected");
}

#[test]
fn per_drawcall_bitmap_isolation() {
    // Two drawcalls with identical geometry but different constants: the
    // signatures must differ from the single-drawcall case even though
    // the attribute bytes are the same.
    let one = {
        let mut gpu = Gpu::new(cfg());
        let mut f = quad_frame(1);
        f.drawcalls[0].constants.push(Vec4::splat(1.0));
        let geo = gpu.run_geometry(&f, &mut Vec::new());
        reference_signatures(&geo, cfg().tile_count())
    };
    let two = {
        let mut gpu = Gpu::new(cfg());
        let mut f = quad_frame(2);
        f.drawcalls[0].constants.push(Vec4::splat(1.0));
        f.drawcalls[1].constants.push(Vec4::splat(2.0));
        let geo = gpu.run_geometry(&f, &mut Vec::new());
        reference_signatures(&geo, cfg().tile_count())
    };
    assert_ne!(one, two);
    assert!(two.iter().all(|&s| s != 0), "all tiles covered");
}

#[test]
fn signature_distinguishes_drawcall_split() {
    // The same primitives submitted as one drawcall vs two drawcalls are
    // different input streams (the constants block appears twice) and must
    // hash differently — Fig. 6's layout is order- and structure-aware.
    let merged = {
        let mut gpu = Gpu::new(cfg());
        let mut f = quad_frame(1);
        // Duplicate the quad inside the same drawcall.
        let verts = f.drawcalls[0].vertices.clone();
        f.drawcalls[0].vertices.extend(verts);
        let geo = gpu.run_geometry(&f, &mut Vec::new());
        reference_signatures(&geo, cfg().tile_count())
    };
    let split = {
        let mut gpu = Gpu::new(cfg());
        let mut f = quad_frame(2);
        // Make both drawcalls bit-identical to the merged one's halves.
        f.drawcalls[1] = f.drawcalls[0].clone();
        let geo = gpu.run_geometry(&f, &mut Vec::new());
        reference_signatures(&geo, cfg().tile_count())
    };
    assert_ne!(merged, split);
}

#[test]
fn ot_pushes_scale_with_coverage_not_primitive_count() {
    let mut gpu = Gpu::new(cfg());
    // One tiny triangle vs one fullscreen quad (2 triangles).
    let mut tiny = FrameDesc::new();
    tiny.drawcalls.push(DrawCall {
        state: PipelineState::flat_2d(),
        constants: Mat4::IDENTITY.cols.to_vec(),
        vertices: [(-0.05, -0.05), (0.05, -0.05), (0.0, 0.05)]
            .iter()
            .map(|&(x, y)| Vertex::new(vec![Vec4::new(x, y, 0.0, 1.0), Vec4::splat(1.0)]))
            .collect(),
    });
    let g_tiny = gpu.run_geometry(&tiny, &mut Vec::new());
    let g_full = gpu.run_geometry(&quad_frame(1), &mut Vec::new());
    let mut su = SignatureUnit::new(16);
    let tiny_pushes = su
        .process_frame(&FrameGeometry::record(&g_tiny), cfg().tile_count())
        .stats
        .ot_pushes;
    let full_pushes = su
        .process_frame(&FrameGeometry::record(&g_full), cfg().tile_count())
        .stats
        .ot_pushes;
    assert!(tiny_pushes <= 4);
    assert!(full_pushes >= 64, "fullscreen coverage dominates");
}
