//! Cross-crate invariants of the signature path (DESIGN.md §6): equal
//! inputs ⇒ equal signatures, localized edits ⇒ localized signature
//! changes, and the hardware unit ⇔ software reference agreement on real
//! scene geometry.

use rendering_elimination::core::signature::{reference_signatures, SignatureUnit};
use rendering_elimination::core::FrameGeometry;
use rendering_elimination::gpu::{Gpu, GpuConfig};
use rendering_elimination::workloads;

fn cfg() -> GpuConfig {
    GpuConfig {
        width: 256,
        height: 160,
        tile_size: 16,
        ..Default::default()
    }
}

#[test]
fn hardware_unit_matches_reference_on_all_benchmarks() {
    for b in workloads::suite() {
        let mut bench = b;
        let mut gpu = Gpu::new(cfg());
        bench.scene.init(gpu.textures_mut());
        let frame = bench.scene.frame(5);
        let geo = gpu.run_geometry(&frame, &mut Vec::new());
        let mut su = SignatureUnit::new(16);
        let hw = su.process_frame(&FrameGeometry::record(&geo), cfg().tile_count());
        let sw = reference_signatures(&geo, cfg().tile_count());
        assert_eq!(hw.sigs, sw, "{}", bench.alias);
    }
}

#[test]
fn identical_frames_produce_identical_signatures() {
    let mut bench = workloads::by_alias("tib").expect("tib exists");
    let mut gpu = Gpu::new(cfg());
    bench.scene.init(gpu.textures_mut());
    // tib rests for many frames: frames 3 and 4 are bit-identical.
    let g3 = gpu.run_geometry(&bench.scene.frame(3), &mut Vec::new());
    let g4 = gpu.run_geometry(&bench.scene.frame(4), &mut Vec::new());
    assert_eq!(
        reference_signatures(&g3, cfg().tile_count()),
        reference_signatures(&g4, cfg().tile_count())
    );
}

#[test]
fn localized_motion_changes_localized_signatures() {
    let mut bench = workloads::by_alias("ctr").expect("ctr exists");
    let mut gpu = Gpu::new(cfg());
    bench.scene.init(gpu.textures_mut());
    let a = reference_signatures(
        &gpu.run_geometry(&bench.scene.frame(4), &mut Vec::new()),
        cfg().tile_count(),
    );
    let b = reference_signatures(
        &gpu.run_geometry(&bench.scene.frame(5), &mut Vec::new()),
        cfg().tile_count(),
    );
    let changed = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    assert!(changed > 0, "the rope moved");
    assert!(
        changed < a.len() * 9 / 10,
        "most tiles must keep their signature ({changed}/{} changed)",
        a.len()
    );
}

#[test]
fn queue_depth_never_changes_signatures() {
    let mut bench = workloads::by_alias("csn").expect("csn exists");
    let mut gpu = Gpu::new(cfg());
    bench.scene.init(gpu.textures_mut());
    let geo = FrameGeometry::record(&gpu.run_geometry(&bench.scene.frame(2), &mut Vec::new()));
    let mut a = SignatureUnit::new(2);
    let mut b = SignatureUnit::new(256);
    assert_eq!(
        a.process_frame(&geo, cfg().tile_count()).sigs,
        b.process_frame(&geo, cfg().tile_count()).sigs,
        "timing configuration must be purely observational"
    );
}

#[test]
fn empty_tiles_share_the_zero_signature() {
    // A frame with no drawcalls: every tile's input stream is empty.
    let mut gpu = Gpu::new(cfg());
    let frame = rendering_elimination::gpu::api::FrameDesc::new();
    let geo = gpu.run_geometry(&frame, &mut Vec::new());
    let sigs = reference_signatures(&geo, cfg().tile_count());
    assert!(sigs.iter().all(|&s| s == 0));
}

#[test]
fn signature_covers_constants_not_just_attributes() {
    use rendering_elimination::gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
    use rendering_elimination::math::{Mat4, Vec4};
    let mk = |extra: f32| {
        let vertices = [(-0.5, -0.5), (0.5, -0.5), (0.0, 0.5)]
            .iter()
            .map(|&(x, y)| Vertex::new(vec![Vec4::new(x, y, 0.0, 1.0), Vec4::splat(1.0)]))
            .collect();
        let mut constants = Mat4::IDENTITY.cols.to_vec();
        constants.push(Vec4::splat(extra));
        FrameDesc {
            drawcalls: vec![DrawCall {
                state: PipelineState::flat_2d(),
                constants,
                vertices,
            }],
            ..FrameDesc::new()
        }
    };
    let mut gpu = Gpu::new(cfg());
    let ga = gpu.run_geometry(&mk(1.0), &mut Vec::new());
    let gb = gpu.run_geometry(&mk(2.0), &mut Vec::new());
    let sa = reference_signatures(&ga, cfg().tile_count());
    let sb = reference_signatures(&gb, cfg().tile_count());
    assert_ne!(
        sa, sb,
        "a changed uniform must change covered tiles' signatures"
    );
    // But only the tiles the triangle covers.
    let changed = sa.iter().zip(&sb).filter(|(a, b)| a != b).count();
    assert_eq!(changed, ga.prims[0].overlapped_tiles.len());
}
