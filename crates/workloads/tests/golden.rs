//! Golden-image regression tests: the rendered first frame of every
//! benchmark is pinned by a 64-bit fingerprint. Any change to the
//! rasterizer, shaders, blending, texture sampling or the scenes
//! themselves shows up here immediately.
//!
//! If a change is *intentional* (scene recalibration, shader change),
//! regenerate the table with the commented snippet at the bottom and
//! update the constants — and re-validate the figure calibration in
//! `EXPERIMENTS.md`, since the workloads define the reproduced results.

use re_gpu::{image, Gpu, GpuConfig};

// Regenerated (cargo run --release -p re-bench --bin golden_gen) when the
// workloads moved to the vendored deterministic `rand` stand-in: the scene
// *content* derives from its stream, so the pinned images shifted once.
const GOLDEN: &[(&str, u64)] = &[
    ("ccs", 0x1b951a5e3c2dcefb),
    ("cde", 0xe53395eec99cf2ea),
    ("coc", 0x2076873beeb65db8),
    ("ctr", 0xc0a77bc3c6996eae),
    ("hop", 0x69d0d0b3c77b1416),
    ("mst", 0x00fa9dd83e809fde),
    ("abi", 0xb79a185c4d00c6ba),
    ("csn", 0x70dcb252a20ef23b),
    ("ter", 0x0e0046837eb554e6),
    ("tib", 0xd955c8f686261dda),
];

fn render_frame0(alias: &str, cfg: GpuConfig) -> u64 {
    let mut bench = re_workloads::by_alias(alias).expect("alias exists");
    let mut gpu = Gpu::new(cfg);
    bench.scene.init(gpu.textures_mut());
    let frame = bench.scene.frame(0);
    let geo = gpu.run_geometry(&frame, &mut Vec::new());
    for t in 0..gpu.tile_count() {
        gpu.rasterize_tile(&frame, &geo, t, &mut re_gpu::TileRecord::default());
    }
    image::fingerprint(gpu.framebuffer().back(), cfg.width, cfg.height)
}

#[test]
fn frame_zero_images_match_golden_fingerprints() {
    let cfg = GpuConfig {
        width: 256,
        height: 160,
        tile_size: 16,
        ..Default::default()
    };
    for &(alias, expected) in GOLDEN {
        let got = render_frame0(alias, cfg);
        assert_eq!(
            got, expected,
            "{alias}: rendered image changed (got {got:#018x}); if intentional, \
             regenerate the golden table and re-check EXPERIMENTS.md"
        );
    }
}

#[test]
fn golden_table_covers_the_whole_suite() {
    let suite: Vec<_> = re_workloads::suite().iter().map(|b| b.alias).collect();
    let golden: Vec<_> = GOLDEN.iter().map(|&(a, _)| a).collect();
    assert_eq!(suite, golden);
}

#[test]
fn fingerprints_are_distinct_across_benchmarks() {
    let mut fps: Vec<u64> = GOLDEN.iter().map(|&(_, f)| f).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), GOLDEN.len(), "no two scenes render identically");
}

// To regenerate:
//   for b in suite() { render frame 0 at 256x160 and print
//   image::fingerprint(...) }  — see crates/bench/src/bin/golden_gen.rs.
