//! Trace capture and replay: snapshot a benchmark's command stream to a
//! `.retrace` file, reload it, and verify the simulator reproduces the
//! original run bit-for-bit — plus dump a rendered frame as a PPM image.
//!
//! ```sh
//! cargo run --release --example capture_replay
//! ```

use rendering_elimination::core::{Scene, SimOptions, Simulator};
use rendering_elimination::gpu::{image, Gpu, GpuConfig};
use rendering_elimination::trace::{capture, Trace, TraceScene};
use rendering_elimination::workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = GpuConfig {
        width: 400,
        height: 256,
        tile_size: 16,
        ..Default::default()
    };
    let frames = 10;

    // 1. Capture the `tib` benchmark into a trace file.
    let mut bench = workloads::by_alias("tib").expect("tib is part of the suite");
    let trace = capture(bench.scene.as_mut(), cfg, frames);
    let path = std::env::temp_dir().join("tib.retrace");
    trace.save(&path)?;
    let size = std::fs::metadata(&path)?.len();
    println!(
        "captured {} frames of tib -> {} ({:.1} MiB)",
        frames,
        path.display(),
        size as f64 / (1 << 20) as f64
    );

    // 2. Reload and replay through the simulator; compare with a live run.
    let reloaded = Trace::load(&path)?;
    let mut replay = TraceScene::with_name(reloaded, "tib-replay");
    let mut sim_replay = Simulator::new(SimOptions {
        gpu: cfg,
        ..SimOptions::default()
    });
    let from_trace = sim_replay.run(&mut replay, frames);

    let mut live_bench = workloads::by_alias("tib").expect("tib exists");
    let mut sim_live = Simulator::new(SimOptions {
        gpu: cfg,
        ..SimOptions::default()
    });
    let live = sim_live.run(live_bench.scene.as_mut(), frames);

    println!(
        "live    : {:>12} baseline cycles, {:>6} tiles skipped",
        live.baseline.total_cycles(),
        live.re.tiles_skipped
    );
    println!(
        "replayed: {:>12} baseline cycles, {:>6} tiles skipped",
        from_trace.baseline.total_cycles(),
        from_trace.re.tiles_skipped
    );
    assert_eq!(
        live.baseline.total_cycles(),
        from_trace.baseline.total_cycles()
    );
    assert_eq!(live.re.tiles_skipped, from_trace.re.tiles_skipped);
    println!("replay is bit-identical to the live scene");

    // 3. Render frame 0 from the trace and dump it as a PPM image.
    let mut gpu = Gpu::new(cfg);
    let mut scene = TraceScene::new(Trace::load(&path)?);
    scene.init(gpu.textures_mut());
    let frame = scene.frame(0);
    let geo = gpu.run_geometry(&frame, &mut Vec::new());
    for t in 0..gpu.tile_count() {
        gpu.rasterize_tile(&frame, &geo, t, &mut re_gpu::TileRecord::default());
    }
    let img_path = std::env::temp_dir().join("tib_frame0.ppm");
    image::write_ppm(gpu.framebuffer().back(), cfg.width, cfg.height, &img_path)?;
    println!(
        "frame 0 rendered to {} (fingerprint {:#018x})",
        img_path.display(),
        image::fingerprint(gpu.framebuffer().back(), cfg.width, cfg.height)
    );
    Ok(())
}
