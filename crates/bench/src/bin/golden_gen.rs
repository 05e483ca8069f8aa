//! Regenerates the golden-image fingerprint table used by
//! `crates/workloads/tests/golden.rs`. Run after any intentional change to
//! the rasterizer, shaders or scenes:
//!
//! ```sh
//! cargo run --release -p re-bench --bin golden_gen
//! ```

fn main() {
    let cfg = re_gpu::GpuConfig {
        width: 256,
        height: 160,
        tile_size: 16,
        ..Default::default()
    };
    for entry in re_workloads::suite() {
        let mut bench = entry;
        let mut gpu = re_gpu::Gpu::new(cfg);
        bench.scene.init(gpu.textures_mut());
        let frame = bench.scene.frame(0);
        let geo = gpu.run_geometry(&frame, &mut Vec::new());
        for t in 0..gpu.tile_count() {
            gpu.rasterize_tile(&frame, &geo, t, &mut re_gpu::TileRecord::default());
        }
        let fp = re_gpu::image::fingerprint(gpu.framebuffer().back(), cfg.width, cfg.height);
        println!("(\"{}\", {:#018x}),", bench.alias, fp);
    }
}
