//! Benchmarks the functional Raster Pipeline: single busy tile, and a full
//! frame of a 2D and a 3D workload.

use criterion::{criterion_group, criterion_main, Criterion};
use re_gpu::{Gpu, GpuConfig};

fn bench_tile_and_frame(c: &mut Criterion) {
    let cfg = GpuConfig {
        width: 400,
        height: 256,
        tile_size: 16,
        ..Default::default()
    };

    for alias in ["ccs", "mst"] {
        let mut bench = re_workloads::by_alias(alias).expect("alias exists");
        let mut gpu = Gpu::new(cfg);
        bench.scene.init(gpu.textures_mut());
        let frame = bench.scene.frame(0);
        let geo = gpu.run_geometry(&frame, &mut Vec::new());
        // The recorded accesses and hashes are part of the raster work;
        // clearing them each iteration keeps the buffers from growing
        // across iterations.
        let mut record = re_gpu::TileRecord::default();

        // Busiest tile of the frame.
        let busiest = (0..cfg.tile_count())
            .max_by_key(|&t| geo.bin(t).len())
            .expect("tiles exist");
        c.bench_function(format!("rasterize_busiest_tile_{alias}"), |b| {
            b.iter(|| {
                record.events.clear();
                record.hashes.clear();
                gpu.rasterize_tile(&frame, &geo, busiest, &mut record)
            })
        });

        c.bench_function(format!("rasterize_full_frame_{alias}"), |b| {
            b.iter(|| {
                record.events.clear();
                record.hashes.clear();
                for t in 0..cfg.tile_count() {
                    gpu.rasterize_tile(&frame, &geo, t, &mut record);
                }
            })
        });
    }
}

fn bench_geometry(c: &mut Criterion) {
    let cfg = GpuConfig {
        width: 400,
        height: 256,
        tile_size: 16,
        ..Default::default()
    };
    let mut bench = re_workloads::by_alias("mst").expect("mst exists");
    let mut gpu = Gpu::new(cfg);
    bench.scene.init(gpu.textures_mut());
    let frame = bench.scene.frame(0);
    let mut events = Vec::new();
    c.bench_function("geometry_pipeline_mst", |b| {
        b.iter(|| {
            events.clear();
            gpu.run_geometry(std::hint::black_box(&frame), &mut events)
        })
    });
}

criterion_group!(benches, bench_tile_and_frame, bench_geometry);
criterion_main!(benches);
