//! Benchmarks the Signature Unit over real captured geometry: signing an
//! entire frame's tile inputs (the work RE adds to the Geometry Pipeline).

use criterion::{criterion_group, criterion_main, Criterion};
use re_core::{FrameGeometry, SignatureUnit};
use re_gpu::{Gpu, GpuConfig};

fn bench_process_frame(c: &mut Criterion) {
    let cfg = GpuConfig {
        width: 400,
        height: 256,
        tile_size: 16,
        ..Default::default()
    };
    let mut bench = re_workloads::by_alias("ccs").expect("ccs exists");
    let mut gpu = Gpu::new(cfg);
    bench.scene.init(gpu.textures_mut());
    let frame = bench.scene.frame(0);
    let geo = gpu.run_geometry(&frame, &mut Vec::new());
    let recorded = FrameGeometry::record(&geo);

    c.bench_function("signature_unit_frame_ccs", |b| {
        let mut su = SignatureUnit::new(16);
        b.iter(|| su.process_frame(std::hint::black_box(&recorded), cfg.tile_count()))
    });

    c.bench_function("reference_signatures_frame_ccs", |b| {
        b.iter(|| {
            re_core::signature::reference_signatures(std::hint::black_box(&geo), cfg.tile_count())
        })
    });
}

criterion_group!(benches, bench_process_frame);
criterion_main!(benches);
