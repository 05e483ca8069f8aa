//! `.relog` codec throughput: `RELOG002` (LZSS) encode and decode of one
//! rendered suite key at the sweep benchmark's 200×128 screen. Both
//! directions report MiB/s of *raw* frame data (the plain `RELOG001`
//! size), so encode and decode figures are directly comparable with the
//! `relog.encode_mb_s` / `relog.decode_mb_s` rows of a traced sweep run.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use re_core::relog::{self, Compression};
use re_gpu::GpuConfig;

fn bench_relog_codec(c: &mut Criterion) {
    let mut bench = re_workloads::by_alias("ccs").expect("ccs is a suite scene");
    let cfg = GpuConfig {
        width: 200,
        height: 128,
        tile_size: 16,
        ..Default::default()
    };
    let log = re_core::render_scene(bench.scene.as_mut(), cfg, 4);
    let raw = relog::encode(&log).len() as u64;
    let packed = relog::encode_with(&log, Compression::Lzss);

    let mut g = c.benchmark_group("relog_codec");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(raw));
    g.bench_function("encode_lzss", |b| {
        b.iter(|| relog::encode_with(std::hint::black_box(&log), Compression::Lzss))
    });
    g.bench_function("decode_lzss", |b| {
        b.iter(|| relog::decode(std::hint::black_box(&packed)).expect("decodes"))
    });
    g.finish();
}

criterion_group!(benches, bench_relog_codec);
criterion_main!(benches);
