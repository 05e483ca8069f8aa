//! Stage B of one `eval_warm` render key on one thread, on a suite scene
//! rendered at the sweep benchmark's 200×128 screen for 4 frames:
//!
//! * `eval_warm_key_8_cells` — `evaluate_shared` over the key's 8 cells
//!   (signature widths 8/16/24/32 × compare distances 1/2) from a fresh
//!   `SectionTable`. The sweep benchmark's `eval_warm` grid is ten such
//!   keys.
//! * `timing_axis_key_8_cells` — `evaluate_shared` over the key's 8
//!   timing-axis cells (OT-queue depths 4/8/16/32 × compare costs 2/4)
//!   from a fresh `SectionTable`: one baseline, TE, memo and RE replay
//!   and four RE decisions, the compare cost added per cell.
//! * `baseline_section` — the key's baseline section: one cache replay of
//!   every event, each epoch charged on a fresh DRAM as it is replayed
//!   and recorded into the DRAM-bound stream TE reads.
//! * `te_sections` — the key's two TE sections (compare distances 1/2)
//!   over its published baseline section.
//! * `decode_key` — decoding the key's uncompressed `.relog` artifact
//!   from memory, what a warm sweep does once per key before Stage B.

use criterion::{criterion_group, criterion_main, Criterion};
use re_core::passes::{BaselinePass, TePass};
use re_core::relog;
use re_core::{evaluate_shared, SectionTable, SimOptions};
use re_gpu::GpuConfig;

fn bench_stage_b(c: &mut Criterion) {
    let mut bench = re_workloads::by_alias("ccs").expect("ccs is a suite scene");
    let gpu = GpuConfig {
        width: 200,
        height: 128,
        tile_size: 16,
        ..Default::default()
    };
    let log = re_core::render_scene(bench.scene.as_mut(), gpu, 4);
    let mut cells = Vec::new();
    for sig_bits in [8, 16, 24, 32] {
        for compare_distance in [1, 2] {
            cells.push(SimOptions {
                gpu,
                sig_bits,
                compare_distance,
                ..SimOptions::default()
            });
        }
    }

    let mut timing_cells = Vec::new();
    for ot_queue_entries in [4, 8, 16, 32] {
        for sig_compare_cycles in [2, 4] {
            timing_cells.push(SimOptions {
                gpu,
                ot_queue_entries,
                sig_compare_cycles,
                ..SimOptions::default()
            });
        }
    }

    let mut g = c.benchmark_group("stage_b");
    // 30 samples: 10 could not resolve changes under about 15%.
    g.sample_size(30);
    g.bench_function("eval_warm_key_8_cells", |b| {
        b.iter(|| {
            let table = SectionTable::new();
            for opts in &cells {
                std::hint::black_box(evaluate_shared(&log, opts, &table));
            }
        })
    });
    g.bench_function("timing_axis_key_8_cells", |b| {
        b.iter(|| {
            let table = SectionTable::new();
            for opts in &timing_cells {
                std::hint::black_box(evaluate_shared(&log, opts, &table));
            }
        })
    });
    g.bench_function("baseline_section", |b| {
        b.iter(|| std::hint::black_box(BaselinePass::section(&log, cells[0].timing)))
    });
    let baseline = BaselinePass::section(&log, cells[0].timing);
    g.bench_function("te_sections", |b| {
        b.iter(|| {
            for compare_distance in [1, 2] {
                std::hint::black_box(TePass::section(&log, compare_distance, &baseline));
            }
        })
    });
    let bytes = relog::encode(&log);
    g.bench_function("decode_key", |b| {
        b.iter(|| std::hint::black_box(relog::decode(&bytes).expect("a valid artifact")))
    });
    g.finish();
}

criterion_group!(benches, bench_stage_b);
criterion_main!(benches);
