//! Sweep fan-out throughput: cells/second on a small fixed grid at 1, 2 and
//! all hardware workers, plus the render-once grouping comparison. The
//! interesting numbers are the worker-scaling ratio (the work-stealing pool
//! should approach linear until captures/memory bandwidth saturate) and the
//! grouped-vs-per-cell ratio on an evaluation-axis-heavy grid (grouping
//! turns O(cells) rasterizations into O(render-keys), so cells/s should
//! rise with the cells-per-key factor).
//!
//! Traces are captured once up front, so the timed region is pure job
//! execution — no capture or cache I/O. The per-cell arms run the
//! per-cell `run_cell` pipeline over the work-stealing pool; the
//! render-once arms run a pre-compiled `SweepPlan` through `execute`.

use std::collections::HashMap;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use re_sweep::engine::render_key_log_parallel;
use re_sweep::{axis, execute, pool, run_cell, ExperimentGrid, SweepOptions, SweepPlan};
use re_trace::Trace;

fn small_grid() -> ExperimentGrid {
    let mut g = ExperimentGrid::default()
        .with_scenes(&["ccs", "tib"])
        .with_axis(axis::TILE_SIZE, vec![16, 32])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
    g.frames = 3;
    g.width = 128;
    g.height = 64;
    g
}

/// Evaluation-heavy grid: 2 render keys fan out into 16 cells (8 cells per
/// rasterized key) — the shape render grouping exists for.
fn eval_heavy_grid() -> ExperimentGrid {
    let mut g = ExperimentGrid::default()
        .with_scenes(&["ccs", "tib"])
        .with_axis(axis::SIG_BITS, vec![8, 16, 24, 32])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
    g.frames = 3;
    g.width = 128;
    g.height = 64;
    g
}

fn quiet() -> SweepOptions {
    SweepOptions {
        quiet: true,
        ..SweepOptions::default()
    }
}

/// Every cell of `plan` through the per-cell pipeline (Stage A
/// rebuilt per cell) on `workers` pool threads.
fn run_per_cell(plan: &SweepPlan, traces: &HashMap<&'static str, Arc<Trace>>, workers: usize) {
    pool::run_indexed(plan.eval_jobs().to_vec(), workers, |_, _, job| {
        run_cell(&traces[job.cell.scene()], &job.cell)
    });
}

fn bench_fanout(c: &mut Criterion) {
    let plan = SweepPlan::compile(&small_grid());
    let cells = plan.cell_count() as u64;
    // Capture once up front so the benchmark times pure fan-out + simulate.
    let traces = re_sweep::capture_plan_traces(&plan, &quiet()).expect("capture");

    let mut g = c.benchmark_group("sweep_fanout");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cells));
    for workers in [1, 2, pool::default_workers()] {
        g.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| run_per_cell(&plan, &traces, w))
        });
    }
    g.finish();
}

fn bench_render_grouping(c: &mut Criterion) {
    let plan = SweepPlan::compile(&eval_heavy_grid());
    let cells = plan.cell_count() as u64;
    let traces = re_sweep::capture_plan_traces(&plan, &quiet()).expect("capture");

    let mut g = c.benchmark_group("sweep_render_grouping");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cells));
    g.bench_function("per-cell-render", |b| {
        b.iter(|| run_per_cell(&plan, &traces, 2))
    });
    let opts = SweepOptions {
        workers: 2,
        // No heartbeat watchdog: the benchmark times pure execution.
        heartbeat: None,
        ..quiet()
    };
    g.bench_function("render-once", |b| {
        b.iter(|| execute(&plan, &traces, &opts, &|_, _| {}))
    });
    g.finish();
}

/// Stage A worker-scaling curve: one render-heavy key (a single scene at
/// one tile size, many frames) rendered by `render_key_log_parallel` with
/// a budget of 1, 2, 4 and all hardware workers.
///
/// The interesting number is the speedup at each budget relative to 1 —
/// chunking is embarrassingly parallel across frames, so the curve should
/// approach linear until memory bandwidth or the serial stitch tail
/// dominates (Amdahl: stitching re-interns every tile record). Frame
/// chunks are Stage A's only fan-out, so a budget past the key's 16
/// frames adds no threads.
///
/// CI caveat: shared runners virtualize cores and throttle unpredictably,
/// so the absolute cells/s and even the scaling ratio are only meaningful
/// on quiet dedicated hardware — CI runs this bench solely as a
/// does-it-still-run smoke, never as a regression gate.
fn bench_render_worker_scaling(c: &mut Criterion) {
    let mut grid = ExperimentGrid::default().with_scenes(&["ccs"]);
    grid.frames = 16;
    grid.width = 192;
    grid.height = 128;
    let plan = SweepPlan::compile(&grid);
    let traces = re_sweep::capture_plan_traces(&plan, &quiet()).expect("capture");
    let key = &plan.render_jobs()[0].key;
    let trace = &traces[key.scene()];

    let mut g = c.benchmark_group("stage_a_render_workers");
    g.sample_size(10);
    g.throughput(Throughput::Elements(grid.frames as u64));
    let mut budgets = vec![1, 2, 4, pool::default_workers()];
    budgets.dedup();
    for budget in budgets {
        g.bench_with_input(BenchmarkId::from_parameter(budget), &budget, |b, &n| {
            b.iter(|| render_key_log_parallel(trace, key, n))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fanout,
    bench_render_grouping,
    bench_render_worker_scaling
);
criterion_main!(benches);
