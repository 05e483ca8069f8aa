//! The render-once contract of sweep grouping — and of sharding.
//!
//! A sweep over evaluation-only axes must rasterize each (scene, tile
//! size, binning) render key **exactly once** — asserted here via the
//! raster count each execution returns — while producing a `results.csv`
//! byte-identical to the per-cell reference
//! ([`re_sweep::run_cell`]). Sharding partitions the plan *by render
//! key*, so each shard must rasterize exactly its own keys once and
//! nothing else.

use re_sweep::{
    axis, capture_plan_traces, render_csv, run_cell, CellOutcome, CellRecord, ExperimentGrid,
    SweepOptions, SweepPlan,
};

#[test]
fn grouped_sweep_rasterizes_each_render_key_exactly_once() {
    // 2 scenes × (2 sig_bits × 2 distances × 2 sig-compare costs × 2 memo
    // capacities) = 32 cells, but only 2 render keys: every axis except
    // the scene is evaluation-side.
    let mut grid = ExperimentGrid::default()
        .with_scenes(&["ccs", "tib"])
        .with_axis(axis::SIG_BITS, vec![16, 32])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2])
        .with_axis(axis::SIG_COMPARE_CYCLES, vec![2, 4])
        .with_axis(axis::MEMO_KB, vec![4, 16]);
    grid.frames = 3;
    grid.width = 128;
    grid.height = 64;
    let cells = grid.cell_count();
    assert_eq!(cells, 32);
    let tile_count = (128 / 16) * (64 / 16); // 32 tiles per frame
    let per_render = grid.frames as u64 * tile_count;

    // Every path starts from the same traces via the disk cache.
    let trace_dir = std::env::temp_dir().join(format!("re_render_once_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&trace_dir);
    let opts = SweepOptions {
        workers: 2,
        quiet: true,
        trace_dir: Some(trace_dir.clone()),
        ..SweepOptions::default()
    };

    // Grouped: exactly one Stage A render per render key.
    let grouped = re_sweep::run_grid(&grid, &opts).expect("grouped sweep");
    assert_eq!(
        grouped.rasters,
        2 * per_render,
        "grouping must rasterize each of the 2 render keys exactly once"
    );
    let grouped = grouped.outcomes;

    // Per-cell reference: one render per cell.
    let traces = capture_plan_traces(&SweepPlan::compile(&grid), &opts).expect("capture");
    let per_cell: Vec<CellOutcome> = grid
        .cells()
        .into_iter()
        .map(|cell| CellOutcome {
            report: run_cell(&traces[cell.scene()], &cell),
            cell,
        })
        .collect();

    // And the results — down to the rendered CSV — are byte-identical.
    let csv_of = |outcomes: &[CellOutcome]| {
        let records: Vec<CellRecord> = outcomes
            .iter()
            .map(|o| CellRecord::from_run(&o.cell, &o.report))
            .collect();
        render_csv(&records)
    };
    assert_eq!(csv_of(&grouped), csv_of(&per_cell));
    for (a, b) in grouped.iter().zip(&per_cell) {
        assert_eq!(a.report, b.report, "cell {}", a.cell.id);
    }

    // Sharding by render key: each of two shards rasterizes exactly its
    // own keys once (here: one key each), and together they cover the
    // grid with the same per-cell reports as the unsharded run.
    let plan = SweepPlan::compile(&grid);
    assert_eq!(plan.render_job_count(), 2);
    let mut shard_outcomes = Vec::new();
    for k in 0..2 {
        let shard = plan.shard(k, 2).expect("shard");
        let run = re_sweep::run_plan(&shard, &opts).expect("shard sweep");
        assert_eq!(
            run.rasters,
            shard.render_job_count() as u64 * per_render,
            "shard {k} must rasterize exactly its own render keys once"
        );
        assert_eq!(run.outcomes.len(), shard.cell_count());
        shard_outcomes.extend(run.outcomes);
    }
    shard_outcomes.sort_by_key(|o| o.cell.id);
    assert_eq!(shard_outcomes.len(), cells);
    for (a, b) in shard_outcomes.iter().zip(&grouped) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.report, b.report, "cell {}", a.cell.id);
    }

    // ---- render-log cache: a warm --log-dir skips Stage A entirely ----
    let log_dir = trace_dir.join("logs");
    let with_logs = SweepOptions {
        log_dir: Some(log_dir.clone()),
        ..opts
    };

    // Cold pass: still one raster per key, and the artifacts get written.
    let cold = re_sweep::run_grid(&grid, &with_logs).expect("cold log-dir sweep");
    assert_eq!(cold.rasters, 2 * per_render);
    assert_eq!(
        std::fs::read_dir(&log_dir).unwrap().count(),
        2,
        "one .relog per render key"
    );

    // Warm pass: **zero** raster invocations — every key replays its
    // cached log — and the results are byte-identical to the grouped run.
    let warm = re_sweep::run_grid(&grid, &with_logs).expect("warm log-dir sweep");
    assert_eq!(
        warm.rasters, 0,
        "a warm render-log cache must not rasterize anything"
    );
    assert_eq!(csv_of(&warm.outcomes), csv_of(&grouped));
    for ((a, b), c) in warm.outcomes.iter().zip(&cold.outcomes).zip(&grouped) {
        assert_eq!(a.report, b.report, "cell {}", a.cell.id);
        assert_eq!(a.report, c.report, "cell {}", a.cell.id);
    }

    // A warm store-backed resume is raster-free too: fresh store, cached
    // logs — every cell "runs" but Stage A never does.
    let store_dir = trace_dir.join("store");
    let summary = re_sweep::run_plan_with_store(&SweepPlan::compile(&grid), &with_logs, &store_dir)
        .expect("store run");
    assert_eq!(summary.ran, cells);
    assert_eq!(summary.rasters, 0);
    assert_eq!(
        std::fs::read_to_string(&summary.csv_path).unwrap(),
        csv_of(&grouped)
    );

    // Corrupting one artifact silently re-renders exactly that key (and
    // repairs the cache); the other key still replays from disk.
    let corrupt = std::fs::read_dir(&log_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with("ccs"))
        .expect("ccs artifact");
    let mut bytes = std::fs::read(&corrupt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&corrupt, &bytes).unwrap();
    let repaired = re_sweep::run_grid(&grid, &with_logs).expect("repair sweep");
    assert_eq!(
        repaired.rasters, per_render,
        "only the corrupt key re-renders"
    );
    assert_eq!(csv_of(&repaired.outcomes), csv_of(&grouped));
    let rewarmed = re_sweep::run_grid(&grid, &with_logs).expect("rewarmed sweep");
    assert_eq!(rewarmed.rasters, 0, "the re-render must repair the cache");

    let _ = std::fs::remove_dir_all(&trace_dir);
}
