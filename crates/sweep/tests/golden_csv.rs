//! Golden-CSV migration guard.
//!
//! `fixtures/golden_small.csv` was produced by the pre-registry
//! (hand-plumbed) sweep implementation over a small two-axis grid. The
//! registry-driven pipeline must reproduce it **byte for byte**: same
//! header, same column order, same value formatting, same float rendering.
//! This is the in-process twin of CI's golden-CSV smoke (which drives the
//! `sweep` binary against the same fixture) and the guard for the
//! "existing grids keep byte-identical `results.csv`" contract whenever a
//! new axis is registered.

use re_sweep::{axis, CellRecord, ExperimentGrid, SweepOptions};

const GOLDEN: &str = include_str!("fixtures/golden_small.csv");

/// The grid the fixture was generated from:
/// `--scenes ccs,tib --frames 3 --width 128 --height 64
///  --sig-bits 16,32 --distances 1,2`.
fn golden_grid() -> ExperimentGrid {
    let mut g = ExperimentGrid::default()
        .with_scenes(&["ccs", "tib"])
        .with_axis(axis::SIG_BITS, vec![16, 32])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
    g.frames = 3;
    g.width = 128;
    g.height = 64;
    g
}

#[test]
fn registry_pipeline_reproduces_the_pre_registry_csv_byte_for_byte() {
    let opts = SweepOptions {
        workers: 2,
        quiet: true,
        ..SweepOptions::default()
    };
    let outcomes = re_sweep::run_grid(&golden_grid(), &opts)
        .expect("sweep")
        .outcomes;
    let records: Vec<CellRecord> = outcomes
        .iter()
        .map(|o| CellRecord::from_run(&o.cell, &o.report))
        .collect();
    let csv = re_sweep::render_csv(&records);
    assert_eq!(
        csv, GOLDEN,
        "results.csv for a pre-registry grid must stay byte-identical"
    );
}

#[test]
fn decoded_render_logs_reproduce_the_golden_csv_byte_for_byte() {
    // Two passes over a `--log-dir`: the first renders and persists one
    // `.relog` per render key, the second evaluates entirely from the
    // decoded artifacts. Both must match the golden fixture exactly —
    // the serialization round-trip may not perturb a single output byte.
    let dir = std::env::temp_dir().join(format!("re_sweep_goldlog_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions {
        workers: 2,
        quiet: true,
        log_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };
    let csv_of = |outcomes: &[re_sweep::CellOutcome]| {
        let records: Vec<CellRecord> = outcomes
            .iter()
            .map(|o| CellRecord::from_run(&o.cell, &o.report))
            .collect();
        re_sweep::render_csv(&records)
    };
    let cold = re_sweep::run_grid(&golden_grid(), &opts)
        .expect("cold sweep")
        .outcomes;
    assert_eq!(
        csv_of(&cold),
        GOLDEN,
        "cold log-dir run matches the fixture"
    );
    let warm = re_sweep::run_grid(&golden_grid(), &opts)
        .expect("warm sweep")
        .outcomes;
    assert_eq!(
        csv_of(&warm),
        GOLDEN,
        "a sweep evaluated from decoded .relog artifacts must stay byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn l2_by_te_grid_reproduces_its_golden_csv_byte_for_byte() {
    // `--scenes ccs,tib --frames 3 --width 128 --height 64 --l2-kb 64,256
    //  --distances 1,2,3`: TE sections computed from each L2 size's
    // baseline stream, at three compare distances. The fixture was
    // written by the sweep that replayed TE's caches itself.
    let mut grid = ExperimentGrid::default()
        .with_scenes(&["ccs", "tib"])
        .with_axis(axis::L2_KB, vec![64, 256])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2, 3]);
    grid.frames = 3;
    grid.width = 128;
    grid.height = 64;
    let opts = SweepOptions {
        workers: 2,
        quiet: true,
        ..SweepOptions::default()
    };
    let outcomes = re_sweep::run_grid(&grid, &opts).expect("sweep").outcomes;
    let records: Vec<CellRecord> = outcomes
        .iter()
        .map(|o| CellRecord::from_run(&o.cell, &o.report))
        .collect();
    assert_eq!(
        re_sweep::render_csv(&records),
        include_str!("fixtures/golden_l2_te.csv")
    );
}

#[test]
fn ot_depth_by_compare_cost_grid_reproduces_its_golden_csv_byte_for_byte() {
    // `--scenes ccs,tib --frames 3 --width 128 --height 64 --ot-depths 4,16
    //  --sig-compare-cycles 2,4 --distances 1,2`: the timing axes RE's
    // replay reads on top of its skip verdicts (Signature Unit stall
    // cycles and per-tile compare cycles). The fixture was written before
    // the replay's caches and DRAM were split into a source and one
    // accounting machine.
    let mut grid = ExperimentGrid::default()
        .with_scenes(&["ccs", "tib"])
        .with_axis(axis::OT_DEPTH, vec![4, 16])
        .with_axis(axis::SIG_COMPARE_CYCLES, vec![2, 4])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
    grid.frames = 3;
    grid.width = 128;
    grid.height = 64;
    let opts = SweepOptions {
        workers: 2,
        quiet: true,
        ..SweepOptions::default()
    };
    let outcomes = re_sweep::run_grid(&grid, &opts).expect("sweep").outcomes;
    let records: Vec<CellRecord> = outcomes
        .iter()
        .map(|o| CellRecord::from_run(&o.cell, &o.report))
        .collect();
    assert_eq!(
        re_sweep::render_csv(&records),
        include_str!("fixtures/golden_timing_axes.csv")
    );
}
