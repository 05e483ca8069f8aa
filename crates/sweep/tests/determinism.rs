//! The sweep subsystem's determinism contract (ISSUE acceptance criteria):
//!
//! * the same grid run with 1 worker and with N workers produces
//!   byte-identical CSV output;
//! * a run killed partway and resumed produces output byte-identical to a
//!   fresh uninterrupted run.

use re_sweep::{axis, CellRecord, ExperimentGrid, ResultStore, SweepOptions, SweepPlan};

fn grid() -> ExperimentGrid {
    let mut g = ExperimentGrid::default()
        .with_scenes(&["ccs", "abi", "ter"])
        .with_axis(axis::TILE_SIZE, vec![8, 16])
        .with_axis(axis::SIG_BITS, vec![16, 32])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
    g.frames = 4;
    g.width = 160;
    g.height = 96;
    g
}

fn opts(workers: usize) -> SweepOptions {
    SweepOptions {
        workers,
        quiet: true,
        ..SweepOptions::default()
    }
}

fn csv_of_run(workers: usize) -> String {
    let outcomes = re_sweep::run_grid(&grid(), &opts(workers)).expect("sweep");
    let records: Vec<CellRecord> = outcomes
        .iter()
        .map(|o| CellRecord::from_run(&o.cell, &o.report))
        .collect();
    re_sweep::render_csv(&records)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("re_sweep_det_{tag}_{}", std::process::id()))
}

#[test]
fn one_worker_and_many_workers_emit_identical_csv() {
    let serial = csv_of_run(1);
    let parallel = csv_of_run(4);
    assert_eq!(serial, parallel, "CSV must not depend on worker count");
    // 3 scenes × 2 tile sizes × 2 signature widths × 2 distances + header.
    assert_eq!(serial.lines().count(), 24 + 1);
}

#[test]
fn killed_and_resumed_run_matches_a_fresh_run() {
    let g = grid();

    // Fresh, uninterrupted run.
    let fresh_dir = temp_dir("fresh");
    let _ = std::fs::remove_dir_all(&fresh_dir);
    let fresh = re_sweep::run_plan_with_store(&SweepPlan::compile(&g), &opts(2), &fresh_dir)
        .expect("fresh run");
    let fresh_csv = std::fs::read_to_string(&fresh.csv_path).expect("fresh csv");

    // "Killed" run: a store where only an arbitrary prefix-and-stripe of
    // cells was committed before death (no results.csv yet).
    let resumed_dir = temp_dir("resumed");
    let _ = std::fs::remove_dir_all(&resumed_dir);
    {
        let (store, existing) = ResultStore::open(&resumed_dir, &g).expect("open");
        assert!(existing.is_empty());
        for rec in fresh.records.iter().filter(|r| r.id < 5 || r.id % 3 == 0) {
            store.record(rec).expect("record");
        }
    }

    let resumed = re_sweep::run_plan_with_store(&SweepPlan::compile(&g), &opts(3), &resumed_dir)
        .expect("resume");
    assert!(
        resumed.resumed > 0,
        "some cells must have been picked up from the store"
    );
    assert!(resumed.ran > 0, "some cells must have actually re-run");
    assert_eq!(resumed.resumed + resumed.ran, g.cell_count());

    let resumed_csv = std::fs::read_to_string(&resumed.csv_path).expect("resumed csv");
    assert_eq!(
        resumed_csv, fresh_csv,
        "resume must be invisible in the output"
    );

    let _ = std::fs::remove_dir_all(&fresh_dir);
    let _ = std::fs::remove_dir_all(&resumed_dir);
}

#[test]
fn records_roundtrip_through_the_store_bit_for_bit() {
    let mut g = ExperimentGrid::default()
        .with_scenes(&["tib"])
        .with_axis(axis::SIG_BITS, vec![8, 32]);
    g.frames = 3;
    g.width = 128;
    g.height = 64;
    let dir = temp_dir("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let first =
        re_sweep::run_plan_with_store(&SweepPlan::compile(&g), &opts(1), &dir).expect("run");
    let (_store, reloaded) = ResultStore::open(&dir, &g).expect("reopen");
    assert_eq!(
        reloaded, first.records,
        "store parse must reproduce records exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
