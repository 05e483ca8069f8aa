//! End-to-end proof of the registry API: the `memo_kb` axis was added
//! purely as a registry definition (plus these tests) — no engine, store,
//! report or CLI dispatch edits — and still behaves as a full sweep axis:
//!
//! * it reaches the Memo pass (LUT capacity changes the reuse counters);
//! * it is evaluation-side: sweeping it adds **zero** extra rasterizations
//!   and leaves every RE/baseline metric untouched;
//! * it shows up in the CSV (column), store (JSON key), report (marginal)
//!   and label only when actually swept.

use re_sweep::{axis, CellRecord, ExperimentGrid, SweepOptions, SweepPlan};

fn base_grid() -> ExperimentGrid {
    let mut g = ExperimentGrid::default().with_scenes(&["ccs"]);
    g.frames = 4;
    g.width = 128;
    g.height = 64;
    g
}

fn opts() -> SweepOptions {
    SweepOptions {
        workers: 2,
        quiet: true,
        ..SweepOptions::default()
    }
}

#[test]
fn memo_capacity_feeds_the_memo_pass_and_nothing_else() {
    // A starved 1 KiB LUT vs the paper's 16 KiB: same render, same RE
    // results, different memoization reuse.
    let grid = base_grid().with_axis(axis::MEMO_KB, vec![1, 16]);
    let outcomes = re_sweep::run_grid(&grid, &opts()).expect("sweep").outcomes;
    assert_eq!(outcomes.len(), 2);
    let (small, big) = (&outcomes[0], &outcomes[1]);
    assert_eq!(small.cell.point.get(axis::MEMO_KB), 1);
    assert_eq!(big.cell.point.get(axis::MEMO_KB), 16);

    let total = |o: &re_sweep::CellOutcome| o.report.memo.total();
    assert_eq!(total(small), total(big), "same fragments processed");
    assert!(
        small.report.memo.fragments_reused < big.report.memo.fragments_reused,
        "a starved LUT must reuse fewer fragments ({} vs {})",
        small.report.memo.fragments_reused,
        big.report.memo.fragments_reused
    );

    // Evaluation-side: every non-memo metric is identical across the axis.
    assert_eq!(small.report.baseline, big.report.baseline);
    assert_eq!(small.report.re, big.report.re);
    assert_eq!(small.report.te, big.report.te);
    assert_eq!(small.cell.render_key(), big.cell.render_key());
}

#[test]
fn memo_axis_shares_render_logs_like_any_eval_axis() {
    // 4 memo capacities, 1 scene → 4 cells but exactly 1 render key, and
    // the grouped path must agree bit-for-bit with per-cell rendering.
    // (The rasterize-exactly-once counter proof lives in render_once.rs,
    // whose grid sweeps memo_kb too — the counter is process-global and
    // needs a test binary to itself.)
    let grid = base_grid().with_axis(axis::MEMO_KB, vec![1, 4, 16, 64]);
    let cells = grid.cells();
    let keys: std::collections::HashSet<_> = cells.iter().map(|c| c.render_key()).collect();
    assert_eq!(keys.len(), 1);

    let grouped = re_sweep::run_grid(&grid, &opts())
        .expect("grouped")
        .outcomes;
    let traces =
        re_sweep::capture_plan_traces(&SweepPlan::compile(&grid), &opts()).expect("capture");
    assert_eq!(grouped.len(), 4);
    for (a, cell) in grouped.iter().zip(&cells) {
        let per_cell = re_sweep::run_cell(&traces[cell.scene()], cell);
        assert_eq!(a.report, per_cell, "cell {}", a.cell.id);
    }
}

#[test]
fn memo_axis_appears_in_artifacts_only_when_swept() {
    let grid = base_grid().with_axis(axis::MEMO_KB, vec![4, 16]);
    let outcomes = re_sweep::run_grid(&grid, &opts()).expect("sweep").outcomes;
    let records: Vec<CellRecord> = outcomes
        .iter()
        .map(|o| CellRecord::from_run(&o.cell, &o.report))
        .collect();

    // CSV: a memo_kb column, in registry position.
    let csv = re_sweep::render_csv(&records);
    let header = csv.lines().next().unwrap();
    assert!(
        header.contains("sig_compare_cycles,memo_kb,frames"),
        "{header}"
    );

    // Report: a marginal over memo_kb.
    let report = re_sweep::render_report(&records);
    assert!(report.contains("marginal over `memo_kb`"), "{report}");

    // Label: the mk segment, only for the swept grid.
    assert!(outcomes[0].cell.label().ends_with("mk4"));
    assert!(base_grid().cells()[0].label().ends_with("sc4"));

    // JSON: the axis key round-trips.
    let json = records[0].to_json().to_string();
    assert!(json.contains("\"memo_kb\":4"), "{json}");
}
