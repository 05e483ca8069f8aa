//! The observer contract of plan execution, and the run-log/metrics
//! surfaces built on it.
//!
//! What every executor must guarantee to observers, across worker counts
//! and kill/resume:
//!
//! * every render job announces itself exactly once — either a
//!   `RenderStart`/`RenderDone` pair (live Stage A) or one
//!   `RenderLogReplay` (cached artifact);
//! * every cell emits exactly one `CellDone` (and one `EvalDone` carrying
//!   its timing record);
//! * the `events.jsonl` run log round-trips: every line parses, and its
//!   totals match the result store it sits beside;
//! * observability is free of behavioral side effects: `results.csv` is
//!   byte-identical with and without the run log installed;
//! * the legacy `re_gpu::raster_invocations()` counter and the
//!   `gpu.raster_invocations` registry counter are the same number.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use re_sweep::{
    axis, read_events, EventRecord, ExperimentGrid, JsonlObserver, MultiObserver, Profile,
    SweepEvent, SweepObserver, SweepOptions, SweepPlan, EVENTS_FILE,
};

fn tiny_grid() -> ExperimentGrid {
    // 2 scenes × 2 sig widths = 4 cells sharing 2 render keys (sig_bits is
    // evaluation-side).
    let mut grid = ExperimentGrid::default()
        .with_scenes(&["ccs", "tib"])
        .with_axis(axis::SIG_BITS, vec![16, 32]);
    grid.frames = 2;
    grid.width = 128;
    grid.height = 64;
    grid
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("re_obs_contract_{}_{name}", std::process::id()))
}

/// Counts contract-relevant events, thread-safely.
#[derive(Default)]
struct Contract {
    render_starts: Mutex<usize>,
    render_dones: Mutex<usize>,
    replays: Mutex<usize>,
    cell_dones: Mutex<Vec<usize>>,
    eval_cells: Mutex<Vec<usize>>,
}

impl SweepObserver for Contract {
    fn on_event(&self, event: &SweepEvent<'_>) {
        match *event {
            SweepEvent::RenderStart { .. } => *self.render_starts.lock().unwrap() += 1,
            SweepEvent::RenderDone { .. } => *self.render_dones.lock().unwrap() += 1,
            SweepEvent::RenderLogReplay { .. } => *self.replays.lock().unwrap() += 1,
            SweepEvent::CellDone { done, .. } => self.cell_dones.lock().unwrap().push(done),
            SweepEvent::EvalDone { cell, .. } => self.eval_cells.lock().unwrap().push(cell),
            _ => {}
        }
    }
}

#[test]
fn every_render_job_and_cell_reports_exactly_once_across_worker_counts() {
    let grid = tiny_grid();
    let plan = SweepPlan::compile(&grid);
    let base = tmp("workers");
    let _ = std::fs::remove_dir_all(&base);

    for workers in [1, 2, 4] {
        let contract = Arc::new(Contract::default());
        let store_dir = base.join(format!("store_w{workers}"));
        let jsonl = JsonlObserver::append(store_dir.join(EVENTS_FILE), None).expect("run log");
        let opts = SweepOptions {
            workers,
            quiet: true,
            // A shared trace cache, but no .relog cache: every worker
            // count must render its keys live.
            trace_dir: Some(base.join("traces")),
            observer: Some(Arc::new(MultiObserver::new(vec![
                Arc::clone(&contract) as Arc<dyn SweepObserver>,
                Arc::new(jsonl),
            ]))),
            ..SweepOptions::default()
        };
        let summary = re_sweep::run_plan_with_store(&plan, &opts, &store_dir).expect("store run");
        assert_eq!(summary.ran, plan.cell_count());

        // Render jobs: one announcement each, all live (no cache here).
        assert_eq!(
            *contract.render_starts.lock().unwrap(),
            plan.render_job_count()
        );
        assert_eq!(
            *contract.render_dones.lock().unwrap(),
            plan.render_job_count()
        );
        assert_eq!(*contract.replays.lock().unwrap(), 0);

        // Cells: exactly one CellDone each, with `done` covering 1..=N.
        let mut dones = contract.cell_dones.lock().unwrap().clone();
        dones.sort_unstable();
        assert_eq!(
            dones,
            (1..=plan.cell_count()).collect::<Vec<_>>(),
            "w{workers}"
        );

        // EvalDone ids are exactly the store's record ids.
        let mut evals = contract.eval_cells.lock().unwrap().clone();
        evals.sort_unstable();
        let mut stored: Vec<usize> = summary.records.iter().map(|r| r.id).collect();
        stored.sort_unstable();
        assert_eq!(evals, stored, "w{workers}");

        // The run log beside the store round-trips and agrees with it.
        let events = read_events(store_dir.join(EVENTS_FILE)).expect("parse run log");
        let eval_lines = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    EventRecord::Event {
                        event: SweepEvent::EvalDone { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(eval_lines, summary.records.len(), "w{workers}");
        assert!(matches!(events[0], EventRecord::RunStart { .. }));
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn run_log_survives_kill_resume_and_matches_the_store() {
    let grid = tiny_grid();
    let plan = SweepPlan::compile(&grid);
    let base = tmp("resume");
    let _ = std::fs::remove_dir_all(&base);
    let store_dir = base.join("store");
    let log_path = store_dir.join(EVENTS_FILE);
    let opts_with = |observer| SweepOptions {
        workers: 2,
        quiet: true,
        trace_dir: Some(base.join("traces")),
        observer: Some(observer),
        ..SweepOptions::default()
    };

    // Segment 1: the full grid.
    let jsonl = Arc::new(JsonlObserver::append(&log_path, None).expect("run log"));
    let first =
        re_sweep::run_plan_with_store(&plan, &opts_with(jsonl), &store_dir).expect("first run");
    assert_eq!(first.ran, plan.cell_count());

    // "Kill": drop two completed cells from the store, as if the process
    // died before committing them.
    for id in [0, 2] {
        std::fs::remove_file(store_dir.join("cells").join(format!("cell_{id:05}.json")))
            .expect("rm");
    }

    // Segment 2: the resume appends to the same run log.
    let jsonl = Arc::new(JsonlObserver::append(&log_path, None).expect("run log"));
    let second =
        re_sweep::run_plan_with_store(&plan, &opts_with(jsonl), &store_dir).expect("resume");
    assert_eq!(second.resumed, plan.cell_count() - 2);
    assert_eq!(second.ran, 2);

    // Every line of both segments parses; the segment structure is intact.
    let events = read_events(&log_path).expect("parse run log");
    let segments = events
        .iter()
        .filter(|e| matches!(e, EventRecord::RunStart { .. }))
        .count();
    assert_eq!(segments, 2);

    // Totals match the store: every store record id was evaluated exactly
    // once per time it was (re)run — 4 in segment 1, the 2 deleted ones in
    // segment 2 — and the resume announced what it skipped.
    let eval_ids: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            EventRecord::Event {
                event: SweepEvent::EvalDone { cell, .. },
                ..
            } => Some(*cell),
            _ => None,
        })
        .collect();
    assert_eq!(eval_ids.len(), plan.cell_count() + 2);
    let mut stored: Vec<usize> = second.records.iter().map(|r| r.id).collect();
    stored.sort_unstable();
    let mut seen = eval_ids.clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen, stored, "every stored cell appears in the run log");
    assert!(
        events.iter().any(|e| matches!(
            e,
            EventRecord::Event {
                event: SweepEvent::StoreResume {
                    resumed: 2,
                    pending: 2,
                },
                ..
            }
        )),
        "the resume segment records what it skipped"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn warm_run_profile_shows_zero_render_time_and_full_replay_hits() {
    let grid = tiny_grid();
    let plan = SweepPlan::compile(&grid);
    let base = tmp("warm");
    let _ = std::fs::remove_dir_all(&base);
    let opts = |observer: Option<Arc<dyn SweepObserver>>| SweepOptions {
        workers: 2,
        quiet: true,
        trace_dir: Some(base.join("traces")),
        log_dir: Some(base.join("logs")),
        observer,
        ..SweepOptions::default()
    };

    // Cold pass fills the .relog cache.
    re_sweep::run_plan_with_store(&plan, &opts(None), base.join("cold")).expect("cold run");

    // Warm pass: fresh store, same artifact caches — Stage A never runs
    // (the engine re-annotates the plan against the now-warm cache).
    let store_dir = base.join("warm");
    let jsonl = Arc::new(JsonlObserver::append(store_dir.join(EVENTS_FILE), None).expect("log"));
    re_sweep::run_plan_with_store(&plan, &opts(Some(jsonl)), &store_dir).expect("warm run");

    let events = read_events(store_dir.join(EVENTS_FILE)).expect("parse run log");
    let profile = Profile::from_events(&events);
    assert_eq!(profile.renders, 0, "a warm cache renders nothing");
    assert_eq!(profile.render_ns, 0, "zero Stage A time in the profile");
    assert_eq!(profile.persists, 0, "a warm cache writes no artifact");
    assert_eq!(profile.replays as usize, plan.render_job_count());
    assert_eq!(profile.replay_hit_pct(), Some(100.0));
    assert_eq!(profile.cells as usize, plan.cell_count());
    assert_eq!(profile.replayed_cells, profile.cells);
    let text = profile.render();
    assert!(text.contains("100.0% replay hits"), "{text}");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn compressed_cold_run_profile_reports_persist_time() {
    let grid = tiny_grid();
    let plan = SweepPlan::compile(&grid);
    let base = tmp("persist");
    let _ = std::fs::remove_dir_all(&base);
    let store_dir = base.join("store");
    let jsonl = Arc::new(JsonlObserver::append(store_dir.join(EVENTS_FILE), None).expect("log"));
    let opts = SweepOptions {
        workers: 2,
        quiet: true,
        trace_dir: Some(base.join("traces")),
        log_dir: Some(base.join("logs")),
        relog_compress: true,
        observer: Some(jsonl),
        ..SweepOptions::default()
    };
    re_sweep::run_plan_with_store(&plan, &opts, &store_dir).expect("cold run");

    let events = read_events(store_dir.join(EVENTS_FILE)).expect("parse run log");
    let saved: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            EventRecord::Event {
                event: SweepEvent::RenderLogSaved { duration, .. },
                ..
            } => Some(duration.as_nanos() as u64),
            _ => None,
        })
        .collect();
    assert_eq!(saved.len(), plan.render_job_count(), "one artifact per key");
    assert!(saved.iter().all(|&ns| ns > 0), "{saved:?}");
    let profile = Profile::from_events(&events);
    assert_eq!(profile.persists as usize, plan.render_job_count());
    assert_eq!(profile.persist_ns, saved.iter().sum::<u64>());
    let text = profile.render();
    let row = text
        .lines()
        .find(|l| l.contains("persist (.relog)"))
        .unwrap_or_else(|| panic!("no persist row in\n{text}"));
    assert!(
        !row.contains(" 0.000s"),
        "persist row must be non-zero: {row}"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn legacy_raster_counter_is_the_registry_counter() {
    // They must agree *by construction* (same atomic), so sample after
    // forcing at least one rasterization via a tiny sweep.
    let mut grid = ExperimentGrid::default().with_scenes(&["ccs"]);
    grid.frames = 1;
    grid.width = 64;
    grid.height = 32;
    let opts = SweepOptions {
        workers: 1,
        quiet: true,
        ..SweepOptions::default()
    };
    re_sweep::run_grid(&grid, &opts).expect("tiny sweep");
    let legacy = re_gpu::raster_invocations();
    assert!(legacy > 0);
    assert_eq!(
        legacy,
        re_obs::global().counter_value("gpu.raster_invocations"),
        "legacy accessor and registry counter must be one number"
    );
}

#[test]
fn results_csv_is_byte_identical_with_observability_installed() {
    let grid = tiny_grid();
    let base = tmp("csv");
    let _ = std::fs::remove_dir_all(&base);
    let run = |store_dir: &std::path::Path, observer: Option<Arc<dyn SweepObserver>>| {
        let opts = SweepOptions {
            workers: 2,
            quiet: true,
            trace_dir: Some(base.join("traces")),
            observer,
            ..SweepOptions::default()
        };
        let summary = re_sweep::run_grid_with_store(&grid, &opts, store_dir).expect("run");
        std::fs::read(summary.csv_path).expect("csv")
    };

    let plain = run(&base.join("plain"), None);
    let observed_dir = base.join("observed");
    let jsonl = Arc::new(JsonlObserver::append(observed_dir.join(EVENTS_FILE), None).expect("log"));
    let observed = run(&observed_dir, Some(jsonl));
    assert_eq!(plain, observed, "observability must not change results.csv");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn profile_of_the_committed_run_log_fixture_is_pinned() {
    // Two segments (the first a sharded cold run with chunked renders,
    // the second a replay of its key plus a live render), a `log_saved`
    // line without `duration_ns`, and a line of an unknown type.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/events_two_segments.jsonl"
    );
    let events = read_events(path).expect("fixture parses");
    assert_eq!(events.len(), 36);
    let want = "\
run log: 2 segments, 6 cells, 3 render jobs
wall clock (across segments): 0.205s

stage breakdown (busy time, all workers):
  capture                0.072s  x2
  render (stage A)       0.052s  x2
  persist (.relog)       0.009s  x2
  eval (stage B)         0.153s  x6
  store write            0.001s  x6

render cache: 1 replayed, 2 rendered (33.3% replay hits)

scene hotspots:
  ccs              0.118s eval      0.034s render  (4 cells)
  tib              0.034s eval      0.018s render  (2 cells)

render keys:
  ccs          ts16        0.034s render  (1 rendered, 1 replayed, 2 chunks, 94% par-eff)
  tib          ts16        0.018s render  (1 rendered, 0 replayed, 2 chunks, 82% par-eff)

workers:
  w0       0.105s busy  (3 cells, 2 render jobs)
  w1       0.101s busy  (3 cells, 1 render jobs)
";
    assert_eq!(Profile::from_events(&events).render(), want);
}
