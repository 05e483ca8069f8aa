//! Stage B section sharing under concurrency.
//!
//! One render key carries 16 cells, so every pass section is wanted by
//! several cells at once and is claimed, published and waited on across
//! workers. At every worker count, cold and warm, the `results.csv` must
//! be byte-identical to the monolithic per-cell pipeline's
//! ([`re_sweep::run_cell`]), and no execution may hang. A warm plan whose
//! artifact vanishes after the plan was annotated must render the key,
//! still give the same CSV, and put the artifact back for the next run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use re_sweep::{
    axis, capture_plan_traces, render_csv, run_cell, CellOutcome, CellRecord, ExperimentGrid,
    RenderLogCache, SweepEvent, SweepObserver, SweepOptions, SweepPlan, ThreadExecutor,
};

/// Counts Stage A renders.
#[derive(Default)]
struct Renders(AtomicUsize);

impl SweepObserver for Renders {
    fn on_event(&self, event: &SweepEvent<'_>) {
        if let SweepEvent::RenderStart { .. } = event {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn csv(outcomes: &[CellOutcome]) -> String {
    let records: Vec<CellRecord> = outcomes
        .iter()
        .map(|o| CellRecord::from_run(&o.cell, &o.report))
        .collect();
    render_csv(&records)
}

#[test]
fn one_key_many_cells_agree_across_workers_executors_and_cache_states() {
    // 4 widths × 2 distances × 2 memo capacities = 16 cells on one key.
    let mut grid = ExperimentGrid::default()
        .with_scenes(&["ccs"])
        .with_axis(axis::SIG_BITS, vec![8, 16, 24, 32])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2])
        .with_axis(axis::MEMO_KB, vec![4, 16]);
    grid.frames = 3;
    grid.width = 128;
    grid.height = 64;
    let plan = SweepPlan::compile(&grid);
    assert_eq!((plan.cell_count(), plan.render_job_count()), (16, 1));
    let quiet = SweepOptions {
        quiet: true,
        ..SweepOptions::default()
    };
    let traces = capture_plan_traces(&plan, &quiet).expect("capture");
    let root = std::env::temp_dir().join(format!("re_shared_sections_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // The per-cell pipeline shares nothing: it is the reference.
    let reference = csv(&grid
        .cells()
        .into_iter()
        .map(|cell| CellOutcome {
            report: run_cell(&traces[cell.scene()], &cell),
            cell,
        })
        .collect::<Vec<_>>());

    // Runs one execution on its own thread and returns its CSV and render
    // count; an execution that hangs (or panics) fails the test.
    let run = |exec: &ThreadExecutor, plan: &SweepPlan, what: String| {
        let (exec, plan, traces) = (exec.clone(), plan.clone(), traces.clone());
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let renders = Renders::default();
            let outcomes = exec.execute(&plan, &traces, &renders, &|_, _| {});
            let _ = tx.send((csv(&outcomes), renders.0.into_inner()));
        });
        let out = rx
            .recv_timeout(Duration::from_secs(300))
            .unwrap_or_else(|_| panic!("{what}: the execution hung or panicked"));
        handle.join().expect("execution thread");
        out
    };

    for workers in [1, 3, 8] {
        let logs = root.join(format!("workers-{workers}"));
        let exec = ThreadExecutor {
            workers,
            log_dir: Some(logs.clone()),
            heartbeat: None,
            ..ThreadExecutor::default()
        };
        let label = |state: &str| format!("{workers} workers, {state}");
        let annotated = || {
            let mut warm_plan = plan.clone();
            let cache = RenderLogCache::new(Some(logs.clone()));
            (warm_plan.attach_cached_logs(&cache), warm_plan)
        };

        let (cold, renders) = run(&exec, &plan, label("cold"));
        assert_eq!(renders, 1, "{}", label("cold"));
        let (satisfied, warm_plan) = annotated();
        assert_eq!(satisfied, 1, "{}", label("cold run persisted its key"));
        let (warm, renders) = run(&exec, &warm_plan, label("warm"));
        assert_eq!(renders, 0, "{}", label("warm"));
        // The artifact vanishes after the plan was annotated: the key
        // renders again, and the render puts the artifact back.
        std::fs::remove_dir_all(&logs).expect("remove artifacts");
        let (vanished, renders) = run(&exec, &warm_plan, label("vanished"));
        assert_eq!(renders, 1, "{}", label("vanished"));
        let (satisfied, rewarmed_plan) = annotated();
        assert_eq!(satisfied, 1, "{}", label("vanished run repaired the cache"));
        let (rewarmed, renders) = run(&exec, &rewarmed_plan, label("rewarmed"));
        assert_eq!(renders, 0, "{}", label("rewarmed"));
        for (got, state) in [
            (cold, "cold"),
            (warm, "warm"),
            (vanished, "vanished"),
            (rewarmed, "rewarmed"),
        ] {
            assert!(
                got == reference,
                "{}: results.csv differs from the per-cell run",
                label(state)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
