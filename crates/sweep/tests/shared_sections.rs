//! Stage B section sharing under concurrency.
//!
//! One render key carries 16 cells, so every pass section is wanted by
//! several cells at once and is claimed, published and waited on across
//! workers. At every worker count, on both executors, cold and warm, the
//! `results.csv` must be byte-identical to the per-cell pipeline's, and
//! no execution may hang. A warm plan whose artifact vanishes after the
//! plan was annotated must render the key and still give the same CSV.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use re_sweep::{
    axis, capture_traces, render_csv, AsyncExecutor, CellOutcome, CellRecord, Executor,
    ExperimentGrid, RenderLogCache, SweepEvent, SweepObserver, SweepOptions, SweepPlan,
    ThreadExecutor,
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
    let traces = capture_traces(&grid, &quiet).expect("capture");
    let root = std::env::temp_dir().join(format!("re_shared_sections_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Runs one execution on its own thread and returns its CSV and render
    // count; an execution that hangs (or panics) fails the test.
    let run = |exec: Box<dyn Executor + Send>, plan: &SweepPlan, what: String| {
        let (plan, traces) = (plan.clone(), traces.clone());
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

    // The per-cell pipeline shares nothing: it is the reference.
    let per_cell = ThreadExecutor {
        workers: 2,
        group_renders: false,
        heartbeat: None,
        ..ThreadExecutor::default()
    };
    let (reference, _) = run(Box::new(per_cell), &plan, "per-cell".into());

    for workers in [1, 3, 8] {
        for name in ["thread", "async"] {
            let logs = root.join(format!("{name}-{workers}"));
            let exec = || -> Box<dyn Executor + Send> {
                let log_dir = Some(logs.clone());
                if name == "thread" {
                    Box::new(ThreadExecutor {
                        workers,
                        log_dir,
                        heartbeat: None,
                        ..ThreadExecutor::default()
                    })
                } else {
                    Box::new(AsyncExecutor {
                        workers,
                        log_dir,
                        heartbeat: None,
                        ..AsyncExecutor::default()
                    })
                }
            };
            let label = |state: &str| format!("{name} executor, {workers} workers, {state}");

            let (cold, renders) = run(exec(), &plan, label("cold"));
            assert_eq!(renders, 1, "{}", label("cold"));
            let mut warm_plan = plan.clone();
            let cache = RenderLogCache::new(Some(logs.clone()));
            assert_eq!(warm_plan.attach_cached_logs(&cache), 1);
            let (warm, renders) = run(exec(), &warm_plan, label("warm"));
            assert_eq!(renders, 0, "{}", label("warm"));
            // The artifact vanishes after the plan was annotated: the key
            // renders again.
            std::fs::remove_dir_all(&logs).expect("remove artifacts");
            let (vanished, renders) = run(exec(), &warm_plan, label("vanished"));
            assert_eq!(renders, 1, "{}", label("vanished"));
            for (got, state) in [(cold, "cold"), (warm, "warm"), (vanished, "vanished")] {
                assert!(
                    got == reference,
                    "{}: results.csv differs from the per-cell run",
                    label(state)
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
