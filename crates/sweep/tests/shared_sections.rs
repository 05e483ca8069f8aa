//! Stage B section sharing under concurrency.
//!
//! One render key carries 16 cells, so every pass section is wanted by
//! several cells at once and is claimed, published and waited on across
//! workers. At every worker count, cold and warm, the `results.csv` must
//! be byte-identical to the per-cell pipeline's
//! ([`re_sweep::run_cell`]), and no execution may hang. A warm plan whose
//! artifact vanishes after the plan was annotated must capture the scene's
//! trace the way a plan's captures run (one `capture_done` event), render
//! the key, still give the same CSV, and put the artifact back for the
//! next run. So must one whose frame was forged with a valid CRC but a
//! tile missing, a primitive overlapping a tile outside the frame, an
//! empty or out-of-range texel run, or a tile whose hash column or run
//! counts disagree with its counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use re_sweep::{
    axis, capture_plan_traces, execute, render_csv, run_cell, CellOutcome, CellRecord,
    ExperimentGrid, RenderLogCache, SweepEvent, SweepObserver, SweepOptions, SweepPlan,
};

/// Counts Stage A renders and trace captures.
#[derive(Default)]
struct Counts {
    renders: AtomicUsize,
    captures: AtomicUsize,
}

impl SweepObserver for Counts {
    fn on_event(&self, event: &SweepEvent<'_>) {
        let count = match event {
            SweepEvent::RenderStart { .. } => &self.renders,
            SweepEvent::CaptureDone { scene, .. } if scene == "ccs" => &self.captures,
            _ => return,
        };
        count.fetch_add(1, Ordering::Relaxed);
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

    // Runs one execution on its own thread and returns its CSV, render
    // count and ccs capture count; an execution that hangs (or panics)
    // fails the test. A warm plan gets the traces an execution of it would
    // capture: none.
    let run = |opts: &SweepOptions, plan: &SweepPlan, what: String| {
        let counts = Arc::new(Counts::default());
        let opts = SweepOptions {
            observer: Some(Arc::clone(&counts) as Arc<dyn SweepObserver>),
            ..opts.clone()
        };
        let plan = plan.clone();
        let traces = if plan.pending_scene_aliases().is_empty() {
            HashMap::new()
        } else {
            traces.clone()
        };
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let outcomes = execute(&plan, &traces, &opts, &|_, _| {}).outcomes;
            let counts = (
                counts.renders.load(Ordering::Relaxed),
                counts.captures.load(Ordering::Relaxed),
            );
            let _ = tx.send((csv(&outcomes), counts));
        });
        let out = rx
            .recv_timeout(Duration::from_secs(300))
            .unwrap_or_else(|_| panic!("{what}: the execution hung or panicked"));
        handle.join().expect("execution thread");
        out
    };

    for workers in [1, 3, 8] {
        let logs = root.join(format!("workers-{workers}"));
        let opts = SweepOptions {
            workers,
            log_dir: Some(logs.clone()),
            heartbeat: None,
            ..SweepOptions::default()
        };
        let label = |state: &str| format!("{workers} workers, {state}");
        let annotated = || {
            let mut warm_plan = plan.clone();
            let cache = RenderLogCache::new(Some(logs.clone()));
            (warm_plan.attach_cached_logs(&cache), warm_plan)
        };

        let (cold, counts) = run(&opts, &plan, label("cold"));
        assert_eq!(counts, (1, 0), "{}", label("cold"));
        let (satisfied, warm_plan) = annotated();
        assert_eq!(satisfied, 1, "{}", label("cold run persisted its key"));
        let (warm, counts) = run(&opts, &warm_plan, label("warm"));
        assert_eq!(counts, (0, 0), "{}", label("warm"));
        // The artifact vanishes after the plan was annotated: the key's
        // trace is captured once, the key renders again, and the render
        // puts the artifact back.
        std::fs::remove_dir_all(&logs).expect("remove artifacts");
        let (vanished, counts) = run(&opts, &warm_plan, label("vanished"));
        assert_eq!(counts, (1, 1), "{}", label("vanished"));
        let (satisfied, rewarmed_plan) = annotated();
        assert_eq!(satisfied, 1, "{}", label("vanished run repaired the cache"));
        let (rewarmed, counts) = run(&opts, &rewarmed_plan, label("rewarmed"));
        assert_eq!(counts, (0, 0), "{}", label("rewarmed"));
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

/// A named edit of a decoded artifact.
type Forgery = (&'static str, fn(&mut re_core::RenderLog));

/// Renders a one-key `ccs` grid cold, then for each forgery rewrites the
/// key's artifact as `forge` leaves the decoded log, re-encoded so every
/// frame's CRC holds and the header still satisfies the plan. Each forged
/// artifact must fail its decode, re-render the key (one key's worth of
/// rasters) and give the cold run's CSV; the re-render puts a valid
/// artifact back for the next forgery.
fn assert_forgeries_re_render(tag: &str, forgeries: &[Forgery]) {
    let mut grid = ExperimentGrid::default()
        .with_scenes(&["ccs"])
        .with_axis(axis::SIG_BITS, vec![16, 32]);
    grid.frames = 3;
    grid.width = 128;
    grid.height = 64;
    let plan = SweepPlan::compile(&grid);
    let key = plan.render_jobs()[0].key;
    let key_rasters = key.frames() as u64 * u64::from(key.gpu_config().tile_count());
    let root = std::env::temp_dir().join(format!("re_forged_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let logs = root.join("logs");
    let opts = SweepOptions {
        workers: 2,
        log_dir: Some(logs.clone()),
        quiet: true,
        heartbeat: None,
        ..SweepOptions::default()
    };
    let traces = capture_plan_traces(&plan, &opts).expect("capture");
    let cold = execute(&plan, &traces, &opts, &|_, _| {});
    assert_eq!(cold.rasters, key_rasters);

    let path = logs.join(RenderLogCache::file_key(&key));
    for (name, forge) in forgeries {
        let mut log = re_core::relog::decode(&std::fs::read(&path).expect("artifact"))
            .expect("a valid artifact");
        forge(&mut log);
        std::fs::write(&path, re_core::relog::encode(&log)).expect("forge");
        let mut warm_plan = plan.clone();
        let satisfied = warm_plan.attach_cached_logs(&RenderLogCache::new(Some(logs.clone())));
        assert_eq!(
            satisfied, 1,
            "{name}: the forged header passes plan annotation"
        );

        // The forged frame fails its decode: the key renders again.
        let forged = execute(&warm_plan, &HashMap::new(), &opts, &|_, _| {});
        assert_eq!(forged.rasters, key_rasters, "{name}");
        assert!(
            csv(&forged.outcomes) == csv(&cold.outcomes),
            "{name}: results.csv differs from the cold run"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_forged_artifact_is_re_rendered() {
    // Frame 1 loses its last tile.
    assert_forgeries_re_render(
        "tiles",
        &[("a missing tile", |log| {
            log.frames[1].tiles.pop();
        })],
    );
}

#[test]
fn a_forged_geometry_is_re_rendered() {
    // A primitive of frame 1 overlaps a tile 5 past the frame's last one.
    assert_forgeries_re_render(
        "geometry",
        &[("a primitive overlapping a tile outside the frame", |log| {
            let tile = log.tile_count() + 5;
            let prim = log.frames[1]
                .geo
                .drawcalls
                .iter_mut()
                .flat_map(|dc| &mut dc.prims)
                .next()
                .expect("ccs draws primitives");
            prim.overlapped_tiles.push(tile);
        })],
    );
}

/// The first texel run among frame 1's tiles, and its tile.
fn first_run(log: &mut re_core::RenderLog) -> (&mut re_core::render::TileLog, usize) {
    let tile = log.frames[1]
        .tiles
        .iter_mut()
        .find(|t| {
            t.events
                .iter()
                .any(|e| matches!(e, re_gpu::Event::Texel { .. }))
        })
        .expect("ccs samples textures");
    let at = tile
        .events
        .iter()
        .position(|e| matches!(e, re_gpu::Event::Texel { .. }))
        .expect("a texel run");
    (tile, at)
}

#[test]
fn a_forged_texel_run_or_hash_column_is_re_rendered() {
    assert_forgeries_re_render(
        "runs",
        &[
            ("an empty texel run", |log| {
                let (tile, at) = first_run(log);
                if let re_gpu::Event::Texel { count, .. } = &mut tile.events[at] {
                    *count = 0;
                }
            }),
            ("a fifth texture unit", |log| {
                let (tile, at) = first_run(log);
                if let re_gpu::Event::Texel { unit, .. } = &mut tile.events[at] {
                    *unit = 4;
                }
            }),
            ("more hashes than a tile's primitives can shade", |log| {
                let area = u64::from(log.config.tile_size).pow(2);
                let tile = log.frames[1]
                    .tiles
                    .iter_mut()
                    .find(|t| !t.hashes.is_empty())
                    .expect("ccs shades fragments");
                let room = tile.stats.prims_processed * area - tile.stats.fragments_rasterized;
                tile.hashes.extend((0..=room).map(|h| h as u32));
            }),
        ],
    );
}

#[test]
fn a_forged_counter_is_re_rendered() {
    // Every tile of frame 1 claims `u64::MAX` fragment-shader slots.
    assert_forgeries_re_render(
        "counter",
        &[("u64::MAX fragment-shader slots in every tile", |log| {
            for tile in &mut log.frames[1].tiles {
                tile.stats.fs_instr_slots = u64::MAX;
            }
        })],
    );
}
