//! The sweep engine: compile a grid into a [`SweepPlan`], capture traces,
//! hand the plan to [`execute`], aggregate results.
//!
//! Execution model:
//!
//! 1. the grid is compiled into an explicit job graph ([`crate::plan`]):
//!    one render job per [`RenderKey`], one eval job per cell;
//! 2. every distinct scene of the plan is captured **once** into a trace
//!    (from the disk cache when available) — scene generators never cross a
//!    thread boundary;
//! 3. [`execute`] fans the jobs out over the work-stealing
//!    pool: the first worker to reach a render job runs Stage A (or
//!    decodes the key's cached `.relog`) and every cell of the job runs
//!    only Stage B against the shared log, so a sweep over
//!    evaluation-only axes rasterizes each key **at most once**;
//! 4. results are re-assembled in cell-id order, so every aggregate —
//!    returned reports, store records, the final CSV — is independent of
//!    worker count, scheduling, cache state and sharding, and equal to the
//!    per-cell pipeline ([`run_cell`]);
//! 5. every entry point reports the tiles its execution rasterized
//!    ([`Execution::rasters`], [`SweepSummary::rasters`]): the evidence
//!    for render-once, exact under concurrent executions.
//!
//! [`run_grid`] is a thin wrapper (compile + execute) kept for its two
//! non-test callers, the bench harness and the ablation studies; every
//! other caller compiles a plan and drives it with [`run_plan`] or
//! [`run_plan_with_store`].

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use re_core::render::RenderLog;
use re_core::{RunReport, Simulator};
use re_trace::{Trace, TraceScene};

use crate::artifacts::TraceCache;
use crate::exec::{execute, Execution, NullObserver, StderrObserver, SweepEvent, SweepObserver};
use crate::grid::{Cell, ExperimentGrid, RenderKey};
use crate::plan::SweepPlan;
use crate::store::{CellRecord, ResultStore};

/// How a sweep executes (as opposed to *what* it runs, which is the grid —
/// or, compiled, the [`SweepPlan`]).
#[derive(Clone)]
pub struct SweepOptions {
    /// Worker threads; 0 means one per available hardware thread (or the
    /// `RE_SWEEP_WORKERS` override — see [`crate::pool::default_workers`]).
    pub workers: usize,
    /// Directory for cached `.retrace` captures (`None` = capture in memory
    /// each run).
    pub trace_dir: Option<PathBuf>,
    /// Directory for cached `.relog` Stage A artifacts (`None` = no render
    /// log cache). With a warm cache every covered render key is replayed
    /// from disk instead of rasterized — a resumed or re-executed sweep
    /// performs zero raster invocations for those keys. The CLI defaults
    /// this to the trace directory, so both artifact kinds live side by
    /// side.
    pub log_dir: Option<PathBuf>,
    /// Suppress the default stderr progress lines. Only consulted when
    /// [`observer`](Self::observer) is `None`.
    pub quiet: bool,
    /// Write `.relog` cache artifacts with LZSS-compressed frames.
    /// Smaller files, identical replay results; both settings write the
    /// one `.relog` framing, so flipping this between runs is safe.
    pub relog_compress: bool,
    /// Interval of the [`SweepEvent::Progress`](crate::exec::SweepEvent)
    /// heartbeat the executor's watchdog emits (`None` disables it).
    /// Supervisors that tail `events.jsonl` for liveness — the `sweep
    /// fleet` driver — tighten this below the 10-second default so a
    /// stuck worker is detected promptly.
    pub heartbeat: Option<std::time::Duration>,
    /// Progress-event sink. `None` installs [`StderrObserver`] (or
    /// [`NullObserver`] when [`quiet`](Self::quiet) is set); `Some`
    /// overrides both.
    pub observer: Option<Arc<dyn SweepObserver>>,
}

impl std::fmt::Debug for SweepOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("workers", &self.workers)
            .field("trace_dir", &self.trace_dir)
            .field("log_dir", &self.log_dir)
            .field("quiet", &self.quiet)
            .field("relog_compress", &self.relog_compress)
            .field("heartbeat", &self.heartbeat)
            .field("observer", &self.observer.as_ref().map(|_| "<custom>"))
            .finish()
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: 0,
            trace_dir: None,
            log_dir: None,
            quiet: false,
            relog_compress: false,
            heartbeat: Some(std::time::Duration::from_secs(10)),
            observer: None,
        }
    }
}

impl SweepOptions {
    /// The observer events go to: the installed one, else the stderr
    /// default (or the null observer under `quiet`).
    pub fn effective_observer(&self) -> Arc<dyn SweepObserver> {
        match &self.observer {
            Some(o) => Arc::clone(o),
            None if self.quiet => Arc::new(NullObserver),
            None => Arc::new(StderrObserver),
        }
    }

    /// The plan with every render job a cached `.relog` covers marked
    /// satisfied. Borrowed (no copy) without a log directory.
    fn annotated<'a>(&self, plan: &'a SweepPlan) -> std::borrow::Cow<'a, SweepPlan> {
        if self.log_dir.is_some() {
            let mut plan = plan.clone();
            plan.attach_cached_logs(&crate::artifacts::RenderLogCache::new(self.log_dir.clone()));
            std::borrow::Cow::Owned(plan)
        } else {
            std::borrow::Cow::Borrowed(plan)
        }
    }
}

/// One finished cell: its grid point plus the full simulator report.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The grid point.
    pub cell: Cell,
    /// The simulator's report.
    pub report: RunReport,
}

/// What a stored sweep produced overall.
#[derive(Debug)]
pub struct SweepSummary {
    /// Every record of the plan (for a shard: of that shard), in cell-id
    /// order.
    pub records: Vec<CellRecord>,
    /// Path of the regenerated `results.csv`.
    pub csv_path: PathBuf,
    /// Cells found already complete in the store.
    pub resumed: usize,
    /// Cells executed by this run.
    pub ran: usize,
    /// Tiles this run's execution rasterized ([`Execution::rasters`]; 0
    /// when every pending key replayed a cached `.relog` or nothing was
    /// pending).
    pub rasters: u64,
}

/// A store run's error raised after its execution ran (store commit,
/// record check, `results.csv` write), carrying the execution's raster
/// count for [`failed_run_rasters`].
#[derive(Debug)]
struct FailedAfterExecution(u64, io::Error);

impl fmt::Display for FailedAfterExecution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.1.fmt(f)
    }
}

impl std::error::Error for FailedAfterExecution {}

/// Tiles a failed [`run_plan_with_store`] rasterized: its execution's
/// count when the failure came after the execution, else 0 (Stage A never
/// started).
pub fn failed_run_rasters(error: &io::Error) -> u64 {
    let failed = error.get_ref().and_then(|e| e.downcast_ref());
    failed.map_or(0, |FailedAfterExecution(rasters, _)| *rasters)
}

/// Captures (or loads from cache) `aliases` at `plan`'s frame count and
/// screen size, announcing each with [`SweepEvent::CaptureStart`] and
/// [`SweepEvent::CaptureDone`] and timing it into `sweep.stage.capture`.
pub(crate) fn capture(
    aliases: &[&'static str],
    plan: &SweepPlan,
    opts: &SweepOptions,
) -> io::Result<HashMap<&'static str, Arc<Trace>>> {
    // Captures run the full geometry+raster pipeline per frame; the default
    // GpuConfig only carries screen geometry, and replay overrides it per
    // cell anyway.
    let capture_cfg = re_gpu::GpuConfig {
        width: plan.width(),
        height: plan.height(),
        ..re_gpu::GpuConfig::default()
    };
    let frames = plan.frames();
    let observer = opts.effective_observer();
    let capture_hist = re_obs::metrics::histogram(re_obs::names::STAGE_CAPTURE);
    let mut cache = TraceCache::new(opts.trace_dir.clone());
    let mut traces = HashMap::new();
    for &alias in aliases {
        if traces.contains_key(alias) {
            continue;
        }
        observer.on_event(&SweepEvent::CaptureStart {
            scene: alias.into(),
            frames,
        });
        let sw = re_obs::Stopwatch::start();
        // Capture on a short-lived thread, so the capture's working memory
        // (textures, the encoded trace) comes from that thread's allocator
        // arena, which the executor's threads reuse once it exits, instead
        // of from the caller's arena, where any long-lived allocation the
        // caller makes afterwards can keep it resident for good.
        let trace = std::thread::scope(|s| {
            s.spawn(|| cache.get(alias, frames, capture_cfg))
                .join()
                .expect("capture thread")
        })?;
        traces.insert(alias, trace);
        let duration = sw.elapsed();
        capture_hist.record(duration);
        observer.on_event(&SweepEvent::CaptureDone {
            scene: alias.into(),
            frames,
            duration,
        });
    }
    Ok(traces)
}

/// Captures (or loads from cache) every scene the plan's cells reference —
/// for a shard or a resumed remainder, only the scenes it actually needs.
///
/// # Errors
/// Trace-cache I/O errors or unknown scene aliases.
pub fn capture_plan_traces(
    plan: &SweepPlan,
    opts: &SweepOptions,
) -> io::Result<HashMap<&'static str, Arc<Trace>>> {
    capture(&plan.scene_aliases(), plan, opts)
}

/// Runs one cell against a shared trace on its own: one
/// [`Simulator::run`] renders the cell's key and computes every Stage B
/// section for it alone. This per-cell path is the reference the executor
/// is tested against; the grouped path in [`run_plan`]/[`run_grid`]
/// produces identical reports while rendering each key once and sharing
/// sections among its cells.
pub fn run_cell(trace: &Arc<Trace>, cell: &Cell) -> RunReport {
    let mut scene = TraceScene::with_name(Arc::clone(trace), cell.scene());
    let mut sim = Simulator::new(cell.point.sim_options());
    sim.run(&mut scene, cell.point.frames)
}

/// Timing of one chunk of a Stage A render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTiming {
    /// Chunk index (0-based, frame order).
    pub chunk: usize,
    /// Frames the chunk rendered.
    pub frames: usize,
    /// Wall-clock time the chunk's render took.
    pub duration: std::time::Duration,
}

/// A Stage A render: the stitched log plus per-chunk timings and the
/// stitch cost, for events and metrics.
#[derive(Debug)]
pub struct ParallelRender {
    /// The stitched log — bit-identical at any render budget.
    pub log: RenderLog,
    /// Per-chunk timings in chunk order (one per
    /// [`re_core::chunk_ranges`] entry).
    pub chunks: Vec<ChunkTiming>,
    /// Time spent stitching chunk logs back together (next to nothing for
    /// a lone chunk, which is returned as it is).
    pub stitch: std::time::Duration,
}

/// Runs Stage A for one render key across up to `budget` threads and
/// returns a log **bit-identical** at any budget.
///
/// The key's frame range is split into up to `budget` contiguous
/// chunks ([`re_core::chunk_ranges`]; never more than one per frame),
/// each rendered against a fresh [`TraceScene`] view of the shared trace,
/// then stitched back in frame order with color ids re-interned globally
/// ([`re_core::stitch_chunks`]). A recorded frame is a function of its
/// description and its index, so the split is exact — same logs, same
/// [`re_gpu::raster_invocations`] count — and callers may pick any
/// budget, including per-run adaptive ones, without perturbing results.
/// A lone chunk renders on the calling thread; a budget of 0 counts as 1.
pub fn render_key_log_parallel(
    trace: &Arc<Trace>,
    key: &RenderKey,
    budget: usize,
) -> ParallelRender {
    let ranges = re_core::chunk_ranges(key.frames(), budget.max(1));
    let config = key.gpu_config();
    let render = |range| {
        let sw = re_obs::Stopwatch::start();
        let mut scene = TraceScene::with_name(Arc::clone(trace), key.scene());
        let chunk = re_core::render_chunk(&mut scene, config, range);
        (chunk, sw.elapsed())
    };
    let rendered: Vec<(re_core::RenderChunk, std::time::Duration)> = if ranges.len() <= 1 {
        ranges.into_iter().map(render).collect()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|range| s.spawn(move || render(range)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("render chunk thread panicked"))
                .collect()
        })
    };
    let mut chunks = Vec::with_capacity(rendered.len());
    let mut parts = Vec::with_capacity(rendered.len());
    for (i, (part, duration)) in rendered.into_iter().enumerate() {
        chunks.push(ChunkTiming {
            chunk: i,
            frames: part.frames.len(),
            duration,
        });
        parts.push(part);
    }
    let sw = re_obs::Stopwatch::start();
    let log = re_core::stitch_chunks(key.scene(), config, parts);
    let stitch = sw.elapsed();
    ParallelRender {
        log,
        chunks,
        stitch,
    }
}

/// Runs a compiled plan in memory through [`execute`] and returns every
/// outcome in cell-id order, plus the tiles the execution rasterized.
/// With a [`log_dir`](SweepOptions::log_dir), render jobs covered by valid cached
/// `.relog` artifacts skip Stage A entirely (and are excluded from trace
/// capture); fresh renders are persisted for the next run.
///
/// # Errors
/// Trace capture/caching errors.
pub fn run_plan(plan: &SweepPlan, opts: &SweepOptions) -> io::Result<Execution> {
    let plan = opts.annotated(plan);
    // Only scenes with an unsatisfied render job: a plan fully covered by
    // cached logs captures nothing.
    let traces = capture(&plan.pending_scene_aliases(), &plan, opts)?;
    Ok(execute(&plan, &traces, opts, &|_, _| {}))
}

/// Runs the whole grid in memory and returns every outcome in cell-id
/// order, plus the tiles the execution rasterized. This is the entry
/// point `re-bench` layers its suite harness and ablation studies on — a
/// thin wrapper over [`SweepPlan::compile`] + [`run_plan`].
///
/// # Errors
/// Trace capture/caching errors.
pub fn run_grid(grid: &ExperimentGrid, opts: &SweepOptions) -> io::Result<Execution> {
    run_plan(&SweepPlan::compile(grid), opts)
}

/// Runs a plan against a resumable store at `dir`: cells already recorded
/// there are skipped, newly finished cells are committed as they complete
/// (so a kill loses at most in-flight work), and `results.csv` is
/// regenerated from the plan's complete record set.
///
/// For a sharded plan the store carries the shard identity; it holds only
/// that shard's cells and its `results.csv` covers exactly them (merge the
/// per-shard stores with [`crate::merge_stores`] to reassemble the full
/// sweep).
///
/// # Errors
/// Store/trace I/O errors, including a store that belongs to a different
/// grid or a different shard of this grid. An error raised after the
/// execution ran still carries its raster count ([`failed_run_rasters`]).
pub fn run_plan_with_store(
    plan: &SweepPlan,
    opts: &SweepOptions,
    dir: impl Into<PathBuf>,
) -> io::Result<SweepSummary> {
    let (store, existing) = ResultStore::open_for_plan(dir, plan)?;
    let plan_ids: HashSet<usize> = plan.eval_jobs().iter().map(|j| j.cell.id).collect();
    if let Some(stray) = existing.iter().find(|r| !plan_ids.contains(&r.id)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "store at {} holds cell id {}, which is not part of this {}",
                store.dir().display(),
                stray.id,
                match plan.shard_spec() {
                    Some(s) => format!("shard ({s})"),
                    None => "plan".to_string(),
                },
            ),
        ));
    }
    let done: HashSet<usize> = existing.iter().map(|r| r.id).collect();
    let pending = plan.without_cells(&done);
    let resumed = existing.len();
    let ran = pending.cell_count();
    let observer = opts.effective_observer();
    if resumed > 0 {
        observer.on_event(&SweepEvent::StoreResume {
            resumed,
            pending: ran,
        });
    }

    // Commit from the worker so a killed sweep keeps finished cells. A
    // failed commit must not report success (an apparently complete store
    // that silently lacks records would poison later resumes and merges),
    // so the first store error is kept and returned after the pool drains.
    let record_error = Mutex::new(None::<io::Error>);
    let execution = if ran == 0 {
        Execution::default()
    } else {
        // Cached render logs satisfy whatever keys they cover — a fully
        // warm resume rasterizes nothing.
        let pending = opts.annotated(&pending);
        // Capture only the scenes that still have pending cells (a resume
        // with one cell left must not re-capture the other nine
        // workloads) — and, of those, only the ones no cached log covers.
        let traces = capture(&pending.pending_scene_aliases(), &pending, opts)?;
        execute(&pending, &traces, opts, &|cell, report| {
            if let Err(e) = store.record(&CellRecord::from_run(cell, report)) {
                record_error
                    .lock()
                    .expect("record_error lock poisoned")
                    .get_or_insert(e);
            }
        })
    };
    let rasters = execution.rasters;
    let failed = |e: io::Error| io::Error::new(e.kind(), FailedAfterExecution(rasters, e));
    if let Some(e) = record_error
        .into_inner()
        .expect("record_error lock poisoned")
    {
        return Err(failed(io::Error::new(
            e.kind(),
            format!("failed to commit a cell record to the store: {e}"),
        )));
    }

    let mut records = existing;
    records.extend(
        execution
            .outcomes
            .iter()
            .map(|o| CellRecord::from_run(&o.cell, &o.report)),
    );
    records.sort_by_key(|r| r.id);
    if records.len() != plan.cell_count() {
        return Err(failed(io::Error::other(format!(
            "sweep incomplete: {} of {} cells recorded",
            records.len(),
            plan.cell_count()
        ))));
    }
    let csv_path = store.write_csv(&records).map_err(failed)?;
    Ok(SweepSummary {
        records,
        csv_path,
        resumed,
        ran,
        rasters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> ExperimentGrid {
        let mut g = ExperimentGrid::default()
            .with_scenes(&["ccs", "tib"])
            .with_axis(crate::axis::TILE_SIZE, vec![16, 32]);
        g.frames = 3;
        g.width = 128;
        g.height = 64;
        g
    }

    fn quiet() -> SweepOptions {
        SweepOptions {
            workers: 2,
            quiet: true,
            ..SweepOptions::default()
        }
    }

    #[test]
    fn outcomes_arrive_in_cell_order() {
        let outcomes = run_grid(&tiny_grid(), &quiet()).expect("run").outcomes;
        assert_eq!(outcomes.len(), 4);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.cell.id, i);
            assert_eq!(o.report.frames, 3);
            assert!(o.report.baseline.total_cycles() > 0);
        }
    }

    #[test]
    fn grouped_and_per_cell_paths_agree_exactly() {
        // Evaluation-only axes (sig bits × distance) on top of a render
        // axis (tile size): grouping shares logs within each key and the
        // reports must still be bit-identical to per-cell rendering.
        let grid = tiny_grid()
            .with_axis(crate::axis::SIG_BITS, vec![16, 32])
            .with_axis(crate::axis::COMPARE_DISTANCE, vec![1, 2]);
        let grouped = run_grid(&grid, &quiet()).expect("grouped").outcomes;
        let traces = capture_plan_traces(&SweepPlan::compile(&grid), &quiet()).expect("capture");
        let cells = grid.cells();
        assert_eq!(grouped.len(), cells.len());
        for (a, cell) in grouped.iter().zip(&cells) {
            assert_eq!(&a.cell, cell);
            let reference = run_cell(&traces[cell.scene()], cell);
            assert_eq!(a.report, reference, "cell {}", a.cell.id);
        }
    }

    #[test]
    fn parallel_render_key_log_matches_serial_at_every_budget() {
        let mut one_frame = tiny_grid();
        one_frame.frames = 1;
        // Budgets below, at, and above the frame count (3), including the
        // degenerate 0 and 1; a 1-frame key renders one chunk at budget 4.
        for (grid, budgets) in [(tiny_grid(), &[0, 1, 2, 3, 8][..]), (one_frame, &[1, 4])] {
            let plan = SweepPlan::compile(&grid);
            let traces = capture_plan_traces(&plan, &quiet()).expect("capture");
            for job in plan.render_jobs() {
                let key = &job.key;
                let trace = &traces[key.scene()];
                let mut scene = TraceScene::with_name(Arc::clone(trace), key.scene());
                let serial = re_core::render_scene(&mut scene, key.gpu_config(), key.frames());
                for &budget in budgets {
                    let par = render_key_log_parallel(trace, key, budget);
                    let what = format!(
                        "{} ts{} {}f budget {budget}",
                        key.scene(),
                        key.tile_size(),
                        key.frames()
                    );
                    assert_eq!(par.log, serial, "{what}");
                    let chunk_frames: usize = par.chunks.iter().map(|c| c.frames).sum();
                    assert_eq!(
                        chunk_frames,
                        key.frames(),
                        "{what}: chunks cover every frame"
                    );
                    assert_eq!(
                        par.chunks.len(),
                        re_core::chunk_ranges(key.frames(), budget.max(1)).len(),
                        "{what}: one timing per chunk"
                    );
                }
            }
        }
    }

    #[test]
    fn store_run_completes_and_is_idempotent() {
        let dir = std::env::temp_dir().join(format!("re_sweep_engine_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = SweepPlan::compile(&tiny_grid());
        let first = run_plan_with_store(&plan, &quiet(), &dir).expect("run");
        assert_eq!(first.resumed, 0);
        assert_eq!(first.ran, 4);
        // 4 render keys (2 scenes × 2 tile sizes), 3 frames each: 32
        // 16px tiles or 8 32px tiles per frame.
        assert_eq!(first.rasters, 2 * 3 * (32 + 8));
        let csv = std::fs::read_to_string(&first.csv_path).unwrap();
        assert_eq!(csv.lines().count(), 5);

        // Second invocation: everything already recorded.
        let second = run_plan_with_store(&plan, &quiet(), &dir).expect("rerun");
        assert_eq!(second.resumed, 4);
        assert_eq!((second.ran, second.rasters), (0, 0));
        assert_eq!(std::fs::read_to_string(&second.csv_path).unwrap(), csv);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_log_cache_reproduces_reports_bit_identically() {
        let base = std::env::temp_dir().join(format!("re_sweep_logdir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let grid = tiny_grid().with_axis(crate::axis::SIG_BITS, vec![16, 32]);
        let with_logs = SweepOptions {
            log_dir: Some(base.join("logs")),
            ..quiet()
        };

        // Cold run writes one artifact per render key; warm run replays
        // them and must agree bit for bit with a cache-free run.
        let cold = run_grid(&grid, &with_logs).expect("cold run").outcomes;
        let plan = SweepPlan::compile(&grid);
        let mut annotated = plan.clone();
        let satisfied = annotated.attach_cached_logs(&crate::artifacts::RenderLogCache::new(
            with_logs.log_dir.clone(),
        ));
        assert_eq!(satisfied, plan.render_job_count(), "cache fully warm");
        assert_eq!(annotated.satisfied_render_jobs(), satisfied);
        assert!(annotated.pending_scene_aliases().is_empty());

        let warm = run_grid(&grid, &with_logs).expect("warm run").outcomes;
        let memory_only = run_grid(&grid, &quiet()).expect("no cache").outcomes;
        for ((a, b), c) in warm.iter().zip(&cold).zip(&memory_only) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.report, b.report, "cell {}", a.cell.id);
            assert_eq!(a.report, c.report, "cell {}", a.cell.id);
        }

        // Store runs see the same artifacts: two stores, one cold and one
        // warm, regenerate byte-identical CSVs.
        let s1 = run_plan_with_store(&plan, &with_logs, base.join("store1")).expect("store cold");
        let s2 = run_plan_with_store(&plan, &with_logs, base.join("store2")).expect("store warm");
        assert_eq!(
            (s1.rasters, s2.rasters),
            (0, 0),
            "both replay the cached logs"
        );
        assert_eq!(
            std::fs::read_to_string(&s1.csv_path).unwrap(),
            std::fs::read_to_string(&s2.csv_path).unwrap()
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn a_store_failure_after_execution_keeps_the_raster_count() {
        let dir = std::env::temp_dir().join(format!("re_sweep_failed_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A non-empty directory where results.csv goes: every cell commits,
        // then the CSV write fails.
        std::fs::create_dir_all(dir.join("results.csv").join("in-the-way")).expect("mkdir");
        let plan = SweepPlan::compile(&tiny_grid());
        let err = run_plan_with_store(&plan, &quiet(), &dir).unwrap_err();
        assert_eq!(failed_run_rasters(&err), 2 * 3 * (32 + 8), "{err}");
        // A run that fails before executing rasterized nothing.
        let other = SweepPlan::compile(&tiny_grid().with_scenes(&["ccs"]));
        let err = run_plan_with_store(&other, &quiet(), &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(failed_run_rasters(&err), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_store_runs_only_its_cells_and_records_identity() {
        let dir = std::env::temp_dir().join(format!("re_sweep_shardeng_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = SweepPlan::compile(&tiny_grid());
        let shard = plan.shard(0, 2).expect("shard");
        let summary = run_plan_with_store(&shard, &quiet(), &dir).expect("shard run");
        assert_eq!(summary.ran, shard.cell_count());
        assert!(summary.ran < plan.cell_count());

        // Re-running the shard resumes everything.
        let again = run_plan_with_store(&shard, &quiet(), &dir).expect("shard rerun");
        assert_eq!(again.resumed, shard.cell_count());
        assert_eq!(again.ran, 0);

        // Opening the same store unsharded (or as the other shard) fails.
        let err = run_plan_with_store(&plan, &quiet(), &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let other = plan.shard(1, 2).expect("shard");
        let err = run_plan_with_store(&other, &quiet(), &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
