//! Plan execution: the [`ThreadExecutor`] and the [`SweepObserver`]
//! progress-event channel.
//!
//! The executor takes a compiled [`SweepPlan`] plus the captured traces and
//! runs the plan's jobs, returning outcomes in cell-id order. Its contract:
//!
//! * **render-once** — each [`crate::plan::RenderJob`] runs Stage A at
//!   most once (never when a cached `.relog` satisfies it) and its log is
//!   shared by the job's eval cells;
//! * **deterministic output** — outcomes are returned in cell-id order and
//!   each report is a pure function of the cell, so results are
//!   byte-identical across worker counts, scheduling and cache states,
//!   and equal to the monolithic per-cell pipeline ([`crate::run_cell`]).
//!
//! Progress is reported through [`SweepObserver`] events instead of
//! hardwired `eprintln!`: the CLI installs [`StderrObserver`] (the classic
//! `[sweep] …` lines) plus a [`crate::events::JsonlObserver`] writing the
//! machine-readable `events.jsonl`, embedders can install their own, and
//! [`NullObserver`] silences everything (what `quiet` does).
//!
//! Events carry timing payloads (durations, worker ids) and the executor
//! emits a periodic [`SweepEvent::Progress`] heartbeat, so an observer
//! stream is enough to reconstruct where wall-clock went — that is what
//! `sweep profile` does ([`crate::profile`]). The same stage timings are
//! recorded into the [`re_obs`] registry histograms
//! (`sweep.stage.*`), and cache traffic into its counters
//! (`sweep.relog.*`, `sweep.artifacts.*`).

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use re_core::relog::{Compression, RelogReader};
use re_core::render::RenderLog;
use re_core::{RunReport, SectionTable};
use re_obs::names;
use re_obs::{Counter, Histogram, Stopwatch};
use re_trace::Trace;

use crate::artifacts::{capture_alias, RenderLogCache};
use crate::engine::{render_key_log_parallel, CellOutcome};
use crate::grid::{Cell, RenderKey};
use crate::plan::{EvalJob, RenderJob, ShardSpec, SweepPlan};
use crate::pool;

/// One progress event of a running sweep.
///
/// Events carry every number an observer could want to display, so
/// observers stay stateless formatters. This is also the type the run log
/// reads back ([`crate::events::EventRecord::Event`]): emitted events
/// borrow their text, parsed ones own it.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepEvent<'a> {
    /// A workload's trace is being captured (or loaded from the cache).
    CaptureStart {
        /// Workload alias.
        scene: Cow<'a, str>,
        /// Frames captured.
        frames: usize,
    },
    /// A workload's trace is ready.
    CaptureDone {
        /// Workload alias.
        scene: Cow<'a, str>,
        /// Frames captured.
        frames: usize,
        /// Capture (or cache-load) duration.
        duration: Duration,
    },
    /// A grouped execution is starting: `cells` eval jobs share
    /// `render_jobs` Stage A renders.
    GroupStart {
        /// Eval jobs in the plan.
        cells: usize,
        /// Render jobs in the plan.
        render_jobs: usize,
        /// Worker threads executing the plan.
        workers: usize,
        /// Which shard of the full plan this is (`None` = unsharded).
        shard: Option<ShardSpec>,
    },
    /// A render job is starting Stage A.
    RenderStart {
        /// Workload alias of the render key.
        scene: Cow<'a, str>,
        /// Tile edge of the render key.
        tile_size: u32,
        /// Worker running the render.
        worker: usize,
    },
    /// A render job finished Stage A.
    RenderDone {
        /// Workload alias of the render key.
        scene: Cow<'a, str>,
        /// Tile edge of the render key.
        tile_size: u32,
        /// Worker that ran the render.
        worker: usize,
        /// Frames rendered.
        frames: usize,
        /// Stage A duration.
        duration: Duration,
    },
    /// One chunk of a frame-parallel Stage A render finished. Emitted
    /// after the whole render completes (one event per chunk, in chunk
    /// order, right before the job's [`RenderDone`](Self::RenderDone)) —
    /// the per-chunk durations are what `sweep profile` computes
    /// parallel efficiency from. Serial renders emit none.
    RenderChunkDone {
        /// Workload alias of the render key.
        scene: Cow<'a, str>,
        /// Tile edge of the render key.
        tile_size: u32,
        /// Worker that owned the render job.
        worker: usize,
        /// Chunk index (0-based, frame order).
        chunk: usize,
        /// Chunks the render was split into.
        chunks: usize,
        /// Frames this chunk rendered.
        frames: usize,
        /// The chunk's render duration.
        duration: Duration,
    },
    /// A render job is satisfied by a cached `.relog`: the first cell to
    /// reach it decodes the artifact once for all the job's cells, and
    /// Stage A never runs (emitted once per job).
    RenderLogReplay {
        /// Workload alias of the render key.
        scene: Cow<'a, str>,
        /// Tile edge of the render key.
        tile_size: u32,
        /// Worker that reached the job first.
        worker: usize,
    },
    /// A freshly rendered log was persisted to the render-log cache;
    /// future resumes and re-executions of this key will skip Stage A.
    RenderLogSaved {
        /// Workload alias of the render key.
        scene: Cow<'a, str>,
        /// Tile edge of the render key.
        tile_size: u32,
        /// Size of the artifact on disk.
        bytes: u64,
        /// Encode plus atomic write of the artifact.
        duration: Duration,
    },
    /// One cell's Stage B (and store commit) finished. Chattier than
    /// [`CellDone`](Self::CellDone) — this is the per-cell timing record
    /// the run log and `sweep profile` are built from; the stderr
    /// observer ignores it.
    EvalDone {
        /// The cell's stable id.
        cell: usize,
        /// The cell's workload alias.
        scene: Cow<'a, str>,
        /// Worker that evaluated the cell.
        worker: usize,
        /// Whether the cell's render key was decoded from a cached `.relog`
        /// (true) or rendered in this execution (false).
        replayed: bool,
        /// Stage B time: computing the cell's own pass sections (waiting
        /// for sections other cells compute is excluded), plus the
        /// artifact decode for the cell that loaded a cached key.
        eval: Duration,
        /// Store-commit (`on_done`) duration.
        store: Duration,
    },
    /// One cell finished.
    CellDone {
        /// Cells finished so far (this execution).
        done: usize,
        /// Cells in this execution.
        total: usize,
        /// The cell's human-readable label.
        label: Cow<'a, str>,
        /// Mean completion rate since the execution started.
        cells_per_sec: f64,
        /// Time since the execution started.
        elapsed: Duration,
        /// Estimated time to completion, from the rate over the last few
        /// completions (windowed, so it tracks the current mix of cheap
        /// and expensive cells instead of the since-start mean). `None`
        /// until enough completions have accumulated.
        eta: Option<Duration>,
    },
    /// Periodic heartbeat (and one final tick when the execution ends),
    /// emitted by a watchdog thread even while every worker is busy
    /// inside a long render — this is what keeps `events.jsonl` alive
    /// for tailing tools.
    Progress {
        /// Cells finished so far (this execution).
        done: usize,
        /// Cells in this execution.
        total: usize,
        /// Time since the execution started.
        elapsed: Duration,
        /// Mean completion rate since the execution started.
        cells_per_sec: f64,
        /// Windowed ETA (see [`CellDone::eta`](Self::CellDone)).
        eta: Option<Duration>,
    },
    /// A store run found `resumed` cells already complete and will run the
    /// remaining `pending`.
    StoreResume {
        /// Cells already in the store.
        resumed: usize,
        /// Cells left to run.
        pending: usize,
    },
}

/// Receives [`SweepEvent`]s from a running sweep.
///
/// Carried in [`crate::SweepOptions`]; must be `Send + Sync` because
/// workers emit events concurrently.
pub trait SweepObserver: Send + Sync {
    /// Called for every event, possibly from multiple threads at once.
    fn on_event(&self, event: &SweepEvent<'_>);
}

/// Formats a duration as compact seconds (`12.3s`, `0.4s`).
fn fmt_secs(d: Duration) -> String {
    format!("{:.1}s", d.as_secs_f64())
}

/// Formats an optional ETA (`eta 12.3s` / `eta -`).
fn fmt_eta(eta: Option<Duration>) -> String {
    match eta {
        Some(d) => format!("eta {}", fmt_secs(d)),
        None => "eta -".to_string(),
    }
}

/// The classic stderr progress lines (`[sweep] …`) — the default observer
/// of a non-quiet sweep.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrObserver;

impl SweepObserver for StderrObserver {
    fn on_event(&self, event: &SweepEvent<'_>) {
        match event {
            SweepEvent::CaptureStart { scene, frames } => {
                eprintln!("[sweep] capturing {scene} ({frames} frames)…");
            }
            SweepEvent::CaptureDone {
                scene, duration, ..
            } => {
                eprintln!("[sweep] captured {scene} in {}", fmt_secs(*duration));
            }
            SweepEvent::GroupStart {
                cells,
                render_jobs,
                workers,
                shard,
            } => {
                let shard = match shard {
                    Some(s) => format!(", shard {s}"),
                    None => String::new(),
                };
                eprintln!(
                    "[sweep] render grouping: {cells} cells share {render_jobs} render keys \
                     ({workers} workers{shard})"
                );
            }
            SweepEvent::RenderStart {
                scene, tile_size, ..
            } => {
                eprintln!("[sweep] rendering {scene} ts{tile_size}…");
            }
            SweepEvent::RenderDone {
                scene,
                tile_size,
                duration,
                ..
            } => {
                eprintln!(
                    "[sweep] rendered {scene} ts{tile_size} in {}",
                    fmt_secs(*duration)
                );
            }
            SweepEvent::RenderChunkDone {
                scene,
                tile_size,
                chunk,
                chunks,
                frames,
                duration,
                ..
            } => {
                eprintln!(
                    "[sweep]   {scene} ts{tile_size} chunk {}/{chunks} ({frames} frames) in {}",
                    chunk + 1,
                    fmt_secs(*duration)
                );
            }
            SweepEvent::RenderLogReplay {
                scene, tile_size, ..
            } => {
                eprintln!("[sweep] replaying cached render log for {scene} ts{tile_size}");
            }
            SweepEvent::RenderLogSaved {
                scene,
                tile_size,
                bytes,
                duration,
            } => {
                eprintln!(
                    "[sweep] cached render log for {scene} ts{tile_size} ({bytes} bytes in {})",
                    fmt_secs(*duration)
                );
            }
            // Per-cell timing detail is for the run log, not the terminal.
            SweepEvent::EvalDone { .. } => {}
            SweepEvent::CellDone {
                done,
                total,
                label,
                cells_per_sec,
                elapsed,
                eta,
            } => {
                eprintln!(
                    "[sweep] {done}/{total} {label}  ({cells_per_sec:.2} cells/s, {} elapsed, {})",
                    fmt_secs(*elapsed),
                    fmt_eta(*eta),
                );
            }
            SweepEvent::Progress {
                done,
                total,
                cells_per_sec,
                eta,
                ..
            } => {
                eprintln!(
                    "[sweep] progress: {done}/{total} cells ({cells_per_sec:.2} cells/s, {})",
                    fmt_eta(*eta),
                );
            }
            SweepEvent::StoreResume { resumed, pending } => {
                eprintln!("[sweep] resuming: {resumed} cells already complete, {pending} to run");
            }
        }
    }
}

/// Swallows every event (what `quiet` installs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SweepObserver for NullObserver {
    fn on_event(&self, _event: &SweepEvent<'_>) {}
}

/// Fans every event out to each observer in order — how the CLI runs the
/// stderr lines and the `events.jsonl` stream side by side.
pub struct MultiObserver(Vec<Arc<dyn SweepObserver>>);

impl MultiObserver {
    /// An observer forwarding to every entry of `observers`.
    pub fn new(observers: Vec<Arc<dyn SweepObserver>>) -> Self {
        MultiObserver(observers)
    }
}

impl SweepObserver for MultiObserver {
    fn on_event(&self, event: &SweepEvent<'_>) {
        for o in &self.0 {
            o.on_event(event);
        }
    }
}

/// Completion timestamps kept for the windowed ETA.
const ETA_WINDOW: usize = 16;

/// Progress accounting shared by the workers of one execution.
struct Progress<'o> {
    done: AtomicUsize,
    total: usize,
    start: Instant,
    observer: &'o dyn SweepObserver,
    /// Completion instants of the last [`ETA_WINDOW`] cells.
    window: Mutex<VecDeque<Instant>>,
}

impl<'o> Progress<'o> {
    fn new(total: usize, observer: &'o dyn SweepObserver) -> Self {
        Progress {
            done: AtomicUsize::new(0),
            total,
            start: Instant::now(),
            observer,
            window: Mutex::new(VecDeque::with_capacity(ETA_WINDOW + 1)),
        }
    }

    /// Mean completion rate since the start.
    fn mean_rate(&self, done: usize) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        if secs > 0.0 {
            done as f64 / secs
        } else {
            0.0
        }
    }

    /// ETA from the rate over the completions still in the window. `None`
    /// until two completions exist (no rate yet); `Some(0)` when done.
    fn eta(&self, done: usize) -> Option<Duration> {
        let remaining = self.total.saturating_sub(done);
        if remaining == 0 {
            return Some(Duration::ZERO);
        }
        let window = self.window.lock().expect("eta window poisoned");
        let (first, last) = (window.front()?, window.back()?);
        if window.len() < 2 {
            return None;
        }
        let span = last.duration_since(*first).as_secs_f64();
        if span <= 0.0 {
            return None;
        }
        let rate = (window.len() - 1) as f64 / span;
        Some(Duration::from_secs_f64(remaining as f64 / rate))
    }

    fn cell_done(&self, label: &str) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut window = self.window.lock().expect("eta window poisoned");
            window.push_back(Instant::now());
            if window.len() > ETA_WINDOW {
                window.pop_front();
            }
        }
        self.observer.on_event(&SweepEvent::CellDone {
            done,
            total: self.total,
            label: label.into(),
            cells_per_sec: self.mean_rate(done),
            elapsed: self.start.elapsed(),
            eta: self.eta(done),
        });
    }

    /// Emits one [`SweepEvent::Progress`] heartbeat.
    fn tick(&self) {
        let done = self.done.load(Ordering::Relaxed);
        self.observer.on_event(&SweepEvent::Progress {
            done,
            total: self.total,
            elapsed: self.start.elapsed(),
            cells_per_sec: self.mean_rate(done),
            eta: self.eta(done),
        });
    }
}

/// A render key's in-memory state, shared by the key's cells: its log,
/// built once per key (rendered, or decoded from a cached `.relog`), and
/// the Stage B sections the cells have computed so far.
struct KeyState {
    log: RenderLog,
    sections: SectionTable,
    /// Whether the log was decoded from a cached artifact.
    replayed: bool,
}

impl KeyState {
    fn new(log: RenderLog, replayed: bool) -> Self {
        KeyState {
            log,
            sections: SectionTable::new(),
            replayed,
        }
    }
}

/// A render job's slot: its lazily built [`KeyState`] plus the number of
/// cells still due to evaluate it (the state is dropped with the last one).
struct GroupSlot {
    state: Mutex<Option<Arc<KeyState>>>,
    remaining: AtomicUsize,
}

/// What the workers of one execution share to run a plan grouped by
/// render key: one slot per render job, the `.relog` cache, the Stage A
/// budget, the metric handles (resolved once, so workers never touch the
/// registry lock), and the progress and commit hooks.
struct Grouped<'a> {
    render_jobs: &'a [RenderJob],
    traces: &'a HashMap<&'static str, Arc<Trace>>,
    progress: &'a Progress<'a>,
    on_done: &'a (dyn Fn(&Cell, &RunReport) + Sync),
    slots: Vec<GroupSlot>,
    log_cache: RenderLogCache,
    /// Stage A parallelism budget (the executor's worker count), divided
    /// among renders in flight: a single hot key fans its frames over every
    /// worker, while many concurrent keys parallelize across keys first.
    /// Any split is exact (stitching is chunking-invariant), so the
    /// adaptive budget never perturbs results.
    render_budget: usize,
    active_renders: AtomicUsize,
    eval_hist: Arc<Histogram>,
    store_hist: Arc<Histogram>,
    render_hist: Arc<Histogram>,
    persist_hist: Arc<Histogram>,
    replay_hist: Arc<Histogram>,
    stitch_hist: Arc<Histogram>,
    relog_replays: Arc<Counter>,
    relog_saves: Arc<Counter>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    frame_chunks: Arc<Counter>,
    compressed_bytes: Arc<Counter>,
}

impl<'a> Grouped<'a> {
    /// Sets up one slot per render job of `plan` for `exec` running on
    /// `workers` threads, and emits the execution's
    /// [`SweepEvent::GroupStart`].
    fn new(
        exec: &ThreadExecutor,
        plan: &'a SweepPlan,
        traces: &'a HashMap<&'static str, Arc<Trace>>,
        progress: &'a Progress<'a>,
        on_done: &'a (dyn Fn(&Cell, &RunReport) + Sync),
        workers: usize,
    ) -> Self {
        progress.observer.on_event(&SweepEvent::GroupStart {
            cells: progress.total,
            render_jobs: plan.render_jobs().len(),
            workers,
            shard: plan.shard_spec(),
        });
        let histogram = re_obs::metrics::histogram;
        let counter = re_obs::metrics::counter;
        Grouped {
            render_jobs: plan.render_jobs(),
            traces,
            progress,
            on_done,
            slots: plan
                .render_jobs()
                .iter()
                .map(|rj| GroupSlot {
                    state: Mutex::new(None),
                    remaining: AtomicUsize::new(rj.cells.len()),
                })
                .collect(),
            log_cache: RenderLogCache::new(exec.log_dir.clone()).with_compression(
                if exec.relog_compress {
                    Compression::Lzss
                } else {
                    Compression::None
                },
            ),
            render_budget: workers,
            active_renders: AtomicUsize::new(0),
            eval_hist: histogram(names::STAGE_EVAL),
            store_hist: histogram(names::STAGE_STORE),
            render_hist: histogram(names::STAGE_RENDER),
            persist_hist: histogram(names::STAGE_PERSIST),
            replay_hist: histogram(names::STAGE_REPLAY),
            stitch_hist: histogram(names::RENDER_STITCH_NS),
            relog_replays: counter(names::RELOG_REPLAYS),
            relog_saves: counter(names::RELOG_SAVES),
            bytes_read: counter(names::ARTIFACT_BYTES_READ),
            bytes_written: counter(names::ARTIFACT_BYTES_WRITTEN),
            frame_chunks: counter(names::RENDER_FRAME_CHUNKS),
            compressed_bytes: counter(names::RELOG_COMPRESSED_BYTES),
        }
    }

    /// Stage A for `key`, capturing the scene's trace first when the plan
    /// captured none for it. With a log directory the log is also stored
    /// in the `.relog` cache (best-effort: a failed write costs the cache
    /// entry, never the sweep).
    fn render(&self, key: &RenderKey, worker: usize) -> RenderLog {
        let observer = self.progress.observer;
        let (scene, tile_size) = (key.scene(), key.tile_size());
        observer.on_event(&SweepEvent::RenderStart {
            scene: scene.into(),
            tile_size,
            worker,
        });
        let trace = match self.traces.get(scene) {
            Some(t) => Arc::clone(t),
            // Traces are only captured for unsatisfied jobs; if a satisfied
            // job's artifact just vanished, capture its trace on the fly.
            None => Arc::new(
                capture_alias(
                    scene,
                    key.frames(),
                    re_gpu::GpuConfig {
                        width: key.gpu_config().width,
                        height: key.gpu_config().height,
                        ..re_gpu::GpuConfig::default()
                    },
                )
                .expect("workload aliases in a plan are known"),
            ),
        };
        let in_flight = self.active_renders.fetch_add(1, Ordering::AcqRel) + 1;
        let budget = (self.render_budget / in_flight).max(1);
        let sw = Stopwatch::start();
        let rendered = render_key_log_parallel(&trace, key, budget);
        self.active_renders.fetch_sub(1, Ordering::AcqRel);
        let duration = sw.elapsed();
        self.render_hist.record(duration);
        self.frame_chunks.add(rendered.chunks.len() as u64);
        self.stitch_hist.record(rendered.stitch);
        if rendered.chunks.len() > 1 {
            for t in &rendered.chunks {
                observer.on_event(&SweepEvent::RenderChunkDone {
                    scene: scene.into(),
                    tile_size,
                    worker,
                    chunk: t.chunk,
                    chunks: rendered.chunks.len(),
                    frames: t.frames,
                    duration: t.duration,
                });
            }
        }
        observer.on_event(&SweepEvent::RenderDone {
            scene: scene.into(),
            tile_size,
            worker,
            frames: key.frames(),
            duration,
        });
        let sw = Stopwatch::start();
        if let Ok(Some(path)) = self.log_cache.store(key, &rendered.log) {
            let duration = sw.elapsed();
            self.persist_hist.record(duration);
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            self.relog_saves.incr();
            self.bytes_written.add(bytes);
            if self.log_cache.compression() == Compression::Lzss {
                self.compressed_bytes.add(bytes);
            }
            observer.on_event(&SweepEvent::RenderLogSaved {
                scene: scene.into(),
                tile_size,
                bytes,
                duration,
            });
        }
        rendered.log
    }

    /// Decodes the cached artifact at `path` into `key`'s state and
    /// announces the replay; the decode time comes back alongside. This
    /// decode is where the artifact's frame CRCs are checked. `None` when
    /// the file is gone, is not a log of `key` ([`RenderLogCache::open`])
    /// or fails to decode: the caller renders the key instead, which
    /// overwrites the artifact.
    fn load(&self, key: &RenderKey, worker: usize, path: &Path) -> Option<(KeyState, Duration)> {
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        let sw = Stopwatch::start();
        // Decode on a short-lived thread. Each thread allocates from an
        // allocator arena, and an exited thread's arena is handed to the
        // next new thread, so every key's log reuses one arena instead of
        // growing whichever worker's arena the key's first cell ran on. In
        // a long-lived process running many sweeps this keeps resident
        // memory at the level the cold renders already reach.
        let log = std::thread::scope(|s| {
            s.spawn(|| RenderLogCache::open(key, path).and_then(RelogReader::into_log))
                .join()
                .expect("decode thread")
        })
        .ok()?;
        let decode = sw.elapsed();
        self.replay_hist.record(decode);
        self.relog_replays.incr();
        self.bytes_read.add(bytes);
        self.progress
            .observer
            .on_event(&SweepEvent::RenderLogReplay {
                scene: key.scene().into(),
                tile_size: key.tile_size(),
                worker,
            });
        Some((KeyState::new(log, true), decode))
    }

    /// Builds render job `index`'s state: a satisfied job decodes its
    /// cached artifact, every other job renders. Returns the state and the
    /// time to charge to the building cell's Stage B.
    fn build(&self, index: usize, worker: usize) -> (KeyState, Duration) {
        let render_job = &self.render_jobs[index];
        let key = &render_job.key;
        // The plan checked only the artifact's header. A failed load means
        // a corrupt frame or an artifact that changed underneath the plan:
        // render the key like any other job.
        if let Some(loaded) = render_job
            .cached_log
            .as_deref()
            .and_then(|path| self.load(key, worker, path))
        {
            return loaded;
        }
        (
            KeyState::new(self.render(key, worker), false),
            Duration::ZERO,
        )
    }

    /// Runs one cell. The first cell of a render job builds the job's
    /// state — under the slot's lock, so once per key. Every cell then
    /// evaluates through the key's section table, frees the state if it
    /// is the job's last, commits and reports.
    fn cell(&self, worker: usize, job: EvalJob) -> CellOutcome {
        let slot = &self.slots[job.render_job];
        let (state, load) = {
            let mut guard = slot.state.lock().expect("group slot poisoned");
            match guard.as_ref() {
                Some(state) => (Arc::clone(state), Duration::ZERO),
                None => {
                    let (state, load) = self.build(job.render_job, worker);
                    let state = Arc::new(state);
                    *guard = Some(Arc::clone(&state));
                    (state, load)
                }
            }
        };
        let opts = job.cell.point.sim_options();
        let shared = re_core::evaluate_shared(&state.log, &opts, &state.sections);
        self.eval_hist.record(shared.busy);
        let replayed = state.replayed;
        drop(state);
        // Last cell of the job: free the log and its sections now instead
        // of keeping every job's state alive until the sweep ends.
        if slot.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            *slot.state.lock().expect("group slot poisoned") = None;
        }
        let sw = Stopwatch::start();
        (self.on_done)(&job.cell, &shared.report);
        let store = sw.elapsed();
        self.store_hist.record(store);
        self.progress.observer.on_event(&SweepEvent::EvalDone {
            cell: job.cell.id,
            scene: job.cell.scene().into(),
            worker,
            replayed,
            eval: load + shared.busy,
            store,
        });
        self.progress.cell_done(&job.cell.label());
        CellOutcome {
            cell: job.cell,
            report: shared.report,
        }
    }
}

/// The sweep executor: std threads over the work-stealing [`pool`].
///
/// Eval jobs are seeded round-robin, in cell-id order, over the
/// work-stealing [`pool`]. Cell ids are contiguous per render job, so
/// with one cell per job neighbouring workers start on different jobs and
/// Stage A parallelizes across keys, but with several cells per job the
/// workers start on the *same* job: cells 0 and 1 of the first job land
/// on workers 0 and 1. Within a job, the first worker builds the key's
/// log (holding only that job's lock) while the others wait for it, and
/// every cell evaluates it, splitting the key's Stage B sections through
/// its [`SectionTable`] (see [`re_core::share`]). The log and its
/// sections are freed as the job's last cell finishes.
///
/// Render jobs a cached `.relog` satisfies ([`RenderJob::cached_log`])
/// never run Stage A at all: their first cell decodes the artifact into
/// memory once for all of them, so warm and cold jobs take one evaluation
/// path and hold at most one log per render key in flight. With
/// [`log_dir`](Self::log_dir) set, every job that *does* render persists
/// its log on completion, so the next execution of the same keys is
/// raster-free; that includes a satisfied job whose artifact vanished
/// after the plan was annotated, so the cache repairs itself.
///
/// Stage A's parallelism budget is the worker count, divided among the
/// renders in flight ([`render_key_log_parallel`]): a lone key spreads its
/// frames and tiles over every worker, many keys split the workers.
///
/// [`RenderJob::cached_log`]: crate::plan::RenderJob::cached_log
#[derive(Debug, Clone)]
pub struct ThreadExecutor {
    /// Worker threads; 0 means [`pool::default_workers`].
    pub workers: usize,
    /// Directory to persist freshly rendered `.relog` artifacts into
    /// (`None` = don't write). Writes are best-effort: a full disk costs
    /// the cache entry, never the sweep.
    pub log_dir: Option<PathBuf>,
    /// Persist `.relog` artifacts with LZSS-compressed frames instead of
    /// stored ones. Both settings write the one `.relog` framing, so
    /// replay reads either.
    pub relog_compress: bool,
    /// Interval of the [`SweepEvent::Progress`] heartbeat (`None` =
    /// disabled). A watchdog thread emits the event even while every
    /// worker is busy, plus one final tick as the execution ends.
    pub heartbeat: Option<Duration>,
}

impl Default for ThreadExecutor {
    fn default() -> Self {
        ThreadExecutor {
            workers: 0,
            log_dir: None,
            relog_compress: false,
            heartbeat: Some(Duration::from_secs(10)),
        }
    }
}

impl ThreadExecutor {
    /// Executes every job of `plan` against already-captured traces and
    /// returns one outcome per eval job, in cell-id order regardless of
    /// scheduling. `on_done` is invoked from worker context as each cell
    /// completes (the store's commit hook).
    pub fn execute(
        &self,
        plan: &SweepPlan,
        traces: &HashMap<&'static str, Arc<Trace>>,
        observer: &dyn SweepObserver,
        on_done: &(dyn Fn(&Cell, &RunReport) + Sync),
    ) -> Vec<CellOutcome> {
        let jobs = plan.eval_jobs().to_vec();
        let workers = if self.workers == 0 {
            pool::default_workers()
        } else {
            self.workers
        }
        .clamp(1, jobs.len().max(1));
        let progress = Progress::new(jobs.len(), observer);
        let grouped = Grouped::new(self, plan, traces, &progress, on_done, workers);
        self.with_heartbeat(&progress, || {
            pool::run_indexed(jobs, workers, |worker, _i, job| grouped.cell(worker, job))
        })
    }

    /// Runs `body` with the heartbeat watchdog alive (when enabled and
    /// there is work): ticks every interval, plus a final tick after
    /// `body` returns so every execution's event stream ends with a
    /// `done == total` progress record.
    fn with_heartbeat<R>(&self, progress: &Progress<'_>, body: impl FnOnce() -> R) -> R {
        let Some(interval) = self.heartbeat else {
            return body();
        };
        if progress.total == 0 {
            return body();
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let ticker = s.spawn(|| {
                // Poll well under the interval so shutdown is prompt.
                let poll = interval
                    .max(Duration::from_millis(1))
                    .min(Duration::from_millis(25));
                let mut since = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(poll);
                    if since.elapsed() >= interval {
                        progress.tick();
                        since = Instant::now();
                    }
                }
                progress.tick();
            });
            let out = body();
            stop.store(true, Ordering::Relaxed);
            let _ = ticker.join();
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis;
    use crate::engine::capture_plan_traces;
    use crate::grid::ExperimentGrid;
    use crate::SweepOptions;

    fn tiny_grid() -> ExperimentGrid {
        let mut g = ExperimentGrid::default()
            .with_scenes(&["ccs"])
            .with_axis(axis::SIG_BITS, vec![16, 32]);
        g.frames = 2;
        g.width = 128;
        g.height = 64;
        g
    }

    /// Collects events (thread-safely) for assertions.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<String>>);

    impl SweepObserver for Recorder {
        fn on_event(&self, event: &SweepEvent<'_>) {
            let tag = match event {
                SweepEvent::CaptureStart { scene, .. } => format!("capture:{scene}"),
                SweepEvent::CaptureDone { scene, .. } => format!("captured:{scene}"),
                SweepEvent::GroupStart {
                    cells,
                    render_jobs,
                    workers,
                    shard,
                } => {
                    format!(
                        "group:{cells}/{render_jobs}:w{workers}{}",
                        match shard {
                            Some(s) => format!(":{s}"),
                            None => String::new(),
                        }
                    )
                }
                SweepEvent::RenderStart { scene, .. } => format!("render:{scene}"),
                SweepEvent::RenderDone { scene, .. } => format!("rendered:{scene}"),
                SweepEvent::RenderChunkDone {
                    scene,
                    chunk,
                    chunks,
                    ..
                } => format!("chunk:{scene}:{chunk}/{chunks}"),
                SweepEvent::RenderLogReplay { scene, .. } => format!("replay:{scene}"),
                SweepEvent::RenderLogSaved { scene, .. } => format!("logsaved:{scene}"),
                SweepEvent::EvalDone { cell, replayed, .. } => {
                    format!("eval:{cell}:{replayed}")
                }
                SweepEvent::CellDone { done, total, .. } => format!("done:{done}/{total}"),
                SweepEvent::Progress { done, total, .. } => format!("progress:{done}/{total}"),
                SweepEvent::StoreResume { resumed, pending } => {
                    format!("resume:{resumed}+{pending}")
                }
            };
            self.0.lock().unwrap().push(tag);
        }
    }

    #[test]
    fn thread_executor_runs_a_plan_and_reports_events() {
        let grid = tiny_grid();
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_plan_traces(&plan, &opts).expect("capture");
        let recorder = Recorder::default();
        let count = AtomicUsize::new(0);
        let exec = ThreadExecutor {
            workers: 2,
            ..ThreadExecutor::default()
        };
        let outcomes = exec.execute(&plan, &traces, &recorder, &|_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(outcomes.len(), 2);
        assert_eq!(count.load(Ordering::Relaxed), 2);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.cell.id, i);
        }
        let events = recorder.0.into_inner().unwrap();
        assert!(events.contains(&"group:2/1:w2".to_string()), "{events:?}");
        // One render (one key), two cell completions, two eval records.
        assert_eq!(events.iter().filter(|e| *e == "render:ccs").count(), 1);
        assert_eq!(events.iter().filter(|e| *e == "rendered:ccs").count(), 1);
        assert!(events.contains(&"done:2/2".to_string()), "{events:?}");
        assert!(events.contains(&"eval:0:false".to_string()), "{events:?}");
        assert!(events.contains(&"eval:1:false".to_string()), "{events:?}");
        // The final heartbeat tick always fires, with everything done.
        assert!(events.contains(&"progress:2/2".to_string()), "{events:?}");
    }

    #[test]
    fn heartbeat_interval_ticks_during_execution() {
        let grid = tiny_grid();
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_plan_traces(&plan, &opts).expect("capture");
        let recorder = Recorder::default();
        let exec = ThreadExecutor {
            workers: 1,
            heartbeat: Some(Duration::from_millis(1)),
            ..ThreadExecutor::default()
        };
        exec.execute(&plan, &traces, &recorder, &|_, _| {});
        let events = recorder.0.into_inner().unwrap();
        let ticks = events.iter().filter(|e| e.starts_with("progress:")).count();
        assert!(ticks >= 1, "{events:?}");
    }

    #[test]
    fn disabled_heartbeat_emits_no_progress() {
        let grid = tiny_grid();
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_plan_traces(&plan, &opts).expect("capture");
        let recorder = Recorder::default();
        let exec = ThreadExecutor {
            workers: 2,
            heartbeat: None,
            ..ThreadExecutor::default()
        };
        exec.execute(&plan, &traces, &recorder, &|_, _| {});
        let events = recorder.0.into_inner().unwrap();
        assert!(
            !events.iter().any(|e| e.starts_with("progress:")),
            "{events:?}"
        );
    }

    #[test]
    fn frame_parallel_stage_a_emits_chunk_events_and_matches_serial() {
        // One render key, four cells: four workers give the key's render a
        // budget of four.
        let mut grid = tiny_grid().with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
        grid.frames = 6;
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_plan_traces(&plan, &opts).expect("capture");
        let run = |workers| {
            let recorder = Recorder::default();
            let outcomes = ThreadExecutor {
                workers,
                ..ThreadExecutor::default()
            }
            .execute(&plan, &traces, &recorder, &|_, _| {});
            (outcomes, recorder.0.into_inner().unwrap())
        };
        let (serial, serial_events) = run(1);
        let (parallel, parallel_events) = run(4);
        // A one-worker render is one chunk and emits no chunk events; the
        // 4-way render splits its single key's 6 frames into 4 chunks,
        // announced before RenderDone.
        assert!(
            !serial_events.iter().any(|e| e.starts_with("chunk:")),
            "{serial_events:?}"
        );
        for chunk in 0..4 {
            assert!(
                parallel_events.contains(&format!("chunk:ccs:{chunk}/4")),
                "{parallel_events:?}"
            );
        }
        // Outcomes are bit-identical regardless of the render budget.
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.report, b.report, "cell {}", a.cell.id);
        }
    }

    #[test]
    fn grouped_and_per_cell_executors_agree() {
        let grid = tiny_grid();
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_plan_traces(&plan, &opts).expect("capture");
        let grouped = ThreadExecutor {
            workers: 2,
            ..ThreadExecutor::default()
        }
        .execute(&plan, &traces, &NullObserver, &|_, _| {});
        assert_eq!(grouped.len(), plan.cell_count());
        for (a, job) in grouped.iter().zip(plan.eval_jobs()) {
            assert_eq!(a.cell, job.cell);
            let per_cell = crate::run_cell(&traces[job.cell.scene()], &job.cell);
            assert_eq!(a.report, per_cell);
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("re_exec_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn log_dir_executions_agree_cold_warm_and_vanished() {
        let grid = tiny_grid();
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_plan_traces(&plan, &opts).expect("capture");
        let reference = ThreadExecutor {
            workers: 2,
            ..ThreadExecutor::default()
        }
        .execute(&plan, &traces, &NullObserver, &|_, _| {});

        // Cold: no artifacts yet, the executor renders and persists.
        let dir = tmp_dir("log_dir");
        let exec = ThreadExecutor {
            workers: 2,
            log_dir: Some(dir.clone()),
            heartbeat: None,
            ..ThreadExecutor::default()
        };
        let recorder = Recorder::default();
        let cold = exec.execute(&plan, &traces, &recorder, &|_, _| {});
        assert_eq!(cold.len(), reference.len());
        for (a, b) in cold.iter().zip(&reference) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.report, b.report, "cold cell {}", a.cell.id);
        }
        let events = recorder.0.into_inner().unwrap();
        assert_eq!(events.iter().filter(|e| *e == "render:ccs").count(), 1);
        assert!(events.contains(&"logsaved:ccs".to_string()), "{events:?}");

        // Warm: annotate the plan against the now-populated cache — every
        // cell replays the decoded artifact, nothing renders.
        let mut warm_plan = plan.clone();
        warm_plan.attach_cached_logs(&crate::artifacts::RenderLogCache::new(Some(dir.clone())));
        let recorder = Recorder::default();
        let warm = exec.execute(&warm_plan, &traces, &recorder, &|_, _| {});
        assert_eq!(warm.len(), reference.len());
        for (a, b) in warm.iter().zip(&reference) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.report, b.report, "warm cell {}", a.cell.id);
        }
        let events = recorder.0.into_inner().unwrap();
        assert!(
            !events.iter().any(|e| e.starts_with("render:")),
            "warm run must not render: {events:?}"
        );
        assert!(events.contains(&"eval:0:true".to_string()), "{events:?}");
        assert!(events.contains(&"eval:1:true".to_string()), "{events:?}");

        // A vanished artifact falls back to rendering, same results, and
        // the re-render repairs the cache.
        for entry in std::fs::read_dir(&dir).expect("ls") {
            let _ = std::fs::remove_file(entry.expect("entry").path());
        }
        let recorder = Recorder::default();
        let refetched = exec.execute(&warm_plan, &traces, &recorder, &|_, _| {});
        for (a, b) in refetched.iter().zip(&reference) {
            assert_eq!(a.report, b.report, "refetch cell {}", a.cell.id);
        }
        let events = recorder.0.into_inner().unwrap();
        assert_eq!(events.iter().filter(|e| *e == "render:ccs").count(), 1);
        assert!(events.contains(&"logsaved:ccs".to_string()), "{events:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn another_scenes_artifact_is_never_replayed() {
        let grid = tiny_grid().with_scenes(&["ccs", "tib"]);
        let plan = SweepPlan::compile(&grid);
        let opts = SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        };
        let traces = capture_plan_traces(&plan, &opts).expect("capture");
        let dir = tmp_dir("foreign");
        let exec = ThreadExecutor {
            workers: 2,
            log_dir: Some(dir.clone()),
            heartbeat: None,
            ..ThreadExecutor::default()
        };
        let csv_of = |outcomes: &[CellOutcome]| {
            let records: Vec<_> = outcomes
                .iter()
                .map(|o| crate::CellRecord::from_run(&o.cell, &o.report))
                .collect();
            crate::render_csv(&records)
        };
        let cold = csv_of(&exec.execute(&plan, &traces, &NullObserver, &|_, _| {}));

        // Annotate against the warm cache, then park tib's artifact (same
        // config and frame count) under ccs's file name.
        let cache = crate::artifacts::RenderLogCache::new(Some(dir.clone()));
        let mut warm_plan = plan.clone();
        assert_eq!(warm_plan.attach_cached_logs(&cache), 2);
        let file = |scene| {
            let job = plan.render_jobs().iter().find(|j| j.key.scene() == scene);
            dir.join(crate::artifacts::RenderLogCache::file_key(
                &job.expect("job").key,
            ))
        };
        std::fs::rename(file("tib"), file("ccs")).expect("rename");

        let recorder = Recorder::default();
        let outcomes = exec.execute(&warm_plan, &traces, &recorder, &|_, _| {});
        assert_eq!(csv_of(&outcomes), cold, "tib's log replayed into ccs cells");
        let events = recorder.0.into_inner().unwrap();
        assert_eq!(events.iter().filter(|e| *e == "render:ccs").count(), 1);
        assert!(!events.contains(&"replay:ccs".to_string()), "{events:?}");
        // The re-render overwrote the foreign artifact with ccs's own.
        let mut rewarmed = plan.clone();
        assert_eq!(rewarmed.attach_cached_logs(&cache), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_observer_fans_out() {
        let a = Arc::new(Recorder::default());
        let b = Arc::new(Recorder::default());
        let multi = MultiObserver::new(vec![
            Arc::clone(&a) as Arc<dyn SweepObserver>,
            Arc::clone(&b) as Arc<dyn SweepObserver>,
        ]);
        multi.on_event(&SweepEvent::StoreResume {
            resumed: 1,
            pending: 2,
        });
        assert_eq!(*a.0.lock().unwrap(), vec!["resume:1+2".to_string()]);
        assert_eq!(*b.0.lock().unwrap(), vec!["resume:1+2".to_string()]);
    }
}
