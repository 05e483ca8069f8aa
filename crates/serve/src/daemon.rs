//! The `sweep serve` daemon: accept grid submissions on a local TCP
//! socket, queue them as jobs, and run each on the sweep executor
//! against one shared artifact cache.
//!
//! One daemon process owns one root directory:
//!
//! ```text
//! <root>/cache/          shared .retrace / .relog artifacts (all jobs)
//! <root>/jobs/job-N/     one result store per submission (+ events.jsonl)
//! <root>/metrics.json    registry snapshot, flushed on graceful exit
//! ```
//!
//! Deduplication happens at two layers, so a re-submitted grid costs
//! only Stage B: render keys covered by a cached `.relog` are satisfied
//! at plan time (the executor decodes each one once for all its cells),
//! and within a plan every other key renders once, shares its log and
//! Stage B sections across its cells, and persists for the next
//! submission.
//!
//! Jobs run strictly one at a time, in submission order. That keeps the
//! per-job `gpu.raster_invocations` delta exact (the counter is
//! process-global) — which is what lets `status` report "this submission
//! rasterized nothing" and lets tests pin warm-cache dedup to zero. It
//! also means no two executions ever render at the same time, so a
//! key one job persisted is a plan-time cache hit for every later job.
//!
//! Shutdown (the `shutdown` verb, SIGINT or SIGTERM) is a graceful
//! drain: no new submissions are accepted, every already-accepted job
//! runs to completion, stores and run logs are flushed (each job's
//! `events.jsonl` gets its `run_end` trailer), and the metrics snapshot
//! is written before the process exits.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use re_obs::names;
use re_sweep::json::Json;
use re_sweep::{
    event_json, ExperimentGrid, JsonlObserver, MultiObserver, RenderLogCache, ShardSpec,
    SweepEvent, SweepObserver, SweepOptions, SweepPlan, EVENTS_FILE,
};

use crate::proto::{read_frame, write_frame, Request, Response, PROTO_VERSION};

/// How a daemon runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to listen on (e.g. `127.0.0.1:7333`; port 0 picks one).
    pub addr: String,
    /// Root directory for the shared cache and per-job stores.
    pub root: PathBuf,
    /// Worker threads per job (0 = all hardware threads).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7333".to_string(),
            root: PathBuf::from("serve-root"),
            workers: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed(String),
}

impl JobStatus {
    fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// A job's event stream, buffered for `watch` subscribers. Watchers read
/// by index, so any number can attach at any time and each sees every
/// event from the start.
struct JobEvents {
    log: Mutex<(Vec<Json>, bool)>,
    grew: Condvar,
    start: Instant,
}

impl JobEvents {
    fn new() -> Arc<Self> {
        Arc::new(JobEvents {
            log: Mutex::new((Vec::new(), false)),
            grew: Condvar::new(),
            start: Instant::now(),
        })
    }

    fn close(&self) {
        let mut log = self.log.lock().expect("job events poisoned");
        log.1 = true;
        self.grew.notify_all();
    }

    /// Events from index `from` on, plus whether the stream has ended.
    /// Blocks until there is something new (or the end).
    fn wait_from(&self, from: usize) -> (Vec<Json>, bool) {
        let mut log = self.log.lock().expect("job events poisoned");
        loop {
            if log.0.len() > from || log.1 {
                return (log.0[from.min(log.0.len())..].to_vec(), log.1);
            }
            log = self.grew.wait(log).expect("job events poisoned");
        }
    }
}

impl SweepObserver for JobEvents {
    fn on_event(&self, event: &SweepEvent<'_>) {
        let t_ms = self.start.elapsed().as_millis() as u64;
        let mut log = self.log.lock().expect("job events poisoned");
        log.0.push(event_json(event, t_ms));
        self.grew.notify_all();
    }
}

struct Job {
    grid: ExperimentGrid,
    /// Shard of the grid this job runs (`None` = the whole grid).
    shard: Option<ShardSpec>,
    store: PathBuf,
    status: JobStatus,
    /// Raster invocations this job performed (exact: jobs are serial).
    rasters: Option<u64>,
    cells: usize,
    render_jobs: usize,
    /// Render jobs a cached `.relog` satisfied at submission time.
    cached_jobs: usize,
    events: Arc<JobEvents>,
}

struct DaemonState {
    config: ServeConfig,
    jobs: Mutex<Vec<Job>>,
    queue: Mutex<VecDeque<usize>>,
    queue_grew: Condvar,
    draining: AtomicBool,
    started: Instant,
}

/// A bound daemon: the listener plus all shared state. [`Daemon::bind`]
/// then [`Daemon::run`]; `run` returns after a graceful drain.
pub struct Daemon {
    listener: TcpListener,
    state: Arc<DaemonState>,
}

impl Daemon {
    /// Binds the listen socket and prepares the root directory.
    ///
    /// # Errors
    /// Bind and directory-creation failures.
    pub fn bind(config: ServeConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(config.root.join("cache"))?;
        std::fs::create_dir_all(config.root.join("jobs"))?;
        // Register traces already imported under <root>/imports so a
        // submission may name `trace:<alias>` scenes from the first
        // connection on.
        let imports = config.root.join(re_sweep::importer::IMPORTS_DIR);
        for (path, why) in re_sweep::importer::register_dir(&imports)?.skipped {
            eprintln!(
                "[sweep serve] warning: skipping import {}: {why}",
                path.display()
            );
        }
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Daemon {
            listener,
            state: Arc::new(DaemonState {
                config,
                jobs: Mutex::new(Vec::new()),
                queue: Mutex::new(VecDeque::new()),
                queue_grew: Condvar::new(),
                draining: AtomicBool::new(false),
                started: Instant::now(),
            }),
        })
    }

    /// The address actually bound (resolves port 0).
    ///
    /// # Errors
    /// Socket introspection failures.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a graceful shutdown (the `shutdown` verb, or `stop`
    /// going true — the signal handler's flag). Drains the job queue,
    /// flushes every store and run log, writes `<root>/metrics.json`,
    /// then returns.
    ///
    /// # Errors
    /// Listener failures. Per-connection and per-job errors are reported
    /// to the affected client, never fatal to the daemon.
    pub fn run(self, stop: Option<&AtomicBool>) -> io::Result<()> {
        let state = Arc::clone(&self.state);
        let runner = std::thread::spawn(move || run_jobs(&state));

        self.listener.set_nonblocking(true)?;
        loop {
            if let Some(stop) = stop {
                if stop.load(Ordering::Relaxed) {
                    self.state.begin_drain();
                }
            }
            if self.state.draining.load(Ordering::Acquire) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    re_obs::metrics::counter(names::SERVE_CONNECTIONS).incr();
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || {
                        // A dropped client mid-conversation is routine.
                        let _ = handle_connection(&state, stream);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }

        runner.join().expect("job runner panicked");
        let mut json = re_obs::snapshot().to_json();
        json.push('\n');
        std::fs::write(self.state.config.root.join("metrics.json"), json)?;
        Ok(())
    }
}

impl DaemonState {
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.queue_grew.notify_all();
    }

    fn queue_depth(&self) -> usize {
        self.queue.lock().expect("queue poisoned").len()
    }
}

/// The job runner: pops submissions in order and executes them serially
/// (see the module docs for why serial). Exits once draining *and* the
/// queue is empty.
fn run_jobs(state: &Arc<DaemonState>) {
    loop {
        let index = {
            let mut queue = state.queue.lock().expect("queue poisoned");
            loop {
                if let Some(i) = queue.pop_front() {
                    break i;
                }
                if state.draining.load(Ordering::Acquire) {
                    return;
                }
                queue = state.queue_grew.wait(queue).expect("queue poisoned");
            }
        };
        run_one_job(state, index);
    }
}

fn run_one_job(state: &Arc<DaemonState>, index: usize) {
    let (grid, shard, store, events) = {
        let mut jobs = state.jobs.lock().expect("jobs poisoned");
        let job = &mut jobs[index];
        job.status = JobStatus::Running;
        (
            job.grid.clone(),
            job.shard,
            job.store.clone(),
            Arc::clone(&job.events),
        )
    };
    let cache = state.config.root.join("cache");

    let mut observers: Vec<Arc<dyn SweepObserver>> = vec![Arc::clone(&events) as _];
    let jsonl = match JsonlObserver::append(store.join(EVENTS_FILE), shard) {
        Ok(o) => {
            let o = Arc::new(o);
            observers.push(Arc::clone(&o) as _);
            Some(o)
        }
        // Losing the run log must not lose the job.
        Err(_) => None,
    };
    let opts = SweepOptions {
        workers: state.config.workers,
        trace_dir: Some(cache.clone()),
        log_dir: Some(cache),
        quiet: true,
        heartbeat: None,
        observer: Some(Arc::new(MultiObserver::new(observers))),
        ..SweepOptions::default()
    };

    let before = re_gpu::raster_invocations();
    let plan = SweepPlan::compile(&grid);
    // `submit` already validated the shard, so a failure here (the spec
    // was valid then) can only mean internal inconsistency — surface it
    // as a failed job rather than panicking the runner.
    let result = match shard {
        Some(s) => plan
            .shard(s.index, s.count)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e)),
        None => Ok(plan),
    }
    .and_then(|plan| re_sweep::run_plan_with_store(&plan, &opts, &store));
    let rasters = re_gpu::raster_invocations() - before;

    let status = match result {
        Ok(_) => JobStatus::Done,
        Err(e) => JobStatus::Failed(e.to_string()),
    };
    if let Some(jsonl) = jsonl {
        let _ = jsonl.finish_with_rasters(
            if status == JobStatus::Done {
                "complete"
            } else {
                "error"
            },
            Some(rasters),
        );
    }
    {
        let mut jobs = state.jobs.lock().expect("jobs poisoned");
        let job = &mut jobs[index];
        job.status = status;
        job.rasters = Some(rasters);
    }
    events.close();
    re_obs::metrics::counter(names::SERVE_JOBS_DONE).incr();
}

fn handle_connection(state: &Arc<DaemonState>, stream: TcpStream) -> io::Result<()> {
    // Pick up traces imported since startup before parsing any grid this
    // client submits (already-registered aliases are a fast no-op scan).
    let imports = state.config.root.join(re_sweep::importer::IMPORTS_DIR);
    let _ = re_sweep::importer::register_dir(&imports);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let line = match read_frame(&mut reader) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized frame: answer, then drop the connection —
                // the stream is no longer frame-aligned.
                re_obs::metrics::counter(names::SERVE_BAD_FRAMES).incr();
                let _ = write_frame(&mut writer, &Response::Err(e.to_string()).to_json());
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse_line(&line) {
            Ok(r) => r,
            Err(e) => {
                re_obs::metrics::counter(names::SERVE_BAD_FRAMES).incr();
                write_frame(&mut writer, &Response::Err(e).to_json())?;
                continue;
            }
        };
        let shutdown = matches!(request, Request::Shutdown);
        if let Request::Watch { job } = request {
            stream_watch(state, &mut writer, job)?;
            continue;
        }
        if let Request::Cells { job } = request {
            stream_cells(state, &mut writer, job)?;
            continue;
        }
        let response = respond(state, &request);
        write_frame(&mut writer, &response.to_json())?;
        if shutdown {
            return Ok(());
        }
    }
}

/// Streams a job's buffered events (one frame each), then `done:true`.
fn stream_watch(state: &Arc<DaemonState>, writer: &mut impl io::Write, job: u64) -> io::Result<()> {
    let events = {
        let jobs = state.jobs.lock().expect("jobs poisoned");
        match job_index(&jobs, job) {
            Ok(i) => Arc::clone(&jobs[i].events),
            Err(e) => {
                return write_frame(writer, &Response::Err(e).to_json());
            }
        }
    };
    let mut from = 0;
    loop {
        let (batch, done) = events.wait_from(from);
        from += batch.len();
        for event in batch {
            write_frame(
                writer,
                &Response::Ok(vec![("event".to_string(), event)]).to_json(),
            )?;
        }
        if done {
            return write_frame(
                writer,
                &Response::Ok(vec![("done".to_string(), Json::Bool(true))]).to_json(),
            );
        }
    }
}

/// Streams a completed job's cell records — one `{"ok":true,"record":
/// {...}}` frame per record, in cell-id order, then `done:true`. Each
/// record is one store `cell_*.json` object, so every frame stays far
/// under `MAX_LINE` no matter how large the grid is.
fn stream_cells(state: &Arc<DaemonState>, writer: &mut impl io::Write, job: u64) -> io::Result<()> {
    let store = {
        let jobs = state.jobs.lock().expect("jobs poisoned");
        match job_index(&jobs, job) {
            Err(e) => return write_frame(writer, &Response::Err(e).to_json()),
            Ok(i) => match &jobs[i].status {
                JobStatus::Done => jobs[i].store.clone(),
                other => {
                    return write_frame(
                        writer,
                        &Response::Err(format!(
                            "job {job} is {} — wait for it to complete (status/watch)",
                            other.name()
                        ))
                        .to_json(),
                    )
                }
            },
        }
    };
    let records = match re_sweep::read_records(&store) {
        Ok(r) => r,
        Err(e) => return write_frame(writer, &Response::Err(e.to_string()).to_json()),
    };
    for record in &records {
        write_frame(
            writer,
            &Response::Ok(vec![("record".to_string(), record.to_json())]).to_json(),
        )?;
    }
    write_frame(
        writer,
        &Response::Ok(vec![("done".to_string(), Json::Bool(true))]).to_json(),
    )
}

fn job_index(jobs: &[Job], job: u64) -> Result<usize, String> {
    let index = (job as usize)
        .checked_sub(1)
        .filter(|&i| i < jobs.len())
        .ok_or_else(|| format!("no such job {job} (daemon has {})", jobs.len()))?;
    Ok(index)
}

fn respond(state: &Arc<DaemonState>, request: &Request) -> Response {
    match request {
        Request::Ping => Response::Ok(vec![
            ("proto".to_string(), Json::Int(PROTO_VERSION as i64)),
            (
                "uptime_ms".to_string(),
                Json::Int(state.started.elapsed().as_millis() as i64),
            ),
            (
                "queue_depth".to_string(),
                Json::Int(state.queue_depth() as i64),
            ),
        ]),
        Request::Submit { grid, shard } => submit(state, grid, *shard),
        Request::Status { job } => {
            let jobs = state.jobs.lock().expect("jobs poisoned");
            match job_index(&jobs, *job) {
                Err(e) => Response::Err(e),
                Ok(i) => {
                    let j = &jobs[i];
                    let mut fields = vec![
                        ("job".to_string(), Json::Int(*job as i64)),
                        ("state".to_string(), Json::Str(j.status.name().into())),
                        ("cells".to_string(), Json::Int(j.cells as i64)),
                        ("done".to_string(), Json::Int(cells_done(&j.events) as i64)),
                        ("render_jobs".to_string(), Json::Int(j.render_jobs as i64)),
                        ("cached_jobs".to_string(), Json::Int(j.cached_jobs as i64)),
                        (
                            "store".to_string(),
                            Json::Str(j.store.display().to_string()),
                        ),
                    ];
                    if let Some(s) = j.shard {
                        fields.push(("shard".to_string(), Json::Str(s.to_string())));
                    }
                    if let Some(r) = j.rasters {
                        fields.push(("rasters".to_string(), Json::Int(r as i64)));
                    }
                    if let JobStatus::Failed(e) = &j.status {
                        fields.push(("error".to_string(), Json::Str(e.clone())));
                    }
                    Response::Ok(fields)
                }
            }
        }
        Request::Report { job } => with_done_job(state, *job, |j| {
            let records = re_sweep::read_records(&j.store).map_err(|e| e.to_string())?;
            Ok(vec![(
                "report".to_string(),
                Json::Str(re_sweep::render_report(&records)),
            )])
        }),
        Request::Csv { job } => with_done_job(state, *job, |j| {
            let csv =
                std::fs::read_to_string(j.store.join("results.csv")).map_err(|e| e.to_string())?;
            Ok(vec![("csv".to_string(), Json::Str(csv))])
        }),
        Request::Metrics => match Json::parse(&re_obs::snapshot().to_json()) {
            Ok(snapshot) => Response::Ok(vec![
                ("metrics".to_string(), snapshot),
                (
                    "queue_depth".to_string(),
                    Json::Int(state.queue_depth() as i64),
                ),
                (
                    "uptime_ms".to_string(),
                    Json::Int(state.started.elapsed().as_millis() as i64),
                ),
            ]),
            Err(e) => Response::Err(format!("metrics snapshot: {e}")),
        },
        Request::Shutdown => {
            state.begin_drain();
            Response::Ok(vec![("draining".to_string(), Json::Bool(true))])
        }
        // Watch and cells are streamed by the connection handler, never
        // here.
        Request::Watch { .. } => Response::Err("internal: watch must stream".to_string()),
        Request::Cells { .. } => Response::Err("internal: cells must stream".to_string()),
    }
}

/// Cells this job has committed so far, read off its buffered event
/// stream: the store-resume base (cells found already complete) plus the
/// latest per-segment completion count (`cell_done`/`progress` carry a
/// running `done` that excludes resumed cells).
fn cells_done(events: &JobEvents) -> usize {
    let log = events.log.lock().expect("job events poisoned");
    let mut resumed = 0;
    let mut done = 0;
    for event in &log.0 {
        match event.get("type").and_then(Json::as_str) {
            Some("store_resume") => {
                resumed = event.get("resumed").and_then(Json::as_u64).unwrap_or(0) as usize;
            }
            Some("cell_done" | "progress") => {
                done = event.get("done").and_then(Json::as_u64).unwrap_or(0) as usize;
            }
            _ => {}
        }
    }
    resumed + done
}

/// Runs `body` on a job that must have completed successfully.
fn with_done_job(
    state: &Arc<DaemonState>,
    job: u64,
    body: impl FnOnce(&Job) -> Result<Vec<(String, Json)>, String>,
) -> Response {
    let jobs = state.jobs.lock().expect("jobs poisoned");
    match job_index(&jobs, job) {
        Err(e) => Response::Err(e),
        Ok(i) => match &jobs[i].status {
            JobStatus::Done => match body(&jobs[i]) {
                Ok(fields) => Response::Ok(fields),
                Err(e) => Response::Err(e),
            },
            other => Response::Err(format!(
                "job {job} is {} — wait for it to complete (status/watch)",
                other.name()
            )),
        },
    }
}

fn submit(state: &Arc<DaemonState>, grid: &ExperimentGrid, shard: Option<ShardSpec>) -> Response {
    if state.draining.load(Ordering::Acquire) {
        return Response::Err("daemon is draining, not accepting submissions".to_string());
    }
    // Compile now so a bad grid (or shard spec) fails the submitter, not
    // the queue, and so the response can say how much Stage A the caches
    // already cover — counted on the shard actually being run.
    let full = SweepPlan::compile(grid);
    let mut plan = match shard {
        Some(s) => match full.shard(s.index, s.count) {
            Ok(p) => p,
            Err(e) => return Response::Err(format!("shard: {e}")),
        },
        None => full,
    };
    plan.attach_cached_logs(&RenderLogCache::new(Some(state.config.root.join("cache"))));
    let cached = plan
        .render_jobs()
        .iter()
        .filter(|rj| rj.cached_log.is_some())
        .count();
    re_obs::metrics::counter(names::SERVE_DEDUP_CACHED).add(cached as u64);
    re_obs::metrics::counter(names::SERVE_SUBMISSIONS).incr();

    let (id, cells, render_jobs) = {
        let mut jobs = state.jobs.lock().expect("jobs poisoned");
        let id = jobs.len() as u64 + 1;
        let job = Job {
            grid: grid.clone(),
            shard,
            store: state.config.root.join("jobs").join(format!("job-{id}")),
            status: JobStatus::Queued,
            rasters: None,
            cells: plan.cell_count(),
            render_jobs: plan.render_job_count(),
            cached_jobs: cached,
            events: JobEvents::new(),
        };
        let info = (id, job.cells, job.render_jobs);
        jobs.push(job);
        info
    };
    {
        let mut queue = state.queue.lock().expect("queue poisoned");
        queue.push_back(id as usize - 1);
        state.queue_grew.notify_all();
    }
    let mut fields = vec![
        ("job".to_string(), Json::Int(id as i64)),
        ("cells".to_string(), Json::Int(cells as i64)),
        ("render_jobs".to_string(), Json::Int(render_jobs as i64)),
        ("cached_jobs".to_string(), Json::Int(cached as i64)),
        (
            "fingerprint".to_string(),
            Json::Str(format!("{:016x}", grid.fingerprint())),
        ),
    ];
    if let Some(s) = shard {
        fields.push(("shard".to_string(), Json::Str(s.to_string())));
    }
    Response::Ok(fields)
}
