//! The three workloads, their set-up, and one timed unit of each.
//!
//! * `eval_warm` — the eval-heavy grid (ten suite scenes × four signature
//!   widths × two compare distances: 80 cells over 10 render keys) over a
//!   warm `.retrace`/`.relog` cache in stored framing. A unit is one
//!   execution into a fresh store: 0 rasters, almost all Stage B plus
//!   `.relog` decode, 8 cells per key.
//! * `render_cold` — one cell per render key (the ten suite scenes plus
//!   the three vector scenes × tile sizes 16 and 32: 26 keys) with
//!   LZSS-compressed artifacts and empty caches on every unit: capture,
//!   Stage A, encode and artifact writes happen here and nowhere else.
//! * `serve_resubmit` — one client on one connection to an in-process
//!   daemon, submitting small warm grids and waiting for each job before
//!   the next (a closed loop). A unit is one block: every menu grid once,
//!   in a seeded order.
//!
//! The seed only reorders work — the scene order of a batch grid, the job
//! order of a serve block — so every seed does the same work and checks
//! against the same reference CSVs.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use re_core::relog::Compression;
use re_obs::MetricsSnapshot;
use re_serve::{Client, Daemon, Request, Response, ServeConfig};
use re_sweep::json::Json;
use re_sweep::{
    axis, run_plan_with_store, EventRecord, ExperimentGrid, JsonlObserver, MultiObserver, Profile,
    SweepEvent, SweepObserver, SweepOptions, SweepPlan, EVENTS_FILE,
};

use crate::util::{self, canonical_csv, clear, digest, dir_bytes, Rng};

/// Frames and screen of the batch workloads.
pub const FRAMES: usize = 4;
pub const WIDTH: u32 = 200;
pub const HEIGHT: u32 = 128;

/// Frames and screen of each `serve_resubmit` job.
pub const SERVE_FRAMES: usize = 3;
pub const SERVE_WIDTH: u32 = 128;
pub const SERVE_HEIGHT: u32 = 80;

/// Raster invocations of one `render_cold` unit: 13 scenes × 4 frames ×
/// (104 tiles at 16 px + 28 tiles at 32 px on a 200×128 screen).
pub const RENDER_COLD_RASTERS: u64 = 13 * 4 * (13 * 8 + 7 * 4);

/// Jobs a `serve_resubmit` run completes at least, so the 90th percentile
/// of job latency has ten samples beyond it.
pub const MIN_JOBS: usize = 100;

/// Reference `results.csv` digests, one `name digest` pair per line.
const REFERENCE: &str = include_str!("../reference.digests");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EvalWarm,
    RenderCold,
    ServeResubmit,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::EvalWarm, Kind::RenderCold, Kind::ServeResubmit];

    pub fn name(self) -> &'static str {
        match self {
            Kind::EvalWarm => "eval_warm",
            Kind::RenderCold => "render_cold",
            Kind::ServeResubmit => "serve_resubmit",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Scene order of the reference CSV.
    pub fn canonical_scenes(self) -> Vec<&'static str> {
        let mut scenes = re_workloads::ALIASES.to_vec();
        if self == Kind::RenderCold {
            scenes.extend(re_workloads::source::VECTOR_ALIASES);
        }
        scenes
    }

    /// The batch grid over `scenes` (in that enumeration order).
    pub fn grid(self, scenes: &[&str]) -> ExperimentGrid {
        let mut grid = ExperimentGrid::default().with_scenes(scenes);
        grid = match self {
            Kind::EvalWarm => grid
                .with_axis(axis::SIG_BITS, vec![8, 16, 24, 32])
                .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]),
            Kind::RenderCold => grid.with_axis(axis::TILE_SIZE, vec![16, 32]),
            Kind::ServeResubmit => unreachable!("serve_resubmit runs the menu grids"),
        };
        grid.frames = FRAMES;
        grid.width = WIDTH;
        grid.height = HEIGHT;
        grid
    }

    fn compress(self) -> bool {
        self == Kind::RenderCold
    }

    /// Raster invocations one unit must perform.
    pub fn expected_rasters(self) -> u64 {
        match self {
            Kind::RenderCold => RENDER_COLD_RASTERS,
            _ => 0,
        }
    }
}

/// The `serve_resubmit` menu: five 8-cell grids (2 scenes × 2 signature
/// widths × 2 compare distances) that together cover the ten suite scenes.
pub fn menu() -> Vec<ExperimentGrid> {
    let a = re_workloads::ALIASES;
    let bits = [[8, 16], [16, 24], [24, 32], [8, 32], [16, 32]];
    (0..5)
        .map(|i| {
            let mut grid = ExperimentGrid::default()
                .with_scenes(&[a[2 * i], a[2 * i + 1]])
                .with_axis(axis::SIG_BITS, bits[i].to_vec())
                .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
            grid.frames = SERVE_FRAMES;
            grid.width = SERVE_WIDTH;
            grid.height = SERVE_HEIGHT;
            grid
        })
        .collect()
}

/// Reference-digest name of menu entry `i`.
pub fn menu_name(i: usize) -> String {
    format!("serve_resubmit.{i}")
}

/// The reference digest named `name`.
pub fn reference(name: &str) -> Option<&'static str> {
    REFERENCE
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == name)
        .map(|(_, d)| d.trim())
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-cell service times: for each worker, the time from the execution's
/// start (or its previous cell) to each cell's completion, so a cell that
/// rendered its key carries the render, the artifact write and the
/// evaluation. One lock and one push per cell.
#[derive(Default)]
struct CellClock(Mutex<ClockState>);

#[derive(Default)]
struct ClockState {
    start: Option<Instant>,
    last: Vec<Option<Instant>>,
    cell_ms: Vec<f64>,
}

impl SweepObserver for CellClock {
    fn on_event(&self, event: &SweepEvent<'_>) {
        let mut st = self.0.lock().expect("cell clock poisoned");
        match *event {
            SweepEvent::GroupStart { workers, .. } => {
                st.start = Some(Instant::now());
                st.last = vec![None; workers];
            }
            SweepEvent::EvalDone { worker, .. } => {
                let now = Instant::now();
                if st.last.len() <= worker {
                    st.last.resize(worker + 1, None);
                }
                let prev = st.last[worker].or(st.start).unwrap_or(now);
                st.cell_ms.push(ms(now - prev));
                st.last[worker] = Some(now);
            }
            _ => {}
        }
    }
}

/// What one timed unit measured and checked.
#[derive(Debug, Default)]
pub struct Unit {
    pub wall_s: f64,
    /// Process CPU time over the unit, all threads.
    pub cpu_s: f64,
    pub cells: usize,
    /// Per-job latencies: cell service times for the batch workloads,
    /// submit-to-done times for `serve_resubmit`.
    pub job_ms: Vec<f64>,
    pub artifact_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Traced units only.
    pub trace: Option<UnitTrace>,
}

/// Extra numbers a traced unit records.
#[derive(Debug)]
pub struct UnitTrace {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    /// Busy time `sweep profile` attributes to stages.
    pub profile_busy_s: f64,
    pub ack_ms: Vec<f64>,
    pub exec_ms: Vec<f64>,
    pub overhead_ms: Vec<f64>,
}

impl UnitTrace {
    pub fn counter(&self, name: &str) -> u64 {
        self.after.counter(name).unwrap_or(0) - self.before.counter(name).unwrap_or(0)
    }
}

fn profile_busy_s(events: &[EventRecord]) -> f64 {
    let p = Profile::from_events(events);
    (p.capture_ns + p.render_ns + p.eval_ns + p.store_ns) as f64 / 1e9
}

/// A batch workload (`eval_warm` or `render_cold`) in its work directory.
pub struct Batch {
    kind: Kind,
    work: PathBuf,
    rng: Rng,
    /// The plan of the last unit (the traced walk re-walks it).
    pub last_plan: Option<SweepPlan>,
    pub last_csv: String,
}

impl Batch {
    pub fn new(kind: Kind, work: &Path, seed: u64) -> Batch {
        Batch {
            kind,
            work: work.to_path_buf(),
            rng: Rng::new(seed),
            last_plan: None,
            last_csv: String::new(),
        }
    }

    pub fn cache(&self) -> PathBuf {
        self.work.join("cache")
    }

    fn options(&self, cache: &Path, observer: Arc<dyn SweepObserver>) -> SweepOptions {
        SweepOptions {
            workers: workers(),
            trace_dir: Some(cache.to_path_buf()),
            log_dir: Some(cache.to_path_buf()),
            quiet: true,
            relog_compress: self.kind.compress(),
            observer: Some(observer),
            ..SweepOptions::default()
        }
    }

    /// One set-up; returns its duration in seconds. `eval_warm` fills the
    /// artifact cache with the canonical grid (stored framing).
    /// `render_cold` starts cold on every unit, so its set-up is a
    /// warm-up execution of the three vector scenes at both tile sizes
    /// into a throwaway directory, paying one-time process costs (thread
    /// start-up, allocator growth) before the first timed unit.
    pub fn setup(&mut self) -> io::Result<f64> {
        let t = Instant::now();
        let (grid, cache) = match self.kind {
            Kind::EvalWarm => {
                clear(&self.cache());
                (self.kind.grid(&self.kind.canonical_scenes()), self.cache())
            }
            _ => (
                self.kind.grid(&re_workloads::source::VECTOR_ALIASES),
                self.work.join("warmup"),
            ),
        };
        let store = self.work.join("setup-store");
        clear(&store);
        let opts = self.options(&cache, Arc::new(re_sweep::NullObserver));
        run_plan_with_store(&SweepPlan::compile(&grid), &opts, &store)?;
        clear(&store);
        if self.kind != Kind::EvalWarm {
            clear(&cache);
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// One timed execution of the grid in the next seeded scene order.
    pub fn unit(&mut self, traced: bool) -> io::Result<Unit> {
        let canonical = self.kind.canonical_scenes();
        let mut scenes = canonical.clone();
        self.rng.shuffle(&mut scenes);
        let store = self.work.join("store");
        clear(&store);
        if self.kind == Kind::RenderCold {
            clear(&self.cache());
        }
        let clock = Arc::new(CellClock::default());
        let mut jsonl = None;
        let observer: Arc<dyn SweepObserver> = if traced {
            std::fs::create_dir_all(&store)?;
            let o = Arc::new(JsonlObserver::append(store.join(EVENTS_FILE), None)?);
            jsonl = Some(Arc::clone(&o));
            Arc::new(MultiObserver::new(vec![clock.clone(), o]))
        } else {
            clock.clone()
        };
        let opts = self.options(&self.cache(), observer);

        let before = traced.then(re_obs::snapshot);
        let cpu0 = util::cpu_seconds();
        let rasters0 = re_gpu::raster_invocations();
        let t = Instant::now();
        let plan = SweepPlan::compile(&self.kind.grid(&scenes));
        let summary = run_plan_with_store(&plan, &opts, &store)?;
        let wall_s = t.elapsed().as_secs_f64();
        let rasters = re_gpu::raster_invocations() - rasters0;
        let cpu_s = util::cpu_seconds() - cpu0;
        let after = traced.then(re_obs::snapshot);

        let csv = std::fs::read_to_string(&summary.csv_path)?;
        let mut unit = Unit {
            wall_s,
            cpu_s,
            cells: plan.cell_count(),
            job_ms: std::mem::take(&mut clock.0.lock().expect("cell clock poisoned").cell_ms),
            artifact_bytes: dir_bytes(&store)
                + if self.kind == Kind::RenderCold {
                    dir_bytes(&self.cache())
                } else {
                    0
                },
            attempted: plan.cell_count() as u64,
            ..Unit::default()
        };
        let want = reference(self.kind.name()).unwrap_or("missing");
        let got = digest(canonical_csv(&csv, &canonical).as_bytes());
        if got != want {
            unit.failures
                .push(format!("results.csv digest {got}, reference {want}"));
        }
        if rasters != self.kind.expected_rasters() {
            unit.failures.push(format!(
                "{rasters} raster invocations, expected {}",
                self.kind.expected_rasters()
            ));
        }
        if !unit.failures.is_empty() {
            unit.failed = unit.attempted;
        }
        if let (Some(before), Some(after), Some(jsonl)) = (before, after, jsonl) {
            jsonl.finish("complete")?;
            let events = re_sweep::read_events(jsonl.path())?;
            unit.trace = Some(UnitTrace {
                before,
                after,
                profile_busy_s: profile_busy_s(&events),
                ack_ms: Vec::new(),
                exec_ms: Vec::new(),
                overhead_ms: Vec::new(),
            });
        }
        self.last_plan = Some(plan);
        self.last_csv = csv;
        Ok(unit)
    }

    pub fn compression(&self) -> Compression {
        if self.kind.compress() {
            Compression::Lzss
        } else {
            Compression::None
        }
    }
}

/// A running in-process daemon and the benchmark's one client connection.
struct Server {
    client: Client,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl Server {
    fn start(root: &Path) -> io::Result<Server> {
        let daemon = Daemon::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            root: root.to_path_buf(),
            workers: workers(),
            ..ServeConfig::default()
        })?;
        let addr = daemon.local_addr()?.to_string();
        let thread = std::thread::spawn(move || daemon.run(None));
        let client = Client::connect(&addr)?;
        Ok(Server { client, thread })
    }

    /// Graceful drain, then waits for the daemon thread to end.
    fn stop(mut self) -> io::Result<()> {
        self.client.request(&Request::Shutdown)?;
        drop(self.client);
        self.thread
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?
    }
}

/// One finished daemon job.
struct Job {
    latency_ms: f64,
    ack_ms: f64,
    exec_ms: f64,
    events: Vec<EventRecord>,
    failure: Option<String>,
    store_bytes: u64,
}

/// The `serve_resubmit` workload: daemon, client and the seeded job order.
pub struct Serve {
    work: PathBuf,
    rng: Rng,
    menu: Vec<ExperimentGrid>,
    server: Option<Server>,
}

impl Serve {
    pub fn new(work: &Path, seed: u64) -> Serve {
        Serve {
            work: work.to_path_buf(),
            rng: Rng::new(seed),
            menu: menu(),
            server: None,
        }
    }

    pub fn root(&self) -> PathBuf {
        self.work.join("root")
    }

    pub fn menu(&self) -> &[ExperimentGrid] {
        &self.menu
    }

    /// One set-up: a fresh daemon root, the daemon started, and every
    /// menu grid run once so its render keys are cached.
    pub fn setup(&mut self) -> io::Result<f64> {
        if let Some(server) = self.server.take() {
            server.stop()?;
        }
        let t = Instant::now();
        clear(&self.root());
        let mut server = Server::start(&self.root())?;
        for (i, grid) in self.menu.iter().enumerate() {
            let job = run_job(&mut server.client, &self.root(), grid, &menu_name(i), None)?;
            if let Some(why) = job.failure {
                return Err(io::Error::other(format!("set-up job failed: {why}")));
            }
        }
        self.server = Some(server);
        Ok(t.elapsed().as_secs_f64())
    }

    /// One block: every menu grid once, in the next seeded order.
    pub fn unit(&mut self, traced: bool) -> io::Result<Unit> {
        let root = self.root();
        let server = self.server.as_mut().expect("set up before timing");
        let mut order: Vec<usize> = (0..self.menu.len()).collect();
        self.rng.shuffle(&mut order);
        let before = traced.then(re_obs::snapshot);
        let cpu0 = util::cpu_seconds();
        let rasters0 = re_gpu::raster_invocations();
        let t = Instant::now();
        let mut jobs = Vec::with_capacity(order.len());
        for &i in &order {
            jobs.push(run_job(
                &mut server.client,
                &root,
                &self.menu[i],
                &menu_name(i),
                Some(traced),
            )?);
        }
        let wall_s = t.elapsed().as_secs_f64();
        let rasters = re_gpu::raster_invocations() - rasters0;
        let cpu_s = util::cpu_seconds() - cpu0;
        let after = traced.then(re_obs::snapshot);

        let cells: usize = order.iter().map(|&i| self.menu[i].cell_count()).sum();
        let mut unit = Unit {
            wall_s,
            cpu_s,
            cells,
            job_ms: jobs.iter().map(|j| j.latency_ms).collect(),
            artifact_bytes: jobs.iter().map(|j| j.store_bytes).sum(),
            attempted: jobs.len() as u64,
            ..Unit::default()
        };
        for job in &jobs {
            if let Some(why) = &job.failure {
                unit.failed += 1;
                unit.failures.push(why.clone());
            }
        }
        if rasters != 0 {
            unit.failures
                .push(format!("{rasters} raster invocations in a warm block"));
            unit.failed = unit.attempted;
        }
        if let (Some(before), Some(after)) = (before, after) {
            let events: Vec<EventRecord> = jobs.iter().flat_map(|j| j.events.clone()).collect();
            unit.trace = Some(UnitTrace {
                before,
                after,
                profile_busy_s: profile_busy_s(&events),
                ack_ms: jobs.iter().map(|j| j.ack_ms).collect(),
                exec_ms: jobs.iter().map(|j| j.exec_ms).collect(),
                overhead_ms: jobs.iter().map(|j| j.latency_ms - j.exec_ms).collect(),
            });
        }
        Ok(unit)
    }

    /// Shuts the daemon down and waits for it.
    pub fn finish(&mut self) -> io::Result<()> {
        match self.server.take() {
            Some(server) => server.stop(),
            None => Ok(()),
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Submits `grid`, follows the job's event stream on the same connection
/// until it completes, then checks its status and CSV. `warm` is `None`
/// for a set-up job (which renders, so its raster count is not pinned)
/// and `Some(keep_events)` for a timed job, which must rasterize nothing.
fn run_job(
    client: &mut Client,
    root: &Path,
    grid: &ExperimentGrid,
    reference_name: &str,
    warm: Option<bool>,
) -> io::Result<Job> {
    let keep_events = warm == Some(true);
    let t = Instant::now();
    let ack = client.submit(grid, None)?;
    let ack_ms = ms(t.elapsed());
    let mut exec_ns = 0u64;
    let mut events = Vec::new();
    let mut frame = client.request(&Request::Watch { job: ack.job })?;
    loop {
        if let Response::Err(e) = &frame {
            return Err(io::Error::other(format!("watch: {e}")));
        }
        if frame.field("done").is_some() {
            break;
        }
        if let Some(event) = frame.field("event") {
            if event.get("type").and_then(Json::as_str) == Some("cell_done") {
                exec_ns = event
                    .get("elapsed_ns")
                    .and_then(Json::as_u64)
                    .unwrap_or(exec_ns);
            }
            if keep_events {
                if let Ok(record) = EventRecord::from_json(event) {
                    events.push(record);
                }
            }
        }
        frame = client.read_response()?;
    }
    let latency_ms = ms(t.elapsed());

    let status = client.status(ack.job)?;
    let csv = client.request(&Request::Csv { job: ack.job })?;
    let csv = csv.field("csv").and_then(Json::as_str).unwrap_or_default();
    let want = reference(reference_name).unwrap_or("missing");
    let failure = if status.state != "done" {
        Some(format!(
            "job {} {}: {}",
            ack.job,
            status.state,
            status.error.unwrap_or_default()
        ))
    } else if digest(csv.as_bytes()) != want {
        Some(format!(
            "job {} results.csv digest {}, reference {want}",
            ack.job,
            digest(csv.as_bytes())
        ))
    } else if warm.is_some() && status.rasters != Some(0) {
        Some(format!(
            "job {} raster invocations {:?}, expected 0",
            ack.job, status.rasters
        ))
    } else {
        None
    };
    Ok(Job {
        latency_ms,
        ack_ms,
        exec_ms: exec_ns as f64 / 1e6,
        events,
        failure,
        store_bytes: dir_bytes(&root.join("jobs").join(format!("job-{}", ack.job))),
    })
}
