//! The traced run's serial layer walk.
//!
//! It visits the render keys of a plan one at a time and calls each
//! layer's public entry point itself, timing every call from outside the
//! program: trace capture (`TraceCache::get`), Stage A
//! (`render_key_log_parallel`), `.relog` encode and decode
//! (`relog::encode_with`, `RelogReader::next_frame`, `relog::decode`),
//! Stage B (`Evaluation::with_passes` over `default_passes`, each pass
//! wrapped in [`TimedPass`]) and the store (`ResultStore::record`,
//! `write_csv`). It mirrors the executor's data path: keys a cached
//! `.relog` satisfies are streamed from disk per cell, every other key is
//! captured, rendered, encoded and written once and evaluated in memory.

use std::cell::Cell as Counter;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use re_core::passes::{default_passes, TechniquePass, TileCtx};
use re_core::relog::{self, Compression, RelogReader};
use re_core::render::{FrameLog, TileLog};
use re_core::{Evaluation, RunReport, SimOptions};
use re_sweep::engine::render_key_log_parallel;
use re_sweep::{CellRecord, RenderLogCache, ResultStore, SweepPlan, TraceCache};

/// Pass names in `default_passes` order.
pub const PASSES: [&str; 5] = ["baseline", "re", "redundancy", "te", "memo"];

/// Busy time and work counts of every layer the walk entered.
#[derive(Debug, Default)]
pub struct Layers {
    pub validate_s: f64,
    pub capture_s: f64,
    pub write_s: f64,
    pub render_busy_s: f64,
    pub render_stitch_s: f64,
    pub rasters: u64,
    pub encode_s: f64,
    pub encode_raw_bytes: u64,
    pub decode_s: f64,
    pub decode_bytes: u64,
    pub raw_bytes: u64,
    pub stored_bytes: u64,
    pub pass_s: [f64; 5],
    pub driver_s: f64,
    pub evaluations: u64,
    pub events: u64,
    pub commit_s: f64,
    pub csv_s: f64,
    /// Lossless round trips that failed (`relog::decode` of a fresh
    /// encoding differing from the rendered log).
    pub roundtrip_failures: u64,
    /// Every record the walk produced, over all walked plans.
    pub records: Vec<CellRecord>,
}

impl Layers {
    /// Seconds spent inside the walked layers — what the executor's busy
    /// time should be made of.
    pub fn busy_s(&self) -> f64 {
        self.validate_s
            + self.capture_s
            + self.write_s
            + self.render_busy_s
            + self.render_stitch_s
            + self.encode_s
            + self.decode_s
            + self.pass_s.iter().sum::<f64>()
            + self.driver_s
            + self.commit_s
            + self.csv_s
    }
}

/// A pass that adds the time spent in each of its calls to a shared
/// accumulator. The sum is read once per evaluation, so nothing is
/// recorded per tile.
struct TimedPass {
    inner: Box<dyn TechniquePass>,
    ns: Rc<Counter<u64>>,
}

impl TimedPass {
    fn add(&self, since: Instant) {
        self.ns
            .set(self.ns.get() + since.elapsed().as_nanos() as u64);
    }
}

impl TechniquePass for TimedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin_frame(&mut self, index: usize, frame: &FrameLog) {
        let t = Instant::now();
        self.inner.begin_frame(index, frame);
        self.add(t);
    }

    fn tile(&mut self, frame: &FrameLog, tile_id: u32, tile: &TileLog, ctx: &mut TileCtx) {
        let t = Instant::now();
        self.inner.tile(frame, tile_id, tile, ctx);
        self.add(t);
    }

    fn end_frame(&mut self, frame: &FrameLog, sample: &mut re_core::sim::FrameSample) {
        let t = Instant::now();
        self.inner.end_frame(frame, sample);
        self.add(t);
    }

    fn finish(self: Box<Self>, report: &mut RunReport) {
        let t = Instant::now();
        let TimedPass { inner, ns } = *self;
        inner.finish(report);
        ns.set(ns.get() + t.elapsed().as_nanos() as u64);
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One Stage B evaluation with per-pass timers.
struct TimedEval {
    eval: Evaluation,
    timers: Vec<Rc<Counter<u64>>>,
    total: Duration,
}

impl TimedEval {
    fn new(opts: SimOptions, tile_count: u32) -> TimedEval {
        let mut timers = Vec::new();
        let passes: Vec<Box<dyn TechniquePass>> = default_passes(&opts, tile_count)
            .into_iter()
            .map(|inner| {
                assert_eq!(inner.name(), PASSES[timers.len()], "pass stack order");
                let ns = Rc::new(Counter::new(0));
                timers.push(Rc::clone(&ns));
                Box::new(TimedPass { inner, ns }) as Box<dyn TechniquePass>
            })
            .collect();
        TimedEval {
            eval: Evaluation::with_passes(opts, tile_count, passes),
            timers,
            total: Duration::ZERO,
        }
    }

    fn push(&mut self, frame: &FrameLog, layers: &mut Layers) {
        layers.events += frame.geo_events.len() as u64
            + frame
                .tiles
                .iter()
                .map(|t| t.events.len() as u64)
                .sum::<u64>();
        let t = Instant::now();
        self.eval.push_frame(frame);
        self.total += t.elapsed();
    }

    fn finish(self, name: &str, layers: &mut Layers) -> RunReport {
        let t = Instant::now();
        let report = self.eval.finish(name);
        let total = self.total + t.elapsed();
        let mut passes = 0.0;
        for (slot, ns) in layers.pass_s.iter_mut().zip(&self.timers) {
            let s = ns.get() as f64 / 1e9;
            *slot += s;
            passes += s;
        }
        layers.driver_s += secs(total) - passes;
        layers.evaluations += 1;
        report
    }
}

/// Walks every render key of `plan`, adds what each layer did to
/// `layers`, and returns the walk's `results.csv`. `cache` holds the
/// executor's warm artifacts (keys it covers are replayed from there);
/// `dir` is a fresh directory for the walk's own captures, artifacts
/// and store. `compression` is the framing newly rendered artifacts are
/// written with.
pub fn walk(
    plan: &SweepPlan,
    cache: &Path,
    dir: &Path,
    compression: Compression,
    layers: &mut Layers,
) -> io::Result<String> {
    let mut plan = plan.clone();
    let t = Instant::now();
    plan.attach_cached_logs(&RenderLogCache::new(Some(cache.to_path_buf())));
    layers.validate_s += secs(t.elapsed());

    let cells: HashMap<usize, re_sweep::Cell> = plan
        .eval_jobs()
        .iter()
        .map(|j| (j.cell.id, j.cell))
        .collect();
    let walk_cache = dir.join("cache");
    let mut traces = TraceCache::new(Some(walk_cache.clone()));
    let (store, _) = ResultStore::open_for_plan(dir.join("store"), &plan)?;
    let mut records = Vec::with_capacity(cells.len());
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());

    for job in plan.render_jobs() {
        let key = &job.key;
        let mut reports = Vec::with_capacity(job.cells.len());
        if let Some(path) = &job.cached_log {
            let bytes = std::fs::metadata(path)?.len();
            layers.raw_bytes += bytes;
            layers.stored_bytes += bytes;
            for id in &job.cells {
                let opts = cells[id].point.sim_options();
                let mut reader = RelogReader::open(path)?;
                let mut eval = TimedEval::new(opts, reader.config().tile_count());
                loop {
                    let t = Instant::now();
                    let frame = reader.next_frame()?;
                    layers.decode_s += secs(t.elapsed());
                    match frame {
                        Some(frame) => eval.push(&frame, layers),
                        None => break,
                    }
                }
                layers.decode_bytes += bytes;
                let name = reader.name().to_owned();
                reports.push((*id, eval.finish(&name, layers)));
            }
        } else {
            let cfg = key.gpu_config();
            let capture_cfg = re_gpu::GpuConfig {
                width: cfg.width,
                height: cfg.height,
                ..re_gpu::GpuConfig::default()
            };
            let t = Instant::now();
            let trace = traces.get(key.scene(), key.frames(), capture_cfg)?;
            layers.capture_s += secs(t.elapsed());

            let before = re_gpu::raster_invocations();
            let rendered = render_key_log_parallel(&trace, key, workers);
            layers.rasters += re_gpu::raster_invocations() - before;
            layers.render_busy_s += rendered
                .chunks
                .iter()
                .map(|c| secs(c.duration))
                .sum::<f64>();
            layers.render_stitch_s += secs(rendered.stitch);
            let log = rendered.log;

            let t = Instant::now();
            let encoded = relog::encode_with(&log, compression);
            layers.encode_s += secs(t.elapsed());
            let raw = match compression {
                Compression::None => encoded.len() as u64,
                Compression::Lzss => relog::encode_with(&log, Compression::None).len() as u64,
            };
            layers.encode_raw_bytes += raw;
            layers.raw_bytes += raw;
            layers.stored_bytes += encoded.len() as u64;

            let t = Instant::now();
            std::fs::create_dir_all(&walk_cache)?;
            std::fs::write(walk_cache.join(RenderLogCache::file_key(key)), &encoded)?;
            layers.write_s += secs(t.elapsed());

            if relog::decode(&encoded).as_ref() != Ok(&log) {
                layers.roundtrip_failures += 1;
            }
            for id in &job.cells {
                let opts = cells[id].point.sim_options();
                let mut eval = TimedEval::new(opts, log.tile_count());
                for frame in &log.frames {
                    eval.push(frame, layers);
                }
                reports.push((*id, eval.finish(&log.name, layers)));
            }
        }
        for (id, report) in reports {
            let record = CellRecord::from_run(&cells[&id], &report);
            let t = Instant::now();
            store.record(&record)?;
            layers.commit_s += secs(t.elapsed());
            records.push(record);
        }
    }
    records.sort_by_key(|r| r.id);
    let t = Instant::now();
    let csv_path = store.write_csv(&records)?;
    layers.csv_s += secs(t.elapsed());
    layers.records.extend(records);
    std::fs::read_to_string(csv_path)
}
