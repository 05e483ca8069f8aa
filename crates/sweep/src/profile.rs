//! Post-hoc profiling of a sweep from its `events.jsonl` run log.
//!
//! [`Profile::from_events`] folds a parsed event stream (all segments of
//! a possibly killed-and-resumed, possibly sharded run) into stage
//! totals, cache-hit accounting, and per-scene / per-render-key /
//! per-worker hotspots; [`Profile::render`] is the text report behind
//! `sweep profile`. Everything here reads the on-disk log only — no live
//! process state — so a store directory can be profiled long after the
//! run, on another machine.

use std::collections::BTreeMap;

use crate::events::{nanos, EventRecord};
use crate::exec::SweepEvent;

/// Aggregated timing and cache statistics for one run log.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Profile {
    /// Run segments in the log (1 = never resumed).
    pub segments: u64,
    /// Workload captures performed (trace-cache misses).
    pub captures: u64,
    /// Total capture time in nanoseconds.
    pub capture_ns: u64,
    /// Stage A renders performed (`.relog` cache misses).
    pub renders: u64,
    /// Total Stage A render time in nanoseconds.
    pub render_ns: u64,
    /// Freshly rendered `.relog` artifacts persisted.
    pub persists: u64,
    /// Total persist time (artifact encode plus atomic write) in
    /// nanoseconds.
    pub persist_ns: u64,
    /// Render jobs satisfied by decoding a cached `.relog`.
    pub replays: u64,
    /// Cells evaluated (Stage B executions recorded in the log).
    pub cells: u64,
    /// Of those, cells whose render key was decoded from a cached `.relog`.
    pub replayed_cells: u64,
    /// Total Stage B time in nanoseconds (includes `.relog` decoding).
    pub eval_ns: u64,
    /// Total store-commit time in nanoseconds.
    pub store_ns: u64,
    /// Wall clock in nanoseconds, summed over segments (per segment: the
    /// largest `elapsed` any progress/cell event reported).
    pub wall_ns: u64,
    /// Per-scene busy time, hottest first.
    pub scenes: Vec<SceneProfile>,
    /// Per-render-key Stage A accounting, hottest first.
    pub render_keys: Vec<RenderKeyProfile>,
    /// Per-worker busy time, by worker id.
    pub workers: Vec<WorkerProfile>,
}

/// Busy time attributed to one workload alias.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SceneProfile {
    /// Workload alias.
    pub scene: String,
    /// Cells evaluated for this scene.
    pub cells: u64,
    /// Stage B time in nanoseconds.
    pub eval_ns: u64,
    /// Stage A time in nanoseconds.
    pub render_ns: u64,
}

/// Stage A accounting for one render key (scene × tile size).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RenderKeyProfile {
    /// Workload alias.
    pub scene: String,
    /// Tile edge in pixels.
    pub tile_size: u64,
    /// Times this key was rendered live.
    pub renders: u64,
    /// Times this key was replayed from a cached `.relog`.
    pub replays: u64,
    /// Live render time in nanoseconds.
    pub render_ns: u64,
    /// Frame chunks recorded by parallel Stage A renders of this key
    /// (0 when every render ran serially — serial renders emit no
    /// `render_chunk` events).
    pub chunks: u64,
    /// Total busy time across those chunks, in nanoseconds.
    pub chunk_busy_ns: u64,
}

impl RenderKeyProfile {
    /// Parallel efficiency of this key's frame-parallel renders, as a
    /// percentage: chunk busy time over (mean chunk fan-out × wall render
    /// time). 100% means the chunk threads were busy for the render's
    /// whole duration; lower values mean stragglers or stitch overhead.
    /// `None` when no render of this key was chunked.
    pub fn parallel_efficiency_pct(&self) -> Option<f64> {
        if self.chunks == 0 || self.renders == 0 || self.render_ns == 0 {
            return None;
        }
        let mean_fanout = self.chunks as f64 / self.renders as f64;
        Some(self.chunk_busy_ns as f64 * 100.0 / (mean_fanout * self.render_ns as f64))
    }
}

/// Busy time attributed to one worker thread.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Worker index within its executor.
    pub worker: u64,
    /// Cells this worker evaluated.
    pub cells: u64,
    /// Render jobs this worker executed (live or replay).
    pub renders: u64,
    /// Total attributed busy time in nanoseconds.
    pub busy_ns: u64,
}

impl Profile {
    /// Folds a parsed event stream into a profile. Unknown records and
    /// event kinds without timing content are skipped, so logs written by
    /// newer builds still profile.
    pub fn from_events(events: &[EventRecord]) -> Profile {
        let mut p = Profile::default();
        let mut scenes: BTreeMap<String, SceneProfile> = BTreeMap::new();
        let mut keys: BTreeMap<(String, u32), RenderKeyProfile> = BTreeMap::new();
        let mut workers: BTreeMap<usize, WorkerProfile> = BTreeMap::new();
        let mut segment_wall = 0u64;
        for record in events {
            let event = match record {
                EventRecord::RunStart { .. } => {
                    p.segments += 1;
                    p.wall_ns += segment_wall;
                    segment_wall = 0;
                    continue;
                }
                EventRecord::Event { event, .. } => event,
                _ => continue,
            };
            match event {
                SweepEvent::CaptureDone { duration, .. } => {
                    p.captures += 1;
                    p.capture_ns += nanos(*duration);
                }
                SweepEvent::RenderDone {
                    scene,
                    tile_size,
                    worker,
                    duration,
                    ..
                } => {
                    let duration_ns = nanos(*duration);
                    p.renders += 1;
                    p.render_ns += duration_ns;
                    let s = scenes.entry(scene.to_string()).or_default();
                    s.render_ns += duration_ns;
                    let k = keys.entry((scene.to_string(), *tile_size)).or_default();
                    k.renders += 1;
                    k.render_ns += duration_ns;
                    let w = workers.entry(*worker).or_default();
                    w.renders += 1;
                    w.busy_ns += duration_ns;
                }
                SweepEvent::RenderChunkDone {
                    scene,
                    tile_size,
                    duration,
                    ..
                } => {
                    let k = keys.entry((scene.to_string(), *tile_size)).or_default();
                    k.chunks += 1;
                    k.chunk_busy_ns += nanos(*duration);
                }
                SweepEvent::RenderLogReplay {
                    scene,
                    tile_size,
                    worker,
                } => {
                    p.replays += 1;
                    keys.entry((scene.to_string(), *tile_size))
                        .or_default()
                        .replays += 1;
                    workers.entry(*worker).or_default().renders += 1;
                }
                SweepEvent::RenderLogSaved { duration, .. } => {
                    p.persists += 1;
                    p.persist_ns += nanos(*duration);
                }
                SweepEvent::EvalDone {
                    scene,
                    worker,
                    replayed,
                    eval,
                    store,
                    ..
                } => {
                    let (eval_ns, store_ns) = (nanos(*eval), nanos(*store));
                    p.cells += 1;
                    p.replayed_cells += u64::from(*replayed);
                    p.eval_ns += eval_ns;
                    p.store_ns += store_ns;
                    let s = scenes.entry(scene.to_string()).or_default();
                    s.cells += 1;
                    s.eval_ns += eval_ns;
                    let w = workers.entry(*worker).or_default();
                    w.cells += 1;
                    w.busy_ns += eval_ns + store_ns;
                }
                SweepEvent::CellDone { elapsed, .. } | SweepEvent::Progress { elapsed, .. } => {
                    segment_wall = segment_wall.max(nanos(*elapsed));
                }
                _ => {}
            }
        }
        p.wall_ns += segment_wall;
        p.scenes = scenes
            .into_iter()
            .map(|(scene, s)| SceneProfile { scene, ..s })
            .collect();
        p.scenes
            .sort_by_key(|s| std::cmp::Reverse(s.eval_ns + s.render_ns));
        p.render_keys = keys
            .into_iter()
            .map(|((scene, tile_size), k)| RenderKeyProfile {
                scene,
                tile_size: u64::from(tile_size),
                ..k
            })
            .collect();
        p.render_keys
            .sort_by_key(|k| std::cmp::Reverse(k.render_ns));
        p.workers = workers
            .into_iter()
            .map(|(worker, w)| WorkerProfile {
                worker: worker as u64,
                ..w
            })
            .collect();
        p
    }

    /// Fraction of render jobs served from the `.relog` cache, as a
    /// percentage. `None` when the log contains no render jobs.
    pub fn replay_hit_pct(&self) -> Option<f64> {
        let jobs = self.renders + self.replays;
        (jobs > 0).then(|| self.replays as f64 * 100.0 / jobs as f64)
    }

    /// The text report printed by `sweep profile`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run log: {} segment{}, {} cell{}, {} render job{}",
            self.segments,
            plural(self.segments),
            self.cells,
            plural(self.cells),
            self.renders + self.replays,
            plural(self.renders + self.replays),
        );
        let _ = writeln!(out, "wall clock (across segments): {}", secs(self.wall_ns));
        out.push('\n');
        let _ = writeln!(out, "stage breakdown (busy time, all workers):");
        for (name, total, count) in [
            ("capture", self.capture_ns, self.captures),
            ("render (stage A)", self.render_ns, self.renders),
            ("persist (.relog)", self.persist_ns, self.persists),
            ("eval (stage B)", self.eval_ns, self.cells),
            ("store write", self.store_ns, self.cells),
        ] {
            let _ = writeln!(out, "  {name:<18} {:>10}  x{count}", secs(total));
        }
        out.push('\n');
        match self.replay_hit_pct() {
            Some(pct) => {
                let _ = writeln!(
                    out,
                    "render cache: {} replayed, {} rendered ({pct:.1}% replay hits)",
                    self.replays, self.renders
                );
            }
            None => {
                let _ = writeln!(out, "render cache: no render jobs in log");
            }
        }
        if !self.scenes.is_empty() {
            out.push('\n');
            let _ = writeln!(out, "scene hotspots:");
            for s in &self.scenes {
                let _ = writeln!(
                    out,
                    "  {:<12} {:>10} eval  {:>10} render  ({} cells)",
                    s.scene,
                    secs(s.eval_ns),
                    secs(s.render_ns),
                    s.cells
                );
            }
        }
        if !self.render_keys.is_empty() {
            out.push('\n');
            let _ = writeln!(out, "render keys:");
            for k in &self.render_keys {
                let par = match k.parallel_efficiency_pct() {
                    Some(pct) => format!(", {} chunks, {pct:.0}% par-eff", k.chunks),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  {:<12} ts{:<5} {:>10} render  ({} rendered, {} replayed{par})",
                    k.scene,
                    k.tile_size,
                    secs(k.render_ns),
                    k.renders,
                    k.replays
                );
            }
        }
        if !self.workers.is_empty() {
            out.push('\n');
            let _ = writeln!(out, "workers:");
            for w in &self.workers {
                let _ = writeln!(
                    out,
                    "  w{:<3} {:>10} busy  ({} cells, {} render jobs)",
                    w.worker,
                    secs(w.busy_ns),
                    w.cells,
                    w.renders
                );
            }
        }
        out
    }
}

fn plural(n: u64) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn secs(ns: u64) -> String {
    format!("{:.3}s", ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t_ms: u64, event: SweepEvent<'static>) -> EventRecord {
        EventRecord::Event { t_ms, event }
    }

    fn ns(n: u64) -> Duration {
        Duration::from_nanos(n)
    }

    fn run_start() -> EventRecord {
        EventRecord::RunStart {
            t_ms: 0,
            version: 1,
            epoch_ms: 0,
            shard: None,
        }
    }

    fn eval(scene: &'static str, worker: usize, replayed: bool, eval_ns: u64) -> EventRecord {
        at(
            0,
            SweepEvent::EvalDone {
                cell: 0,
                scene: scene.into(),
                worker,
                replayed,
                eval: ns(eval_ns),
                store: ns(10),
            },
        )
    }

    #[test]
    fn folds_stages_hotspots_and_cache_hits() {
        let events = vec![
            run_start(),
            at(
                1,
                SweepEvent::CaptureDone {
                    scene: "ccs".into(),
                    frames: 3,
                    duration: ns(1000),
                },
            ),
            at(
                2,
                SweepEvent::RenderDone {
                    scene: "ccs".into(),
                    tile_size: 16,
                    worker: 0,
                    frames: 3,
                    duration: ns(500),
                },
            ),
            at(
                3,
                SweepEvent::RenderLogReplay {
                    scene: "ccs".into(),
                    tile_size: 32,
                    worker: 1,
                },
            ),
            at(
                2,
                SweepEvent::RenderLogSaved {
                    scene: "ccs".into(),
                    tile_size: 16,
                    bytes: 4096,
                    duration: ns(70),
                },
            ),
            eval("ccs", 0, false, 200),
            eval("ccs", 1, true, 100),
            at(
                4,
                SweepEvent::Progress {
                    done: 2,
                    total: 2,
                    elapsed: ns(9000),
                    cells_per_sec: 1.0,
                    eta: Some(ns(0)),
                },
            ),
        ];
        let p = Profile::from_events(&events);
        assert_eq!(p.segments, 1);
        assert_eq!((p.captures, p.capture_ns), (1, 1000));
        assert_eq!((p.renders, p.render_ns), (1, 500));
        assert_eq!((p.persists, p.persist_ns), (1, 70));
        assert!(p.render().contains("persist (.relog)"));
        assert_eq!(p.replays, 1);
        assert_eq!((p.cells, p.replayed_cells), (2, 1));
        assert_eq!((p.eval_ns, p.store_ns), (300, 20));
        assert_eq!(p.wall_ns, 9000);
        assert_eq!(p.replay_hit_pct(), Some(50.0));
        assert_eq!(p.scenes.len(), 1);
        assert_eq!(p.scenes[0].cells, 2);
        assert_eq!(p.render_keys.len(), 2);
        // Hottest key first: the live render beats the free replay.
        assert_eq!(p.render_keys[0].tile_size, 16);
        assert_eq!(p.workers.len(), 2);
        assert_eq!(p.workers[0].busy_ns, 500 + 200 + 10);
    }

    #[test]
    fn parallel_renders_report_chunks_and_efficiency() {
        let chunk = |chunk, duration_ns| {
            at(
                0,
                SweepEvent::RenderChunkDone {
                    scene: "ccs".into(),
                    tile_size: 16,
                    worker: 0,
                    chunk,
                    chunks: 2,
                    frames: 2,
                    duration: ns(duration_ns),
                },
            )
        };
        let events = vec![
            chunk(0, 400),
            chunk(1, 300),
            at(
                1,
                SweepEvent::RenderDone {
                    scene: "ccs".into(),
                    tile_size: 16,
                    worker: 0,
                    frames: 4,
                    duration: ns(500),
                },
            ),
        ];
        let p = Profile::from_events(&events);
        let k = &p.render_keys[0];
        assert_eq!((k.chunks, k.chunk_busy_ns), (2, 700));
        // 700 ns busy over 2 chunks × 500 ns wall = 70%.
        let eff = k.parallel_efficiency_pct().expect("chunked render");
        assert!((eff - 70.0).abs() < 1e-9, "{eff}");
        let text = p.render();
        assert!(text.contains("2 chunks, 70% par-eff"), "{text}");
        // Serial keys stay unchanged.
        let serial = RenderKeyProfile {
            renders: 1,
            render_ns: 500,
            ..RenderKeyProfile::default()
        };
        assert_eq!(serial.parallel_efficiency_pct(), None);
    }

    #[test]
    fn wall_clock_sums_across_segments() {
        let seg = |elapsed_ns| {
            vec![
                run_start(),
                at(
                    1,
                    SweepEvent::Progress {
                        done: 1,
                        total: 1,
                        elapsed: ns(elapsed_ns),
                        cells_per_sec: 1.0,
                        eta: None,
                    },
                ),
            ]
        };
        let mut events = seg(5000);
        events.extend(seg(3000));
        let p = Profile::from_events(&events);
        assert_eq!(p.segments, 2);
        assert_eq!(p.wall_ns, 8000);
    }

    #[test]
    fn warm_run_reports_full_replay_hits_and_zero_render_time() {
        let events = vec![
            run_start(),
            at(
                1,
                SweepEvent::RenderLogReplay {
                    scene: "ccs".into(),
                    tile_size: 16,
                    worker: 0,
                },
            ),
            eval("ccs", 0, true, 100),
        ];
        let p = Profile::from_events(&events);
        assert_eq!(p.render_ns, 0);
        assert_eq!(p.renders, 0);
        assert_eq!(p.replay_hit_pct(), Some(100.0));
        let text = p.render();
        assert!(text.contains("100.0% replay hits"), "{text}");
        assert!(text.contains("render (stage A)"), "{text}");
    }

    #[test]
    fn empty_log_renders_without_panicking() {
        let p = Profile::from_events(&[]);
        assert_eq!(p.replay_hit_pct(), None);
        let text = p.render();
        assert!(text.contains("no render jobs"), "{text}");
    }
}
