//! The machine-readable run log: [`JsonlObserver`] serializes every
//! [`SweepEvent`] as one JSON line of an append-only, versioned
//! `events.jsonl` beside the store, and [`EventRecord`]/[`read_events`]
//! parse the stream back — the exact format `sweep profile` digests and
//! the future `sweep serve` daemon / fleet driver will tail.
//!
//! Format (full schema in `docs/FORMATS.md`):
//!
//! * one JSON object per line, each with a `"type"` tag and a `"t_ms"`
//!   monotonic timestamp (milliseconds since this observer — i.e. this
//!   process's run segment — started);
//! * every run segment starts with a `run_start` line carrying the
//!   format version ([`EVENTS_VERSION`]), a wall-clock `epoch_ms`, and
//!   the shard identity when sharded. A resumed store run *appends* a new
//!   segment, so one file can hold several; a segment that shut down
//!   cleanly (normal exit, graceful signal, daemon drain) ends with a
//!   `run_end` trailer ([`JsonlObserver::finish`]) naming the reason —
//!   its absence marks a segment that was killed mid-run;
//! * durations are integer nanoseconds (`*_ns`), so lines round-trip
//!   exactly through any JSON parser;
//! * consumers must skip unknown `"type"`s ([`EventRecord::Unknown`]) —
//!   that is what lets the format grow without breaking old tools.
//!
//! # Concurrent writers
//!
//! Overlapping runs may share one `events.jsonl` (daemon jobs writing to
//! a common store directory, or a resume racing a straggler). The file is
//! safe for that: every writer opens it `O_APPEND` and emits each record
//! as a **single** `write_all` of one `\n`-terminated line, which Linux
//! applies atomically at the file's end for regular files — lines from
//! two writers interleave but never splice into each other. Segments are
//! then reconstructed by `run_start`/`run_end` markers, not byte ranges.
//! The one artifact a crash *can* leave is a torn final line (a writer
//! killed mid-`write`), which [`read_events`] tolerates: an unparsable
//! line is an error only when the file continues past it.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::exec::{SweepEvent, SweepObserver};
use crate::json::Json;
use crate::plan::ShardSpec;

/// File name of the run log inside a store directory.
pub const EVENTS_FILE: &str = "events.jsonl";

/// Format version written in every `run_start` line.
pub const EVENTS_VERSION: u64 = 1;

/// Writes every event as one JSON line to an append-only `events.jsonl`.
///
/// Lines are written under a mutex (workers emit concurrently) and
/// flushed individually, so a tailing consumer never sees a torn line
/// and a killed run keeps everything emitted so far.
pub struct JsonlObserver {
    file: Mutex<std::fs::File>,
    path: PathBuf,
    start: Instant,
}

impl std::fmt::Debug for JsonlObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlObserver")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl JsonlObserver {
    /// Opens (creating or appending to) `path` and writes this segment's
    /// `run_start` line. `shard` is the run's shard identity, if any.
    ///
    /// # Errors
    /// File creation/write errors.
    pub fn append(path: impl Into<PathBuf>, shard: Option<ShardSpec>) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let observer = JsonlObserver {
            file: Mutex::new(file),
            path,
            start: Instant::now(),
        };
        let epoch_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let mut pairs = vec![
            ("type".to_string(), Json::Str("run_start".into())),
            ("v".to_string(), Json::Int(EVENTS_VERSION as i64)),
            ("t_ms".to_string(), Json::Int(0)),
            ("epoch_ms".to_string(), Json::Int(epoch_ms as i64)),
        ];
        if let Some(s) = shard {
            pairs.push(("shard".to_string(), Json::Str(s.to_string())));
        }
        observer.write_line(&Json::Obj(pairs))?;
        Ok(observer)
    }

    /// The file this observer writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes this segment's `run_end` trailer: the marker that the run
    /// shut down cleanly (as opposed to being killed mid-write). `reason`
    /// is free-form — the CLI writes `"complete"` on normal exit and
    /// `"signal"` from the SIGINT/SIGTERM path; the daemon writes
    /// `"drain"` on graceful shutdown.
    ///
    /// # Errors
    /// File write errors.
    pub fn finish(&self, reason: &str) -> io::Result<()> {
        self.finish_with_rasters(reason, None)
    }

    /// [`finish`](Self::finish) with the segment's raster-invocation
    /// count attached to the trailer. A fleet supervisor tailing several
    /// shard logs sums these to report the fleet-wide raster total — the
    /// number the `.relog` cache drives to zero on a warm run.
    ///
    /// # Errors
    /// File write errors.
    pub fn finish_with_rasters(&self, reason: &str, rasters: Option<u64>) -> io::Result<()> {
        let t_ms = self.start.elapsed().as_millis() as u64;
        let mut fields = vec![
            ("type".to_string(), Json::Str("run_end".into())),
            ("t_ms".to_string(), Json::Int(t_ms as i64)),
            ("reason".to_string(), Json::Str(reason.into())),
        ];
        if let Some(n) = rasters {
            fields.push(("rasters".to_string(), Json::Int(n as i64)));
        }
        self.write_line(&Json::Obj(fields))
    }

    fn write_line(&self, json: &Json) -> io::Result<()> {
        let mut line = json.to_string();
        line.push('\n');
        let mut file = self.file.lock().expect("events file poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

impl SweepObserver for JsonlObserver {
    fn on_event(&self, event: &SweepEvent<'_>) {
        let t_ms = self.start.elapsed().as_millis() as u64;
        // Observability must never kill the sweep: a full disk costs the
        // run log, not the run.
        let _ = self.write_line(&event_json(event, t_ms));
    }
}

fn ns(d: Duration) -> Json {
    Json::Int(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX) as i64)
}

/// Serializes one event as its `events.jsonl` object.
pub fn event_json(event: &SweepEvent<'_>, t_ms: u64) -> Json {
    let mut pairs: Vec<(String, Json)> = Vec::with_capacity(8);
    let mut push = |k: &str, v: Json| pairs.push((k.to_string(), v));
    match *event {
        SweepEvent::CaptureStart { scene, frames } => {
            push("type", Json::Str("capture_start".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("scene", Json::Str(scene.into()));
            push("frames", Json::Int(frames as i64));
        }
        SweepEvent::CaptureDone {
            scene,
            frames,
            duration,
        } => {
            push("type", Json::Str("capture_done".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("scene", Json::Str(scene.into()));
            push("frames", Json::Int(frames as i64));
            push("duration_ns", ns(duration));
        }
        SweepEvent::GroupStart {
            cells,
            render_jobs,
            workers,
            shard,
        } => {
            push("type", Json::Str("group_start".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("cells", Json::Int(cells as i64));
            push("render_jobs", Json::Int(render_jobs as i64));
            push("workers", Json::Int(workers as i64));
            if let Some(s) = shard {
                push("shard", Json::Str(s.to_string()));
            }
        }
        SweepEvent::RenderStart {
            scene,
            tile_size,
            worker,
        } => {
            push("type", Json::Str("render_start".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("scene", Json::Str(scene.into()));
            push("tile_size", Json::Int(tile_size as i64));
            push("worker", Json::Int(worker as i64));
        }
        SweepEvent::RenderDone {
            scene,
            tile_size,
            worker,
            frames,
            duration,
        } => {
            push("type", Json::Str("render_done".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("scene", Json::Str(scene.into()));
            push("tile_size", Json::Int(tile_size as i64));
            push("worker", Json::Int(worker as i64));
            push("frames", Json::Int(frames as i64));
            push("duration_ns", ns(duration));
        }
        SweepEvent::RenderChunkDone {
            scene,
            tile_size,
            worker,
            chunk,
            chunks,
            frames,
            duration,
        } => {
            push("type", Json::Str("render_chunk".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("scene", Json::Str(scene.into()));
            push("tile_size", Json::Int(tile_size as i64));
            push("worker", Json::Int(worker as i64));
            push("chunk", Json::Int(chunk as i64));
            push("chunks", Json::Int(chunks as i64));
            push("frames", Json::Int(frames as i64));
            push("duration_ns", ns(duration));
        }
        SweepEvent::RenderLogReplay {
            scene,
            tile_size,
            worker,
        } => {
            push("type", Json::Str("replay".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("scene", Json::Str(scene.into()));
            push("tile_size", Json::Int(tile_size as i64));
            push("worker", Json::Int(worker as i64));
        }
        SweepEvent::RenderLogSaved {
            scene,
            tile_size,
            bytes,
            duration,
        } => {
            push("type", Json::Str("log_saved".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("scene", Json::Str(scene.into()));
            push("tile_size", Json::Int(tile_size as i64));
            push("bytes", Json::Int(bytes as i64));
            push("duration_ns", ns(duration));
        }
        SweepEvent::EvalDone {
            cell,
            scene,
            worker,
            replayed,
            eval,
            store,
        } => {
            push("type", Json::Str("eval_done".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("cell", Json::Int(cell as i64));
            push("scene", Json::Str(scene.into()));
            push("worker", Json::Int(worker as i64));
            push("replayed", Json::Bool(replayed));
            push("eval_ns", ns(eval));
            push("store_ns", ns(store));
        }
        SweepEvent::CellDone {
            done,
            total,
            label,
            cells_per_sec,
            elapsed,
            eta,
        } => {
            push("type", Json::Str("cell_done".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("done", Json::Int(done as i64));
            push("total", Json::Int(total as i64));
            push("label", Json::Str(label.into()));
            push("cells_per_sec", Json::Float(cells_per_sec));
            push("elapsed_ns", ns(elapsed));
            if let Some(eta) = eta {
                push("eta_ns", ns(eta));
            }
        }
        SweepEvent::Progress {
            done,
            total,
            elapsed,
            cells_per_sec,
            eta,
        } => {
            push("type", Json::Str("progress".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("done", Json::Int(done as i64));
            push("total", Json::Int(total as i64));
            push("elapsed_ns", ns(elapsed));
            push("cells_per_sec", Json::Float(cells_per_sec));
            if let Some(eta) = eta {
                push("eta_ns", ns(eta));
            }
        }
        SweepEvent::StoreResume { resumed, pending } => {
            push("type", Json::Str("store_resume".into()));
            push("t_ms", Json::Int(t_ms as i64));
            push("resumed", Json::Int(resumed as i64));
            push("pending", Json::Int(pending as i64));
        }
    }
    Json::Obj(pairs)
}

/// One parsed `events.jsonl` line — the owned mirror of [`SweepEvent`]
/// plus the per-segment `run_start` header. Every variant carries its
/// `t_ms` monotonic timestamp.
#[derive(Debug, Clone, PartialEq)]
pub enum EventRecord {
    /// A run segment started.
    RunStart {
        /// Timestamp (always 0 for a segment header).
        t_ms: u64,
        /// Format version of the segment.
        version: u64,
        /// Wall-clock start in ms since the Unix epoch.
        epoch_ms: u64,
        /// Shard identity (`"k/n"`), when the segment ran a shard.
        shard: Option<String>,
    },
    /// A run segment ended cleanly (see [`JsonlObserver::finish`]). A
    /// segment without one was killed mid-run.
    RunEnd {
        /// Timestamp.
        t_ms: u64,
        /// Why the segment ended (`"complete"`, `"signal"`, `"drain"`, …).
        reason: String,
        /// Raster invocations this segment performed, when the writer
        /// recorded them ([`JsonlObserver::finish_with_rasters`]).
        rasters: Option<u64>,
    },
    /// Mirror of [`SweepEvent::CaptureStart`].
    CaptureStart {
        /// Timestamp.
        t_ms: u64,
        /// Workload alias.
        scene: String,
        /// Frames captured.
        frames: u64,
    },
    /// Mirror of [`SweepEvent::CaptureDone`].
    CaptureDone {
        /// Timestamp.
        t_ms: u64,
        /// Workload alias.
        scene: String,
        /// Frames captured.
        frames: u64,
        /// Capture duration in nanoseconds.
        duration_ns: u64,
    },
    /// Mirror of [`SweepEvent::GroupStart`].
    GroupStart {
        /// Timestamp.
        t_ms: u64,
        /// Eval jobs in the execution.
        cells: u64,
        /// Render jobs in the execution.
        render_jobs: u64,
        /// Worker threads.
        workers: u64,
        /// Shard identity (`"k/n"`), when sharded.
        shard: Option<String>,
    },
    /// Mirror of [`SweepEvent::RenderStart`].
    RenderStart {
        /// Timestamp.
        t_ms: u64,
        /// Workload alias of the render key.
        scene: String,
        /// Tile edge of the render key.
        tile_size: u64,
        /// Worker running the render.
        worker: u64,
    },
    /// Mirror of [`SweepEvent::RenderDone`].
    RenderDone {
        /// Timestamp.
        t_ms: u64,
        /// Workload alias of the render key.
        scene: String,
        /// Tile edge of the render key.
        tile_size: u64,
        /// Worker that rendered.
        worker: u64,
        /// Frames rendered.
        frames: u64,
        /// Stage A duration in nanoseconds.
        duration_ns: u64,
    },
    /// Mirror of [`SweepEvent::RenderChunkDone`].
    RenderChunk {
        /// Timestamp.
        t_ms: u64,
        /// Workload alias of the render key.
        scene: String,
        /// Tile edge of the render key.
        tile_size: u64,
        /// Worker that owned the render job.
        worker: u64,
        /// Chunk index (0-based, frame order).
        chunk: u64,
        /// Chunks the render was split into.
        chunks: u64,
        /// Frames this chunk rendered.
        frames: u64,
        /// The chunk's render duration in nanoseconds.
        duration_ns: u64,
    },
    /// Mirror of [`SweepEvent::RenderLogReplay`].
    Replay {
        /// Timestamp.
        t_ms: u64,
        /// Workload alias of the render key.
        scene: String,
        /// Tile edge of the render key.
        tile_size: u64,
        /// Worker that reached the job first.
        worker: u64,
    },
    /// Mirror of [`SweepEvent::RenderLogSaved`].
    LogSaved {
        /// Timestamp.
        t_ms: u64,
        /// Workload alias of the render key.
        scene: String,
        /// Tile edge of the render key.
        tile_size: u64,
        /// Artifact size on disk.
        bytes: u64,
        /// Encode plus atomic write (0 in logs written before it was
        /// recorded).
        duration_ns: u64,
    },
    /// Mirror of [`SweepEvent::EvalDone`].
    EvalDone {
        /// Timestamp.
        t_ms: u64,
        /// The cell's stable id.
        cell: u64,
        /// The cell's workload alias.
        scene: String,
        /// Worker that evaluated.
        worker: u64,
        /// Whether the cell's render key was decoded from a cached `.relog`.
        replayed: bool,
        /// Evaluation duration in nanoseconds.
        eval_ns: u64,
        /// Store-commit duration in nanoseconds.
        store_ns: u64,
    },
    /// Mirror of [`SweepEvent::CellDone`].
    CellDone {
        /// Timestamp.
        t_ms: u64,
        /// Cells finished so far.
        done: u64,
        /// Cells in the execution.
        total: u64,
        /// The cell's label.
        label: String,
        /// Mean completion rate.
        cells_per_sec: f64,
        /// Time since the execution started, in nanoseconds.
        elapsed_ns: u64,
        /// Windowed ETA in nanoseconds, when available.
        eta_ns: Option<u64>,
    },
    /// Mirror of [`SweepEvent::Progress`].
    Progress {
        /// Timestamp.
        t_ms: u64,
        /// Cells finished so far.
        done: u64,
        /// Cells in the execution.
        total: u64,
        /// Time since the execution started, in nanoseconds.
        elapsed_ns: u64,
        /// Mean completion rate.
        cells_per_sec: f64,
        /// Windowed ETA in nanoseconds, when available.
        eta_ns: Option<u64>,
    },
    /// Mirror of [`SweepEvent::StoreResume`].
    StoreResume {
        /// Timestamp.
        t_ms: u64,
        /// Cells already in the store.
        resumed: u64,
        /// Cells left to run.
        pending: u64,
    },
    /// A line with an unrecognized `"type"` — kept, not an error, so old
    /// tools survive new event kinds.
    Unknown {
        /// Timestamp (0 when absent).
        t_ms: u64,
        /// The unrecognized type tag.
        kind: String,
    },
}

impl EventRecord {
    /// Parses one `events.jsonl` object.
    ///
    /// # Errors
    /// A description of the missing/mistyped field. Unknown `"type"`s are
    /// *not* errors (see [`EventRecord::Unknown`]).
    pub fn from_json(v: &Json) -> Result<EventRecord, String> {
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing `type`")?;
        let t_ms = v.get("t_ms").and_then(Json::as_u64).unwrap_or(0);
        let num = |k: &str| -> Result<u64, String> { field(v, k)?.as_u64().ok_or(bad(kind, k)) };
        let text = |k: &str| -> Result<String, String> {
            Ok(field(v, k)?.as_str().ok_or(bad(kind, k))?.to_string())
        };
        let float = |k: &str| -> Result<f64, String> { field(v, k)?.as_f64().ok_or(bad(kind, k)) };
        let opt_num = |k: &str| v.get(k).and_then(Json::as_u64);
        let opt_text = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
        Ok(match kind {
            "run_start" => EventRecord::RunStart {
                t_ms,
                version: num("v")?,
                epoch_ms: num("epoch_ms")?,
                shard: opt_text("shard"),
            },
            "run_end" => EventRecord::RunEnd {
                t_ms,
                reason: text("reason")?,
                rasters: opt_num("rasters"),
            },
            "capture_start" => EventRecord::CaptureStart {
                t_ms,
                scene: text("scene")?,
                frames: num("frames")?,
            },
            "capture_done" => EventRecord::CaptureDone {
                t_ms,
                scene: text("scene")?,
                frames: num("frames")?,
                duration_ns: num("duration_ns")?,
            },
            "group_start" => EventRecord::GroupStart {
                t_ms,
                cells: num("cells")?,
                render_jobs: num("render_jobs")?,
                workers: num("workers")?,
                shard: opt_text("shard"),
            },
            "render_start" => EventRecord::RenderStart {
                t_ms,
                scene: text("scene")?,
                tile_size: num("tile_size")?,
                worker: num("worker")?,
            },
            "render_done" => EventRecord::RenderDone {
                t_ms,
                scene: text("scene")?,
                tile_size: num("tile_size")?,
                worker: num("worker")?,
                frames: num("frames")?,
                duration_ns: num("duration_ns")?,
            },
            "render_chunk" => EventRecord::RenderChunk {
                t_ms,
                scene: text("scene")?,
                tile_size: num("tile_size")?,
                worker: num("worker")?,
                chunk: num("chunk")?,
                chunks: num("chunks")?,
                frames: num("frames")?,
                duration_ns: num("duration_ns")?,
            },
            "replay" => EventRecord::Replay {
                t_ms,
                scene: text("scene")?,
                tile_size: num("tile_size")?,
                worker: num("worker")?,
            },
            "log_saved" => EventRecord::LogSaved {
                t_ms,
                scene: text("scene")?,
                tile_size: num("tile_size")?,
                bytes: num("bytes")?,
                duration_ns: opt_num("duration_ns").unwrap_or(0),
            },
            "eval_done" => EventRecord::EvalDone {
                t_ms,
                cell: num("cell")?,
                scene: text("scene")?,
                worker: num("worker")?,
                replayed: matches!(field(v, "replayed")?, Json::Bool(true)),
                eval_ns: num("eval_ns")?,
                store_ns: num("store_ns")?,
            },
            "cell_done" => EventRecord::CellDone {
                t_ms,
                done: num("done")?,
                total: num("total")?,
                label: text("label")?,
                cells_per_sec: float("cells_per_sec")?,
                elapsed_ns: num("elapsed_ns")?,
                eta_ns: opt_num("eta_ns"),
            },
            "progress" => EventRecord::Progress {
                t_ms,
                done: num("done")?,
                total: num("total")?,
                elapsed_ns: num("elapsed_ns")?,
                cells_per_sec: float("cells_per_sec")?,
                eta_ns: opt_num("eta_ns"),
            },
            "store_resume" => EventRecord::StoreResume {
                t_ms,
                resumed: num("resumed")?,
                pending: num("pending")?,
            },
            other => EventRecord::Unknown {
                t_ms,
                kind: other.to_string(),
            },
        })
    }
}

fn field<'a>(v: &'a Json, k: &str) -> Result<&'a Json, String> {
    v.get(k).ok_or_else(|| format!("missing `{k}`"))
}

fn bad(kind: &str, k: &str) -> String {
    format!("{kind}: field `{k}` has the wrong type")
}

/// Reads and parses a complete `events.jsonl` (all segments, in file
/// order). Empty lines are skipped; anything else must parse — with one
/// exception: an unparsable **final** line of a file that does not end in
/// `\n` is a torn tail (a writer was killed mid-`write`) and is silently
/// dropped. A newline-terminated bad line was written whole and is still
/// an error.
///
/// # Errors
/// I/O errors, or a parse error naming the offending line number.
pub fn read_events(path: impl AsRef<Path>) -> io::Result<Vec<EventRecord>> {
    let text = std::fs::read_to_string(path.as_ref())?;
    let torn_tail = !text.is_empty() && !text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = Json::parse(line).and_then(|v| EventRecord::from_json(&v));
        match parsed {
            Ok(record) => out.push(record),
            Err(_) if torn_tail && i + 1 == lines.len() => {}
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", path.as_ref().display(), i + 1),
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("re_events_{}_{name}", std::process::id()))
    }

    #[test]
    fn every_event_kind_round_trips() {
        let d = Duration::from_micros(1500);
        let events = [
            SweepEvent::CaptureStart {
                scene: "ccs",
                frames: 3,
            },
            SweepEvent::CaptureDone {
                scene: "ccs",
                frames: 3,
                duration: d,
            },
            SweepEvent::GroupStart {
                cells: 8,
                render_jobs: 2,
                workers: 4,
                shard: Some(ShardSpec { index: 0, count: 2 }),
            },
            SweepEvent::RenderStart {
                scene: "ccs",
                tile_size: 16,
                worker: 1,
            },
            SweepEvent::RenderDone {
                scene: "ccs",
                tile_size: 16,
                worker: 1,
                frames: 3,
                duration: d,
            },
            SweepEvent::RenderChunkDone {
                scene: "ccs",
                tile_size: 16,
                worker: 1,
                chunk: 0,
                chunks: 4,
                frames: 1,
                duration: d,
            },
            SweepEvent::RenderLogReplay {
                scene: "ccs",
                tile_size: 16,
                worker: 0,
            },
            SweepEvent::RenderLogSaved {
                scene: "ccs",
                tile_size: 16,
                bytes: 4096,
                duration: d,
            },
            SweepEvent::EvalDone {
                cell: 5,
                scene: "ccs",
                worker: 2,
                replayed: true,
                eval: d,
                store: Duration::from_nanos(300),
            },
            SweepEvent::CellDone {
                done: 3,
                total: 8,
                label: "ccs ts16",
                cells_per_sec: 1.5,
                elapsed: d,
                eta: Some(Duration::from_secs(2)),
            },
            SweepEvent::CellDone {
                done: 1,
                total: 8,
                label: "no eta yet",
                cells_per_sec: 0.0,
                elapsed: d,
                eta: None,
            },
            SweepEvent::Progress {
                done: 3,
                total: 8,
                elapsed: d,
                cells_per_sec: 1.5,
                eta: None,
            },
            SweepEvent::StoreResume {
                resumed: 4,
                pending: 4,
            },
        ];
        for event in &events {
            let json = event_json(event, 42);
            let parsed = Json::parse(&json.to_string()).expect("line parses");
            let record = EventRecord::from_json(&parsed).expect("record parses");
            assert!(
                !matches!(record, EventRecord::Unknown { .. }),
                "{event:?} must parse as a known record"
            );
        }
        // Spot-check one payload end to end.
        let json = event_json(&events[8], 9);
        let rec = EventRecord::from_json(&Json::parse(&json.to_string()).unwrap()).unwrap();
        assert_eq!(
            rec,
            EventRecord::EvalDone {
                t_ms: 9,
                cell: 5,
                scene: "ccs".into(),
                worker: 2,
                replayed: true,
                eval_ns: 1_500_000,
                store_ns: 300,
            }
        );
    }

    #[test]
    fn observer_writes_parsable_segments_and_appends() {
        let path = tmp("segments");
        let _ = std::fs::remove_file(&path);
        {
            let obs = JsonlObserver::append(&path, None).expect("open");
            obs.on_event(&SweepEvent::StoreResume {
                resumed: 0,
                pending: 2,
            });
        }
        {
            let obs =
                JsonlObserver::append(&path, Some(ShardSpec { index: 1, count: 3 })).expect("open");
            obs.on_event(&SweepEvent::CaptureStart {
                scene: "tib",
                frames: 2,
            });
        }
        let records = read_events(&path).expect("read");
        assert_eq!(records.len(), 4);
        assert!(matches!(
            records[0],
            EventRecord::RunStart {
                version: EVENTS_VERSION,
                shard: None,
                ..
            }
        ));
        assert!(matches!(
            &records[2],
            EventRecord::RunStart {
                shard: Some(s),
                ..
            } if s == "2/3"
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn log_saved_without_a_duration_reads_as_zero() {
        // Run logs written before persist timing existed still load.
        let line =
            "{\"type\":\"log_saved\",\"t_ms\":3,\"scene\":\"ccs\",\"tile_size\":16,\"bytes\":9}";
        let rec = EventRecord::from_json(&Json::parse(line).unwrap()).unwrap();
        assert_eq!(
            rec,
            EventRecord::LogSaved {
                t_ms: 3,
                scene: "ccs".into(),
                tile_size: 16,
                bytes: 9,
                duration_ns: 0,
            }
        );
    }

    #[test]
    fn unknown_types_are_kept_not_fatal() {
        let path = tmp("unknown");
        std::fs::write(&path, "{\"type\":\"from_the_future\",\"t_ms\":7}\n").unwrap();
        let records = read_events(&path).expect("read");
        assert_eq!(
            records,
            vec![EventRecord::Unknown {
                t_ms: 7,
                kind: "from_the_future".into()
            }]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_lines_are_reported_with_their_number() {
        let path = tmp("torn");
        std::fs::write(&path, "{\"type\":\"progress\",\"done\":1,\n{oops\n").unwrap();
        let err = read_events(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":1:"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn run_end_trailer_round_trips() {
        let path = tmp("run_end");
        let _ = std::fs::remove_file(&path);
        let obs = JsonlObserver::append(&path, None).expect("open");
        obs.finish("signal").expect("trailer");
        obs.finish_with_rasters("complete", Some(7))
            .expect("trailer");
        let records = read_events(&path).expect("read");
        assert_eq!(records.len(), 3);
        assert!(
            matches!(
                &records[1],
                EventRecord::RunEnd { reason, rasters: None, .. } if reason == "signal"
            ),
            "{records:?}"
        );
        assert!(
            matches!(
                &records[2],
                EventRecord::RunEnd { reason, rasters: Some(7), .. } if reason == "complete"
            ),
            "{records:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_without_newline_is_dropped_not_fatal() {
        let path = tmp("torn_tail");
        // A writer killed mid-write leaves a half line with no trailing
        // newline; everything before it must still parse.
        std::fs::write(
            &path,
            "{\"type\":\"progress\",\"done\":1,\"total\":2,\"elapsed_ns\":5,\
             \"cells_per_sec\":0.5}\n{\"type\":\"eval_do",
        )
        .unwrap();
        let records = read_events(&path).expect("torn tail tolerated");
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0], EventRecord::Progress { .. }));
        // The same garbage *with* a newline was written whole: still fatal.
        std::fs::write(&path, "{\"type\":\"eval_do\n").unwrap();
        assert!(read_events(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn two_concurrent_writers_interleave_without_splicing() {
        let path = tmp("two_writers");
        let _ = std::fs::remove_file(&path);
        // Two observers appending to one file from separate threads — the
        // daemon's overlapping-jobs-one-store shape. Every line must still
        // parse (O_APPEND + single-write lines never splice) and both
        // segment headers and trailers must land.
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let path = &path;
                scope.spawn(move || {
                    let obs = JsonlObserver::append(path, None).expect("open");
                    for i in 0..50 {
                        obs.on_event(&SweepEvent::EvalDone {
                            cell: (t * 1000 + i) as usize,
                            scene: "ccs",
                            worker: t as usize,
                            replayed: false,
                            eval: Duration::from_micros(i),
                            store: Duration::from_nanos(1),
                        });
                    }
                    obs.finish("complete").expect("trailer");
                });
            }
        });
        let records = read_events(&path).expect("all lines parse");
        assert_eq!(records.len(), 2 + 100 + 2);
        let starts = records
            .iter()
            .filter(|r| matches!(r, EventRecord::RunStart { .. }))
            .count();
        let ends = records
            .iter()
            .filter(|r| matches!(r, EventRecord::RunEnd { .. }))
            .count();
        assert_eq!((starts, ends), (2, 2));
        // Each writer's 50 cells all arrived intact.
        for t in 0..2u64 {
            let cells = records
                .iter()
                .filter(|r| matches!(r, EventRecord::EvalDone { cell, .. } if cell / 1000 == t))
                .count();
            assert_eq!(cells, 50, "writer {t}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
