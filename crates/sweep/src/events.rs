//! The machine-readable run log: [`JsonlObserver`] serializes every
//! [`SweepEvent`] as one JSON line of an append-only, versioned
//! `events.jsonl` beside the store, and [`read_events`] parses the stream
//! back into [`EventRecord`]s carrying the same [`SweepEvent`]s — the
//! format `sweep profile` digests and the fleet supervisor tails.
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

use std::borrow::Cow;
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

/// A duration as the run log's integer nanoseconds (saturating).
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn ns(d: Duration) -> Json {
    Json::Int(nanos(d) as i64)
}

/// Serializes one event as its `events.jsonl` object.
/// [`SweepEvent::from_json`] below is its inverse, arm for arm.
pub fn event_json(event: &SweepEvent<'_>, t_ms: u64) -> Json {
    // The tag leads every line; the match below names it.
    let mut pairs: Vec<(String, Json)> = vec![
        ("type".to_string(), Json::Null),
        ("t_ms".to_string(), Json::Int(t_ms as i64)),
    ];
    let mut push = |k: &str, v: Json| pairs.push((k.to_string(), v));
    let kind = match event {
        SweepEvent::CaptureStart { scene, frames } => {
            push("scene", Json::Str(scene.to_string()));
            push("frames", Json::Int(*frames as i64));
            "capture_start"
        }
        SweepEvent::CaptureDone {
            scene,
            frames,
            duration,
        } => {
            push("scene", Json::Str(scene.to_string()));
            push("frames", Json::Int(*frames as i64));
            push("duration_ns", ns(*duration));
            "capture_done"
        }
        SweepEvent::GroupStart {
            cells,
            render_jobs,
            workers,
            shard,
        } => {
            push("cells", Json::Int(*cells as i64));
            push("render_jobs", Json::Int(*render_jobs as i64));
            push("workers", Json::Int(*workers as i64));
            if let Some(s) = shard {
                push("shard", Json::Str(s.to_string()));
            }
            "group_start"
        }
        SweepEvent::RenderStart {
            scene,
            tile_size,
            worker,
        } => {
            push("scene", Json::Str(scene.to_string()));
            push("tile_size", Json::Int(i64::from(*tile_size)));
            push("worker", Json::Int(*worker as i64));
            "render_start"
        }
        SweepEvent::RenderDone {
            scene,
            tile_size,
            worker,
            frames,
            duration,
        } => {
            push("scene", Json::Str(scene.to_string()));
            push("tile_size", Json::Int(i64::from(*tile_size)));
            push("worker", Json::Int(*worker as i64));
            push("frames", Json::Int(*frames as i64));
            push("duration_ns", ns(*duration));
            "render_done"
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
            push("scene", Json::Str(scene.to_string()));
            push("tile_size", Json::Int(i64::from(*tile_size)));
            push("worker", Json::Int(*worker as i64));
            push("chunk", Json::Int(*chunk as i64));
            push("chunks", Json::Int(*chunks as i64));
            push("frames", Json::Int(*frames as i64));
            push("duration_ns", ns(*duration));
            "render_chunk"
        }
        SweepEvent::RenderLogReplay {
            scene,
            tile_size,
            worker,
        } => {
            push("scene", Json::Str(scene.to_string()));
            push("tile_size", Json::Int(i64::from(*tile_size)));
            push("worker", Json::Int(*worker as i64));
            "replay"
        }
        SweepEvent::RenderLogSaved {
            scene,
            tile_size,
            bytes,
            duration,
        } => {
            push("scene", Json::Str(scene.to_string()));
            push("tile_size", Json::Int(i64::from(*tile_size)));
            push("bytes", Json::Int(*bytes as i64));
            push("duration_ns", ns(*duration));
            "log_saved"
        }
        SweepEvent::EvalDone {
            cell,
            scene,
            worker,
            replayed,
            eval,
            store,
        } => {
            push("cell", Json::Int(*cell as i64));
            push("scene", Json::Str(scene.to_string()));
            push("worker", Json::Int(*worker as i64));
            push("replayed", Json::Bool(*replayed));
            push("eval_ns", ns(*eval));
            push("store_ns", ns(*store));
            "eval_done"
        }
        SweepEvent::CellDone {
            done,
            total,
            label,
            cells_per_sec,
            elapsed,
            eta,
        } => {
            push("done", Json::Int(*done as i64));
            push("total", Json::Int(*total as i64));
            push("label", Json::Str(label.to_string()));
            push("cells_per_sec", Json::Float(*cells_per_sec));
            push("elapsed_ns", ns(*elapsed));
            if let Some(eta) = eta {
                push("eta_ns", ns(*eta));
            }
            "cell_done"
        }
        SweepEvent::Progress {
            done,
            total,
            elapsed,
            cells_per_sec,
            eta,
        } => {
            push("done", Json::Int(*done as i64));
            push("total", Json::Int(*total as i64));
            push("elapsed_ns", ns(*elapsed));
            push("cells_per_sec", Json::Float(*cells_per_sec));
            if let Some(eta) = eta {
                push("eta_ns", ns(*eta));
            }
            "progress"
        }
        SweepEvent::StoreResume { resumed, pending } => {
            push("resumed", Json::Int(*resumed as i64));
            push("pending", Json::Int(*pending as i64));
            "store_resume"
        }
    };
    pairs[0].1 = Json::Str(kind.into());
    Json::Obj(pairs)
}

impl SweepEvent<'static> {
    /// Parses one `events.jsonl` object written by [`event_json`] (the
    /// line's `t_ms` is left to the caller). `Ok(None)` when its `type`
    /// names no event kind: a segment marker, or a kind from a newer build.
    ///
    /// # Errors
    /// A description of the missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<Option<SweepEvent<'static>>, String> {
        let line = Line::new(v)?;
        Ok(Some(match line.kind {
            "capture_start" => SweepEvent::CaptureStart {
                scene: line.text("scene")?,
                frames: line.int("frames")?,
            },
            "capture_done" => SweepEvent::CaptureDone {
                scene: line.text("scene")?,
                frames: line.int("frames")?,
                duration: line.ns("duration_ns")?,
            },
            "group_start" => SweepEvent::GroupStart {
                cells: line.int("cells")?,
                render_jobs: line.int("render_jobs")?,
                workers: line.int("workers")?,
                shard: line
                    .opt_text("shard")
                    .map(|s| ShardSpec::parse(s).map_err(|_| line.bad("shard")))
                    .transpose()?,
            },
            "render_start" => SweepEvent::RenderStart {
                scene: line.text("scene")?,
                tile_size: line.int("tile_size")?,
                worker: line.int("worker")?,
            },
            "render_done" => SweepEvent::RenderDone {
                scene: line.text("scene")?,
                tile_size: line.int("tile_size")?,
                worker: line.int("worker")?,
                frames: line.int("frames")?,
                duration: line.ns("duration_ns")?,
            },
            "render_chunk" => SweepEvent::RenderChunkDone {
                scene: line.text("scene")?,
                tile_size: line.int("tile_size")?,
                worker: line.int("worker")?,
                chunk: line.int("chunk")?,
                chunks: line.int("chunks")?,
                frames: line.int("frames")?,
                duration: line.ns("duration_ns")?,
            },
            "replay" => SweepEvent::RenderLogReplay {
                scene: line.text("scene")?,
                tile_size: line.int("tile_size")?,
                worker: line.int("worker")?,
            },
            "log_saved" => SweepEvent::RenderLogSaved {
                scene: line.text("scene")?,
                tile_size: line.int("tile_size")?,
                bytes: line.int("bytes")?,
                // Logs written before persist timing existed lack it.
                duration: line.opt_ns("duration_ns").unwrap_or_default(),
            },
            "eval_done" => SweepEvent::EvalDone {
                cell: line.int("cell")?,
                scene: line.text("scene")?,
                worker: line.int("worker")?,
                replayed: matches!(line.field("replayed")?, Json::Bool(true)),
                eval: line.ns("eval_ns")?,
                store: line.ns("store_ns")?,
            },
            "cell_done" => SweepEvent::CellDone {
                done: line.int("done")?,
                total: line.int("total")?,
                label: line.text("label")?,
                cells_per_sec: line.float("cells_per_sec")?,
                elapsed: line.ns("elapsed_ns")?,
                eta: line.opt_ns("eta_ns"),
            },
            "progress" => SweepEvent::Progress {
                done: line.int("done")?,
                total: line.int("total")?,
                elapsed: line.ns("elapsed_ns")?,
                cells_per_sec: line.float("cells_per_sec")?,
                eta: line.opt_ns("eta_ns"),
            },
            "store_resume" => SweepEvent::StoreResume {
                resumed: line.int("resumed")?,
                pending: line.int("pending")?,
            },
            _ => return Ok(None),
        }))
    }
}

/// One parsed `events.jsonl` line: a [`SweepEvent`] with its `t_ms`
/// monotonic timestamp, or one of the run-log-only records around them.
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
    /// An event the executor emitted.
    Event {
        /// Timestamp.
        t_ms: u64,
        /// The event, as it was emitted.
        event: SweepEvent<'static>,
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
        let line = Line::new(v)?;
        let t_ms = v.get("t_ms").and_then(Json::as_u64).unwrap_or(0);
        Ok(match line.kind {
            "run_start" => EventRecord::RunStart {
                t_ms,
                version: line.int("v")?,
                epoch_ms: line.int("epoch_ms")?,
                shard: line.opt_text("shard").map(str::to_string),
            },
            "run_end" => EventRecord::RunEnd {
                t_ms,
                reason: line.text("reason")?.into_owned(),
                rasters: v.get("rasters").and_then(Json::as_u64),
            },
            kind => match SweepEvent::from_json(v)? {
                Some(event) => EventRecord::Event { t_ms, event },
                None => EventRecord::Unknown {
                    t_ms,
                    kind: kind.to_string(),
                },
            },
        })
    }
}

/// Typed access to one line's fields, with errors naming the line's type.
struct Line<'j> {
    v: &'j Json,
    kind: &'j str,
}

impl<'j> Line<'j> {
    fn new(v: &'j Json) -> Result<Self, String> {
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing `type`")?;
        Ok(Line { v, kind })
    }

    fn field(&self, k: &str) -> Result<&'j Json, String> {
        self.v.get(k).ok_or_else(|| format!("missing `{k}`"))
    }

    fn bad(&self, k: &str) -> String {
        format!("{}: field `{k}` has the wrong type", self.kind)
    }

    fn int<T: TryFrom<u64>>(&self, k: &str) -> Result<T, String> {
        self.field(k)?
            .as_u64()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| self.bad(k))
    }

    fn float(&self, k: &str) -> Result<f64, String> {
        self.field(k)?.as_f64().ok_or_else(|| self.bad(k))
    }

    fn ns(&self, k: &str) -> Result<Duration, String> {
        self.int(k).map(Duration::from_nanos)
    }

    fn opt_ns(&self, k: &str) -> Option<Duration> {
        self.v
            .get(k)
            .and_then(Json::as_u64)
            .map(Duration::from_nanos)
    }

    fn text(&self, k: &str) -> Result<Cow<'static, str>, String> {
        let s = self.field(k)?.as_str().ok_or_else(|| self.bad(k))?;
        Ok(Cow::Owned(s.to_string()))
    }

    fn opt_text(&self, k: &str) -> Option<&'j str> {
        self.v.get(k).and_then(Json::as_str)
    }
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

    /// One fixed event of every kind (two `cell_done`s: with and without
    /// an ETA).
    fn one_of_each() -> Vec<SweepEvent<'static>> {
        let d = Duration::from_micros(1500);
        vec![
            SweepEvent::CaptureStart {
                scene: "ccs".into(),
                frames: 3,
            },
            SweepEvent::CaptureDone {
                scene: "ccs".into(),
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
                scene: "ccs".into(),
                tile_size: 16,
                worker: 1,
            },
            SweepEvent::RenderDone {
                scene: "ccs".into(),
                tile_size: 16,
                worker: 1,
                frames: 3,
                duration: d,
            },
            SweepEvent::RenderChunkDone {
                scene: "ccs".into(),
                tile_size: 16,
                worker: 1,
                chunk: 0,
                chunks: 4,
                frames: 1,
                duration: d,
            },
            SweepEvent::RenderLogReplay {
                scene: "ccs".into(),
                tile_size: 16,
                worker: 0,
            },
            SweepEvent::RenderLogSaved {
                scene: "ccs".into(),
                tile_size: 16,
                bytes: 4096,
                duration: d,
            },
            SweepEvent::EvalDone {
                cell: 5,
                scene: "ccs".into(),
                worker: 2,
                replayed: true,
                eval: d,
                store: Duration::from_nanos(300),
            },
            SweepEvent::CellDone {
                done: 3,
                total: 8,
                label: "ccs ts16".into(),
                cells_per_sec: 1.5,
                elapsed: d,
                eta: Some(Duration::from_secs(2)),
            },
            SweepEvent::CellDone {
                done: 1,
                total: 8,
                label: "no eta yet".into(),
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
        ]
    }

    /// Strips a line's run-relative `t_ms` to 0, for pinning lines whose
    /// timestamp depends on how long the test took.
    fn zero_t_ms(line: &str) -> String {
        let (head, rest) = line.split_once("\"t_ms\":").expect("line has a t_ms");
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        format!("{head}\"t_ms\":0{}", &rest[digits..])
    }

    #[test]
    fn event_json_lines_are_pinned_byte_for_byte() {
        let want = [
            r#"{"type":"capture_start","t_ms":42,"scene":"ccs","frames":3}"#,
            r#"{"type":"capture_done","t_ms":42,"scene":"ccs","frames":3,"duration_ns":1500000}"#,
            r#"{"type":"group_start","t_ms":42,"cells":8,"render_jobs":2,"workers":4,"shard":"1/2"}"#,
            r#"{"type":"render_start","t_ms":42,"scene":"ccs","tile_size":16,"worker":1}"#,
            r#"{"type":"render_done","t_ms":42,"scene":"ccs","tile_size":16,"worker":1,"frames":3,"duration_ns":1500000}"#,
            r#"{"type":"render_chunk","t_ms":42,"scene":"ccs","tile_size":16,"worker":1,"chunk":0,"chunks":4,"frames":1,"duration_ns":1500000}"#,
            r#"{"type":"replay","t_ms":42,"scene":"ccs","tile_size":16,"worker":0}"#,
            r#"{"type":"log_saved","t_ms":42,"scene":"ccs","tile_size":16,"bytes":4096,"duration_ns":1500000}"#,
            r#"{"type":"eval_done","t_ms":42,"cell":5,"scene":"ccs","worker":2,"replayed":true,"eval_ns":1500000,"store_ns":300}"#,
            r#"{"type":"cell_done","t_ms":42,"done":3,"total":8,"label":"ccs ts16","cells_per_sec":1.5,"elapsed_ns":1500000,"eta_ns":2000000000}"#,
            r#"{"type":"cell_done","t_ms":42,"done":1,"total":8,"label":"no eta yet","cells_per_sec":0.0,"elapsed_ns":1500000}"#,
            r#"{"type":"progress","t_ms":42,"done":3,"total":8,"elapsed_ns":1500000,"cells_per_sec":1.5}"#,
            r#"{"type":"store_resume","t_ms":42,"resumed":4,"pending":4}"#,
        ];
        let got: Vec<String> = one_of_each()
            .iter()
            .map(|e| event_json(e, 42).to_string())
            .collect();
        assert_eq!(got, want);

        let path = tmp("pinned_run_end");
        let _ = std::fs::remove_file(&path);
        let obs = JsonlObserver::append(&path, None).expect("open");
        obs.finish_with_rasters("complete", Some(7))
            .expect("trailer");
        obs.finish("signal").expect("trailer");
        let text = std::fs::read_to_string(&path).expect("read");
        let trailers: Vec<String> = text.lines().skip(1).map(zero_t_ms).collect();
        assert_eq!(
            trailers,
            [
                r#"{"type":"run_end","t_ms":0,"reason":"complete","rasters":7}"#,
                r#"{"type":"run_end","t_ms":0,"reason":"signal"}"#,
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn every_event_kind_round_trips() {
        for event in one_of_each() {
            // Through the text, as a reader of the file sees it.
            let line = event_json(&event, 42).to_string();
            let parsed = EventRecord::from_json(&Json::parse(&line).expect("line parses"));
            assert_eq!(parsed, Ok(EventRecord::Event { t_ms: 42, event }), "{line}");
        }
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
                scene: "tib".into(),
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
            EventRecord::Event {
                t_ms: 3,
                event: SweepEvent::RenderLogSaved {
                    scene: "ccs".into(),
                    tile_size: 16,
                    bytes: 9,
                    duration: Duration::ZERO,
                },
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
        assert!(matches!(
            records[0],
            EventRecord::Event {
                event: SweepEvent::Progress { done: 1, .. },
                ..
            }
        ));
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
                            scene: "ccs".into(),
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
        for t in 0..2 {
            let cells = records
                .iter()
                .filter(|r| {
                    matches!(r, EventRecord::Event {
                        event: SweepEvent::EvalDone { cell, .. },
                        ..
                    } if cell / 1000 == t)
                })
                .count();
            assert_eq!(cells, 50, "writer {t}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
