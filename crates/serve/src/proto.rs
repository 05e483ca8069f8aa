//! The `sweep serve` wire protocol: line-delimited JSON frames over a
//! local TCP socket.
//!
//! Every frame is one JSON object on one `\n`-terminated line, at most
//! [`MAX_LINE`] bytes. Clients send [`Request`]s (`{"verb": ...}`); the
//! daemon answers each with one [`Response`] (`{"ok": true, ...}` or
//! `{"ok": false, "error": ...}`) — except `watch`, which streams one
//! `{"ok":true,"event":{...}}` frame per sweep event (the objects are the
//! `events.jsonl` records verbatim) before a final `{"ok":true,"done":
//! true}`. Malformed input — oversized lines, bad JSON, unknown verbs,
//! missing fields — always produces a structured error frame, never a
//! crash or a silent drop. The full schema lives in `docs/SERVING.md` and
//! `docs/FORMATS.md`.
//!
//! Both ends set `TCP_NODELAY` (`low_latency`) and write every frame
//! whole: a reply is flushed at once, a stream once per batch. Without
//! it, Nagle's algorithm would hold each later frame of a stream until
//! the peer's delayed ACK (about 40 ms on Linux), since the peer sends
//! nothing back mid-stream.
//!
//! Grids travel as `{"frames","width","height","axes":{name: "list"}}`,
//! with each axis list in the exact string form its CLI flag takes
//! ([`re_sweep::axis`] `parse_list`/`format_value`), so a grid
//! round-trips the codec bit-exactly and the daemon re-derives the same
//! fingerprint the client's one-shot run would.

use std::io::{self, BufRead};
use std::net::TcpStream;

use re_sweep::axis::{self, AXES};
use re_sweep::json::Json;
use re_sweep::{ExperimentGrid, ShardSpec};

/// Protocol version, echoed in `hello` responses.
pub const PROTO_VERSION: u64 = 1;

/// Upper bound on one frame (the `\n` included). A line longer than this
/// is rejected with a structured error and the connection is closed —
/// the daemon never buffers unbounded client input.
pub const MAX_LINE: usize = 1 << 20;

/// One client request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Submit a grid; the daemon replies with the assigned job id.
    Submit {
        /// The grid to run (boxed: it dwarfs the other variants).
        grid: Box<ExperimentGrid>,
        /// Run only this shard of the compiled plan (wire form `"K/N"`,
        /// 1-based, exactly like the CLI's `--shard`). `None` runs the
        /// whole grid. A fleet driver uses this to place one shard of a
        /// partition on a remote daemon.
        shard: Option<ShardSpec>,
    },
    /// One-shot snapshot of a job's state.
    Status {
        /// Job id from `submit`.
        job: u64,
    },
    /// Stream the job's sweep events until it completes.
    Watch {
        /// Job id from `submit`.
        job: u64,
    },
    /// Render the per-axis report tables of a completed job's store.
    Report {
        /// Job id from `submit`.
        job: u64,
    },
    /// Fetch a completed job's `results.csv` verbatim.
    Csv {
        /// Job id from `submit`.
        job: u64,
    },
    /// Stream a completed job's cell records, one
    /// `{"ok":true,"record":{...}}` frame per record (the `cell_*.json`
    /// store objects verbatim) then `{"ok":true,"done":true}`. Streaming
    /// keeps every frame far under [`MAX_LINE`] however large the grid —
    /// a fleet driver fetches a daemon shard's records this way to
    /// materialize a local store for the merge.
    Cells {
        /// Job id from `submit`.
        job: u64,
    },
    /// Snapshot of the daemon process's `re_obs` metrics registry.
    Metrics,
    /// Graceful drain: finish every accepted job, flush stores, run
    /// logs and metrics, then exit.
    Shutdown,
}

impl Request {
    /// The request's verb string.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Submit { .. } => "submit",
            Request::Status { .. } => "status",
            Request::Watch { .. } => "watch",
            Request::Report { .. } => "report",
            Request::Csv { .. } => "csv",
            Request::Cells { .. } => "cells",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }

    /// Serializes the request as its wire object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("verb".to_string(), Json::Str(self.verb().into()))];
        match self {
            Request::Submit { grid, shard } => {
                pairs.push(("grid".to_string(), grid_to_json(grid)));
                if let Some(s) = shard {
                    pairs.push(("shard".to_string(), Json::Str(s.to_string())));
                }
            }
            Request::Status { job }
            | Request::Watch { job }
            | Request::Report { job }
            | Request::Csv { job }
            | Request::Cells { job } => {
                pairs.push(("job".to_string(), Json::Int(*job as i64)));
            }
            Request::Ping | Request::Metrics | Request::Shutdown => {}
        }
        Json::Obj(pairs)
    }

    /// Parses one request frame.
    ///
    /// # Errors
    /// A description of what is malformed — bad JSON, an unknown verb, a
    /// missing or mistyped field. Never panics, whatever the input.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let v = Json::parse(line.trim()).map_err(|e| format!("bad frame: {e}"))?;
        let verb = v
            .get("verb")
            .and_then(Json::as_str)
            .ok_or("frame has no `verb`")?;
        let job = || -> Result<u64, String> {
            v.get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{verb}: missing or invalid `job`"))
        };
        match verb {
            "ping" => Ok(Request::Ping),
            "submit" => {
                let grid = grid_from_json(v.get("grid").ok_or("submit: missing `grid`")?)?;
                let shard = match v.get("shard") {
                    None => None,
                    Some(s) => {
                        let s = s.as_str().ok_or("submit: `shard` is not a string")?;
                        Some(ShardSpec::parse(s).map_err(|e| format!("submit: shard: {e}"))?)
                    }
                };
                Ok(Request::Submit {
                    grid: Box::new(grid),
                    shard,
                })
            }
            "status" => Ok(Request::Status { job: job()? }),
            "watch" => Ok(Request::Watch { job: job()? }),
            "report" => Ok(Request::Report { job: job()? }),
            "csv" => Ok(Request::Csv { job: job()? }),
            "cells" => Ok(Request::Cells { job: job()? }),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown verb `{other}`")),
        }
    }
}

/// One daemon response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success, with verb-specific payload fields.
    Ok(Vec<(String, Json)>),
    /// Failure, with a human-readable reason.
    Err(String),
}

impl Response {
    /// Serializes the response as its wire object.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Ok(fields) => {
                let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
                pairs.extend(fields.iter().cloned());
                Json::Obj(pairs)
            }
            Response::Err(e) => Json::Obj(vec![
                ("ok".to_string(), Json::Bool(false)),
                ("error".to_string(), Json::Str(e.clone())),
            ]),
        }
    }

    /// Parses one response frame.
    ///
    /// # Errors
    /// A description of what is malformed. Never panics.
    pub fn parse_line(line: &str) -> Result<Response, String> {
        let v = Json::parse(line.trim()).map_err(|e| format!("bad frame: {e}"))?;
        match v.get("ok") {
            Some(Json::Bool(true)) => {
                let fields = match &v {
                    Json::Obj(pairs) => pairs.iter().filter(|(k, _)| k != "ok").cloned().collect(),
                    _ => Vec::new(),
                };
                Ok(Response::Ok(fields))
            }
            // A well-formed failure frame parses fine — `Err` here is
            // reserved for frames that are themselves malformed.
            Some(Json::Bool(false)) => Ok(Response::Err(
                v.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified error")
                    .to_string(),
            )),
            _ => Err("frame has no boolean `ok`".to_string()),
        }
    }

    /// A payload field by name (`None` for errors and absent fields).
    pub fn field(&self, name: &str) -> Option<&Json> {
        match self {
            Response::Ok(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            Response::Err(_) => None,
        }
    }
}

/// Serializes a grid as its wire object. Every axis travels — including
/// ones still at their default — so the receiver reconstructs the grid
/// without consulting its own registry defaults.
pub fn grid_to_json(grid: &ExperimentGrid) -> Json {
    let axes = AXES
        .iter()
        .enumerate()
        .map(|(a, def)| {
            let list = grid
                .axis_values(a)
                .iter()
                .map(|&v| def.format_value(v))
                .collect::<Vec<_>>()
                .join(",");
            (def.name.to_string(), Json::Str(list))
        })
        .collect();
    Json::Obj(vec![
        ("frames".to_string(), Json::Int(grid.frames as i64)),
        ("width".to_string(), Json::Int(grid.width as i64)),
        ("height".to_string(), Json::Int(grid.height as i64)),
        ("axes".to_string(), Json::Obj(axes)),
    ])
}

/// Parses a grid from its wire object, validating every axis list
/// against the registry exactly like the CLI flags do.
///
/// # Errors
/// A description of the offending field or axis value.
pub fn grid_from_json(v: &Json) -> Result<ExperimentGrid, String> {
    let num = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("grid: missing or invalid `{k}`"))
    };
    let mut grid = ExperimentGrid::default();
    grid.frames = num("frames")? as usize;
    grid.width = u32::try_from(num("width")?).map_err(|_| "grid: `width` out of range")?;
    grid.height = u32::try_from(num("height")?).map_err(|_| "grid: `height` out of range")?;
    if grid.frames == 0 || grid.width == 0 || grid.height == 0 {
        return Err("grid: frames, width and height must be positive".to_string());
    }
    let Some(Json::Obj(axes)) = v.get("axes") else {
        return Err("grid: missing `axes` object".to_string());
    };
    for (name, list) in axes {
        let a = axis::by_name(name).ok_or_else(|| format!("grid: unknown axis `{name}`"))?;
        let list = list
            .as_str()
            .ok_or_else(|| format!("grid: axis `{name}` is not a string list"))?;
        let values = AXES[a]
            .parse_list(list)
            .map_err(|e| format!("grid: axis `{name}`: {e}"))?;
        grid.set_axis(a, values)
            .map_err(|e| format!("grid: axis `{name}`: {e}"))?;
    }
    Ok(grid)
}

/// Reads one frame from `src`: the next `\n`-terminated line, enforcing
/// [`MAX_LINE`]. Returns `Ok(None)` on a clean EOF.
///
/// # Errors
/// I/O errors, or [`io::ErrorKind::InvalidData`] for an oversized line
/// (the caller should report it and drop the connection — the rest of
/// the stream cannot be trusted to be frame-aligned).
pub fn read_frame(src: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    loop {
        let chunk = src.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a clean end between frames, or a torn final line —
            // either way there is no complete frame left.
            return Ok(if buf.is_empty() {
                None
            } else {
                Some(lossy(buf))
            });
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        if buf.len() + take > MAX_LINE {
            src.consume(take);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame exceeds {MAX_LINE} bytes"),
            ));
        }
        buf.extend_from_slice(&chunk[..take]);
        src.consume(take);
        if done {
            return Ok(Some(lossy(buf)));
        }
    }
}

fn lossy(buf: Vec<u8>) -> String {
    String::from_utf8_lossy(&buf).into_owned()
}

/// Writes `json` as one frame and flushes it.
///
/// # Errors
/// I/O errors.
pub fn write_frame(dst: &mut impl io::Write, json: &Json) -> io::Result<()> {
    write_frame_unflushed(dst, json)?;
    dst.flush()
}

/// Writes `json` as one frame without flushing: a stream writes a batch
/// of frames and flushes once, so the batch leaves in as few segments as
/// it fits.
///
/// # Errors
/// I/O errors.
pub(crate) fn write_frame_unflushed(dst: &mut impl io::Write, json: &Json) -> io::Result<()> {
    let mut line = json.to_string();
    line.push('\n');
    dst.write_all(line.as_bytes())
}

/// Sets `TCP_NODELAY` on `stream`, so a flushed frame leaves at once
/// instead of waiting for the peer's ACK of the previous one (see the
/// module docs). Every frame is written whole, so Nagle's coalescing has
/// nothing to save. The client and the daemon call this on every
/// connection before its first frame.
///
/// # Errors
/// Socket option failures.
pub(crate) fn low_latency(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn low_latency_sets_nodelay_on_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let connected = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        for stream in [&connected, &accepted] {
            low_latency(stream).expect("set nodelay");
            assert!(stream.nodelay().expect("read nodelay"));
        }
    }
}
