//! The daemon client: `sweep client --addr HOST:PORT <verb> …`, plus the
//! library calls (`submit`/`status`/`watch`/`cells`/[`watch_job`]) other
//! drivers — the `sweep fleet` daemon backend — build on.
//!
//! A thin cover over the wire protocol (see [`crate::proto`]): each verb
//! sends one request frame and prints the response. `submit` reuses the
//! `sweep run` flag grammar — everything `re_sweep::cli` accepts for a
//! one-shot run describes the grid here (`--shard K/N` included) — and
//! `--wait` follows the job's `watch` stream on the submit connection
//! until the daemon finishes it, exiting nonzero if it failed.

use std::io::{self, BufReader, BufWriter};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

use re_sweep::json::Json;
use re_sweep::{CellRecord, ExperimentGrid, ShardSpec};

use crate::proto::{low_latency, read_frame, write_frame, Request, Response};

/// What a successful `submit` returned.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// The assigned job id.
    pub job: u64,
    /// Cells the job will run.
    pub cells: u64,
    /// Render jobs the job's plan holds.
    pub render_jobs: u64,
    /// Render jobs a cached `.relog` already satisfies.
    pub cached_jobs: u64,
    /// The grid fingerprint the daemon derived (hex, as on the wire).
    pub fingerprint: String,
}

/// One `status` snapshot of a daemon job.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// `"queued"`, `"running"`, `"done"` or `"failed"`.
    pub state: String,
    /// Cells the job runs in total.
    pub cells: u64,
    /// Cells committed so far (store-resume base included).
    pub done: u64,
    /// Raster invocations the daemon attributed to the job (set once it
    /// finished).
    pub rasters: Option<u64>,
    /// The failure reason, when `state` is `"failed"`.
    pub error: Option<String>,
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        low_latency(&stream)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends `request` and reads the single response frame.
    ///
    /// # Errors
    /// I/O failures, a closed connection, or an unparsable frame.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.writer, &request.to_json())?;
        self.read_response()
    }

    /// Reads the next response frame (for `watch`/`cells` streams).
    ///
    /// # Errors
    /// I/O failures, a closed connection, or an unparsable frame.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let line = read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
        })?;
        Response::parse_line(&line)
            .map(Ok)
            .unwrap_or_else(|e| Err(io::Error::new(io::ErrorKind::InvalidData, e)))
    }

    /// Submits `grid` (optionally one shard of its plan) and returns the
    /// daemon's acceptance.
    ///
    /// # Errors
    /// I/O failures; a daemon error frame (bad grid, bad shard, daemon
    /// draining) surfaces as [`io::ErrorKind::Other`] with the daemon's
    /// message.
    pub fn submit(
        &mut self,
        grid: &ExperimentGrid,
        shard: Option<ShardSpec>,
    ) -> io::Result<SubmitOutcome> {
        let response = self.request(&Request::Submit {
            grid: Box::new(grid.clone()),
            shard,
        })?;
        let num = |k: &str| {
            response.field(k).and_then(Json::as_u64).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("submit response missing `{k}`"),
                )
            })
        };
        match &response {
            Response::Err(e) => Err(io::Error::other(format!("submit: {e}"))),
            Response::Ok(_) => Ok(SubmitOutcome {
                job: num("job")?,
                cells: num("cells")?,
                render_jobs: num("render_jobs")?,
                cached_jobs: num("cached_jobs")?,
                fingerprint: response
                    .field("fingerprint")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
        }
    }

    /// One `status` snapshot of job `job`.
    ///
    /// # Errors
    /// I/O failures; an unknown job surfaces as [`io::ErrorKind::Other`]
    /// with the daemon's message.
    pub fn status(&mut self, job: u64) -> io::Result<JobSnapshot> {
        let response = self.request(&Request::Status { job })?;
        match &response {
            Response::Err(e) => Err(io::Error::other(format!("status: {e}"))),
            Response::Ok(_) => {
                let num = |k: &str| response.field(k).and_then(Json::as_u64);
                Ok(JobSnapshot {
                    state: response
                        .field("state")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_string(),
                    cells: num("cells").unwrap_or(0),
                    done: num("done").unwrap_or(0),
                    rasters: num("rasters"),
                    error: response
                        .field("error")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                })
            }
        }
    }

    /// Fetches a completed job's cell records (the store objects,
    /// streamed one frame each and reassembled here, in cell-id order).
    /// The connection stays frame-aligned and reusable afterwards.
    ///
    /// # Errors
    /// I/O failures; a daemon error frame (unknown or unfinished job) or
    /// an unparsable record surfaces with its message.
    pub fn cells(&mut self, job: u64) -> io::Result<Vec<CellRecord>> {
        write_frame(&mut self.writer, &Request::Cells { job }.to_json())?;
        let mut records = Vec::new();
        loop {
            match self.read_response()? {
                Response::Ok(fields) => {
                    if fields.iter().any(|(k, _)| k == "done") {
                        return Ok(records);
                    }
                    let Some((_, record)) = fields.iter().find(|(k, _)| k == "record") else {
                        continue;
                    };
                    records.push(CellRecord::from_json(record).map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("cells: {e}"))
                    })?);
                }
                Response::Err(e) => return Err(io::Error::other(format!("cells: {e}"))),
            }
        }
    }

    /// Follows job `job`'s `watch` stream on this connection, handing
    /// each event to `sink`, until the daemon's `done` trailer (the job
    /// has finished, failed or not: ask `status` which). The connection
    /// stays frame-aligned and reusable afterwards.
    ///
    /// # Errors
    /// I/O failures (a connection closed before the trailer is
    /// [`io::ErrorKind::UnexpectedEof`]); a daemon error frame (unknown
    /// job) surfaces as [`io::ErrorKind::Other`] with its message.
    pub fn watch(&mut self, job: u64, sink: &mut dyn FnMut(&Json)) -> io::Result<()> {
        match self.follow_watch(job, sink) {
            Ok(true) => Ok(()),
            Ok(false) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("watch: daemon closed job {job}'s stream before it was done"),
            )),
            Err(WatchFailure::Daemon(e)) => Err(io::Error::other(format!("watch: {e}"))),
            Err(WatchFailure::Stream(e)) => Err(e),
        }
    }

    /// Sends `watch` and delivers the stream's events to `sink`:
    /// `Ok(true)` on the `done` trailer, `Ok(false)` on a quiet EOF
    /// (connection closed with the job still going).
    fn follow_watch(
        &mut self,
        job: u64,
        sink: &mut dyn FnMut(&Json),
    ) -> Result<bool, WatchFailure> {
        write_frame(&mut self.writer, &Request::Watch { job }.to_json())
            .map_err(WatchFailure::Stream)?;
        loop {
            match self.read_response() {
                Ok(Response::Ok(fields)) => {
                    if fields.iter().any(|(k, _)| k == "done") {
                        return Ok(true);
                    }
                    if let Some((_, event)) = fields.iter().find(|(k, _)| k == "event") {
                        sink(event);
                    }
                }
                Ok(Response::Err(e)) => return Err(WatchFailure::Daemon(e)),
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
                Err(e) => return Err(WatchFailure::Stream(e)),
            }
        }
    }
}

/// How long [`watch_job`] sleeps between reconnect attempts.
const WATCH_RETRY: Duration = Duration::from_millis(100);

/// Reconnect attempts [`watch_job`] tolerates without a single *new*
/// event before giving up (~60 s of a daemon that accepts connections
/// but never makes progress). Any new event resets the budget.
const WATCH_MAX_QUIET: u32 = 600;

/// Streams job `job`'s events into `sink` until the daemon's `done`
/// trailer — the stream's `run_end` — is seen.
///
/// A quiet EOF is **not** the end of the job: a watcher that connects
/// before the job starts emitting events (or across a daemon blip) just
/// sees its stream close early. This reconnects and resumes instead of
/// exiting; the daemon replays the job's full event buffer to every
/// watcher, so already-delivered events are skipped by count and `sink`
/// sees each event exactly once, in order.
///
/// # Errors
/// A daemon error frame (e.g. no such job) fails immediately;
/// connect/read failures fail only after `WATCH_MAX_QUIET` consecutive
/// attempts without progress.
pub fn watch_job(addr: &str, job: u64, sink: &mut dyn FnMut(&Json)) -> Result<(), String> {
    let mut seen = 0usize;
    let mut quiet = 0u32;
    let mut last_error = "stream stayed quiet".to_string();
    loop {
        let before = seen;
        match watch_attempt(addr, job, &mut seen, sink) {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            Err(WatchFailure::Daemon(e)) => return Err(e),
            Err(WatchFailure::Stream(e)) => last_error = e.to_string(),
        }
        quiet = if seen > before { 0 } else { quiet + 1 };
        if quiet >= WATCH_MAX_QUIET {
            return Err(format!(
                "watch: no progress after {quiet} attempts (last error: {last_error})"
            ));
        }
        std::thread::sleep(WATCH_RETRY);
    }
}

/// Why one watch connection ended without a `done` trailer.
enum WatchFailure {
    /// The daemon rejected the watch (unknown job) — not retryable.
    Daemon(String),
    /// The connection failed or closed early — reconnect and resume.
    Stream(io::Error),
}

/// One watch connection: delivers events past `*seen` to `sink`,
/// returning `Ok(true)` on the `done` trailer and `Ok(false)` on a quiet
/// EOF (connection closed with the job still going).
fn watch_attempt(
    addr: &str,
    job: u64,
    seen: &mut usize,
    sink: &mut dyn FnMut(&Json),
) -> Result<bool, WatchFailure> {
    let mut client = Client::connect(addr).map_err(WatchFailure::Stream)?;
    // The daemon replays the buffer from the start on every connection;
    // `index` counts this connection's frames so replayed events are
    // delivered to `sink` only once across reconnects.
    let mut index = 0usize;
    client.follow_watch(job, &mut |event| {
        if index >= *seen {
            sink(event);
            *seen = index + 1;
        }
        index += 1;
    })
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("sweep client: {msg}");
    ExitCode::from(2)
}

/// Runs the `sweep client` subcommand. `args` is everything after the
/// literal `client`.
pub fn main(args: &[String]) -> ExitCode {
    let mut addr = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--addr" {
            match it.next() {
                Some(v) => addr = Some(v.clone()),
                None => return fail("--addr needs a value"),
            }
        } else {
            rest.push(a.clone());
        }
    }
    let Some(addr) = addr else {
        return fail("missing --addr HOST:PORT (where is the daemon?)");
    };
    let Some((verb, verb_args)) = rest.split_first() else {
        return fail(
            "missing verb: submit | status | watch | report | csv | metrics | ping | shutdown",
        );
    };

    let job_arg = || -> Result<u64, String> {
        match verb_args {
            [flag, n] if flag == "--job" => n
                .parse()
                .map_err(|_| format!("--job: `{n}` is not a job id")),
            _ => Err(format!("{verb} needs exactly `--job N`")),
        }
    };

    match verb.as_str() {
        "submit" => submit(&addr, verb_args),
        "watch" => match job_arg() {
            Ok(job) => watch(&addr, job),
            Err(e) => fail(&e),
        },
        "status" | "report" | "csv" => {
            let job = match job_arg() {
                Ok(j) => j,
                Err(e) => return fail(&e),
            };
            let request = match verb.as_str() {
                "status" => Request::Status { job },
                "report" => Request::Report { job },
                _ => Request::Csv { job },
            };
            one_shot(&addr, &request)
        }
        "metrics" => one_shot(&addr, &Request::Metrics),
        "ping" => one_shot(&addr, &Request::Ping),
        "shutdown" => one_shot(&addr, &Request::Shutdown),
        other => fail(&format!("unknown verb `{other}`")),
    }
}

/// Sends one request; prints string payloads raw (so `csv`/`report`
/// pipe cleanly) and everything else as the JSON payload object.
fn one_shot(addr: &str, request: &Request) -> ExitCode {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return fail(&format!("connect {addr}: {e}")),
    };
    match client.request(request) {
        Ok(Response::Ok(fields)) => {
            match fields.as_slice() {
                // A single string payload (csv, report) prints verbatim.
                [(_, Json::Str(s))] => print!("{s}"),
                _ => println!("{}", Json::Obj(fields.to_vec())),
            }
            ExitCode::SUCCESS
        }
        Ok(Response::Err(e)) => fail(&e),
        Err(e) => fail(&format!("{}: {e}", request.verb())),
    }
}

fn watch(addr: &str, job: u64) -> ExitCode {
    match watch_job(addr, job, &mut |event| println!("{event}")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn submit(addr: &str, args: &[String]) -> ExitCode {
    let wait = args.iter().any(|a| a == "--wait");
    let run_flags: Vec<String> = args.iter().filter(|a| *a != "--wait").cloned().collect();
    // The submission grid speaks the exact `sweep run` flag grammar —
    // `--shard K/N` travels too, so a daemon can run one shard of a
    // partition.
    let (grid, shard) = match re_sweep::cli::parse(&run_flags) {
        Ok(re_sweep::cli::Command::Run(run)) => (run.grid, run.shard),
        Ok(_) => return fail("submit takes run flags (axis lists, --frames, …), not a subcommand"),
        Err(e) => return fail(&format!("submit: {e}")),
    };

    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return fail(&format!("connect {addr}: {e}")),
    };
    let outcome = match client.submit(&grid, shard) {
        Ok(o) => o,
        Err(e) => return fail(&e.to_string()),
    };
    let job = outcome.job;
    eprintln!(
        "[sweep client] submitted job {job} ({} render jobs, {} already cached)",
        outcome.render_jobs, outcome.cached_jobs
    );
    if !wait {
        println!("{job}");
        return ExitCode::SUCCESS;
    }

    // The watch stream ends once the daemon has set the job's final
    // state, so one `status` afterwards reads it.
    if let Err(e) = client.watch(job, &mut |_| {}) {
        return fail(&e.to_string());
    }
    let status = match client.status(job) {
        Ok(s) => s,
        Err(e) => return fail(&e.to_string()),
    };
    match status.state.as_str() {
        "done" => {
            // A done job always carries its count; a missing one must
            // not read as 0, which would pass CI's warm-dedup grep.
            let Some(rasters) = status.rasters else {
                return fail(&format!("job {job} is done but reports no raster count"));
            };
            // The daemon-side analog of the one-shot CLI's raster
            // line (CI greps for it to pin warm-cache dedup).
            eprintln!("[sweep client] job {job} raster invocations: {rasters}");
            println!("{job}");
            ExitCode::SUCCESS
        }
        "failed" => fail(&format!(
            "job {job} failed: {}",
            status.error.as_deref().unwrap_or("unknown error")
        )),
        other => fail(&format!(
            "job {job} is {other} after its watch stream ended"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_connected_client_sets_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client =
            Client::connect(&listener.local_addr().expect("addr").to_string()).expect("connect");
        assert!(client.writer.get_ref().nodelay().expect("read nodelay"));
    }
}
