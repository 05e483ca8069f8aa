//! End-to-end daemon tests: a real `Daemon` on an ephemeral port, real
//! TCP clients, and the dedup/determinism contract — a re-submitted grid
//! performs **zero** raster invocations and returns a `results.csv`
//! byte-identical to the one-shot `sweep run` of the same grid. Each job
//! reports the tiles its own execution rasterized, so the tests run
//! concurrently.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use re_serve::proto::{read_frame, write_frame};
use re_serve::{Client, Daemon, Request, Response, ServeConfig, MAX_LINE};
use re_sweep::json::Json;
use re_sweep::ExperimentGrid;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "re-serve-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

/// Binds a daemon on an ephemeral port and serves it on a thread.
/// Returns the address and the join handle (`shutdown` ends it).
fn start_daemon(root: PathBuf) -> (String, std::thread::JoinHandle<()>) {
    let daemon = Daemon::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        root,
        workers: 2,
    })
    .expect("bind daemon");
    let addr = daemon.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || daemon.run(None).expect("daemon run"));
    (addr, handle)
}

fn small_grid() -> ExperimentGrid {
    let mut grid = ExperimentGrid::default().with_scenes(&["ccs"]);
    grid.frames = 2;
    grid.set_axis(re_sweep::axis::TILE_SIZE, vec![16, 32])
        .expect("tile axis");
    grid
}

/// Submits `grid` and follows its `watch` stream until the job
/// completes; returns `(job id, raster invocations the daemon attributed
/// to it)`.
fn submit_and_wait(addr: &str, grid: &ExperimentGrid) -> (u64, u64) {
    let mut client = Client::connect(addr).expect("connect");
    let response = client
        .request(&Request::Submit {
            grid: Box::new(grid.clone()),
            shard: None,
        })
        .expect("submit");
    let job = response
        .field("job")
        .and_then(Json::as_u64)
        .expect("job id in submit response");
    client.watch(job, &mut |_| {}).expect("watch");
    let status = client.request(&Request::Status { job }).expect("status");
    match status.field("state").and_then(Json::as_str) {
        Some("done") => status
            .field("rasters")
            .and_then(Json::as_u64)
            .map(|rasters| (job, rasters))
            .expect("done job reports rasters"),
        Some("failed") => panic!(
            "job {job} failed: {:?}",
            status.field("error").and_then(Json::as_str)
        ),
        other => panic!("job {job} is {other:?} after its watch stream ended"),
    }
}

fn fetch_csv(addr: &str, job: u64) -> String {
    let mut client = Client::connect(addr).expect("connect");
    let response = client.request(&Request::Csv { job }).expect("csv");
    response
        .field("csv")
        .and_then(Json::as_str)
        .expect("csv payload")
        .to_string()
}

/// The headline dedup pin: two clients submit the same grid; the second
/// job costs zero raster invocations and both CSVs are byte-identical to
/// each other and to a one-shot in-process run of the same plan.
#[test]
fn second_submission_rasterizes_nothing_and_matches_one_shot_csv() {
    let root = tmp_dir("dedup");
    let (addr, handle) = start_daemon(root.clone());
    let grid = small_grid();

    let (job1, rasters1) = submit_and_wait(&addr, &grid);
    assert!(rasters1 > 0, "a cold submission must rasterize");

    // A second client, same grid: the shared cache covers every render
    // key, so Stage A costs nothing.
    let (job2, rasters2) = submit_and_wait(&addr, &grid);
    assert_eq!(rasters2, 0, "warm resubmission must not rasterize");

    let csv1 = fetch_csv(&addr, job1);
    let csv2 = fetch_csv(&addr, job2);
    assert_eq!(csv1, csv2, "daemon CSVs must be byte-identical");

    // One-shot reference run of the same grid: same CSV, and the same
    // Stage A work as the cold job.
    let out = tmp_dir("dedup-oneshot");
    let plan = re_sweep::SweepPlan::compile(&grid);
    let opts = re_sweep::SweepOptions {
        quiet: true,
        ..re_sweep::SweepOptions::default()
    };
    let oneshot = re_sweep::run_plan_with_store(&plan, &opts, &out).expect("one-shot run");
    let reference = std::fs::read_to_string(out.join("results.csv")).expect("one-shot csv");
    assert_eq!(csv1, reference, "daemon CSV must match one-shot CSV");
    assert_eq!(
        rasters1, oneshot.rasters,
        "the cold job renders every key once"
    );

    // The submit response advertised the dedup: every render job of the
    // second submission was already cached.
    let mut client = Client::connect(&addr).expect("connect");
    let status = client
        .request(&Request::Status { job: job2 })
        .expect("status");
    assert_eq!(
        status.field("cached_jobs").and_then(Json::as_u64),
        status.field("render_jobs").and_then(Json::as_u64),
        "warm submission must be fully cache-covered"
    );

    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("daemon thread");
    assert!(
        root.join("metrics.json").exists(),
        "graceful shutdown writes the metrics snapshot"
    );
}

/// `watch` streams the job's events and terminates with `done:true`.
#[test]
fn watch_streams_events_until_done() {
    let root = tmp_dir("watch");
    let (addr, handle) = start_daemon(root);
    let (job, _) = submit_and_wait(&addr, &small_grid());

    let mut client = Client::connect(&addr).expect("connect");
    let stream = TcpStream::connect(&addr).expect("raw connect");
    let mut writer = std::io::BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    write_frame(&mut writer, &Request::Watch { job }.to_json()).expect("send watch");
    let mut events = 0;
    loop {
        let line = read_frame(&mut reader)
            .expect("read watch frame")
            .expect("watch must end with done, not EOF");
        let response = Response::parse_line(&line).expect("watch frame parses");
        if response.field("done").is_some() {
            break;
        }
        assert!(response.field("event").is_some(), "frame is event or done");
        events += 1;
    }
    assert!(events > 0, "a completed job has a non-empty event stream");

    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("daemon thread");
}

/// Hostile input against a live daemon: garbage, unknown verbs and bad
/// ids get structured errors on the same connection; an oversized line
/// gets an error and a close; and the daemon serves normally afterwards.
#[test]
fn hostile_clients_get_errors_not_crashes() {
    let root = tmp_dir("hostile");
    let (addr, handle) = start_daemon(root);

    // Garbage, unknown verb, missing field, bad job id — one connection.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = std::io::BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    for line in [
        "this is not json\n",
        "{\"verb\":\"frobnicate\"}\n",
        "{\"verb\":\"status\"}\n",
        "{\"verb\":\"status\",\"job\":999}\n",
    ] {
        writer.write_all(line.as_bytes()).expect("send");
        writer.flush().expect("flush");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        let response = Response::parse_line(&reply).expect("reply parses");
        assert!(
            matches!(response, Response::Err(_)),
            "hostile line {line:?} must get a structured error, got {response:?}"
        );
    }
    // The connection survived all of that: a ping still answers.
    write_frame(&mut writer, &Request::Ping.to_json()).expect("send ping");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(matches!(
        Response::parse_line(&reply).expect("pong parses"),
        Response::Ok(_)
    ));

    // An oversized frame: structured error, then the daemon closes the
    // (no longer frame-aligned) connection.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = std::io::BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let mut big = vec![b'x'; MAX_LINE + 1];
    big.push(b'\n');
    writer.write_all(&big).expect("send oversized");
    writer.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(matches!(
        Response::parse_line(&reply).expect("error frame parses"),
        Response::Err(_)
    ));
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("read to EOF"),
        0,
        "daemon must close after an oversized frame"
    );

    // A truncated frame (no trailing newline, then EOF) must not wedge
    // or kill the daemon either.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = std::io::BufWriter::new(stream.try_clone().expect("clone"));
    writer.write_all(b"{\"verb\":\"pi").expect("send torn");
    writer.flush().expect("flush");
    drop(writer);
    drop(stream);

    // And after all that abuse, a well-formed client works.
    let mut client = Client::connect(&addr).expect("connect");
    let pong = client.request(&Request::Ping).expect("ping");
    assert!(matches!(pong, Response::Ok(_)));
    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("daemon thread");
}

/// The daemon shard path end to end — the exact data flow the `sweep
/// fleet` daemon backend drives: submit each shard of a partition with
/// `shard: Some(K/N)`, poll with the library `status` (which now carries
/// `done`), fetch records with the streaming `cells` verb, materialize
/// local shard stores from them, and `merge_stores` the result into a
/// CSV byte-identical to the unsharded one-shot run.
#[test]
fn sharded_submissions_merge_to_the_unsharded_csv() {
    let root = tmp_dir("shard");
    let (addr, handle) = start_daemon(root);
    let grid = small_grid(); // two render keys → a 2-way partition

    let plan = re_sweep::SweepPlan::compile(&grid);
    let fleet_root = tmp_dir("shard-fleet");
    let mut client = Client::connect(&addr).expect("connect");
    for index in 0..2 {
        let shard = re_sweep::ShardSpec { index, count: 2 };
        let outcome = client.submit(&grid, Some(shard)).expect("submit shard");
        let shard_plan = plan.shard(index, 2).expect("shard plan");
        assert_eq!(
            outcome.cells as usize,
            shard_plan.cell_count(),
            "daemon must accept the shard, not the whole grid"
        );
        client
            .watch(outcome.job, &mut |_| {})
            .expect("watch shard job");
        let snapshot = client.status(outcome.job).expect("status");
        assert_eq!(
            snapshot.state, "done",
            "shard job failed: {:?}",
            snapshot.error
        );
        assert_eq!(
            snapshot.done as usize,
            shard_plan.cell_count(),
            "status must count committed cells"
        );
        // Fetch the shard's records and materialize a local store — the
        // daemon's store stays on its own host in a real fleet.
        let records = client.cells(outcome.job).expect("cells");
        assert_eq!(records.len(), shard_plan.cell_count());
        let dir = fleet_root.join(format!("shards/shard-{index}"));
        let (store, _) =
            re_sweep::ResultStore::open_for_plan(&dir, &shard_plan).expect("shard store");
        for rec in &records {
            store.record(rec).expect("record");
        }
    }

    let merged = fleet_root.join("merged");
    re_sweep::merge_stores(&merged, &[fleet_root.join("shards")]).expect("merge");
    let merged_csv = std::fs::read_to_string(merged.join("results.csv")).expect("merged csv");

    let out = tmp_dir("shard-oneshot");
    let opts = re_sweep::SweepOptions {
        quiet: true,
        ..re_sweep::SweepOptions::default()
    };
    re_sweep::run_plan_with_store(&plan, &opts, &out).expect("one-shot run");
    let reference = std::fs::read_to_string(out.join("results.csv")).expect("one-shot csv");
    assert_eq!(
        merged_csv, reference,
        "merged daemon shards must reproduce the unsharded CSV byte for byte"
    );

    client.request(&Request::Shutdown).expect("shutdown");
    handle.join().expect("daemon thread");
}

/// Draining rejects new submissions but still answers status queries.
#[test]
fn draining_daemon_rejects_new_submissions() {
    let root = tmp_dir("drain");
    let (addr, handle) = start_daemon(root);
    // Connect BEFORE the drain: a draining daemon accepts no new
    // connections, so the rejection is only observable on one that was
    // already being served.
    let mut submitter = Client::connect(&addr).expect("connect");
    let mut client = Client::connect(&addr).expect("connect");
    client.request(&Request::Shutdown).expect("shutdown");
    let response = submitter
        .request(&Request::Submit {
            grid: Box::new(small_grid()),
            shard: None,
        })
        .expect("submit during drain");
    match response {
        Response::Err(e) => assert!(e.contains("draining"), "unexpected reason: {e}"),
        Response::Ok(_) => panic!("a draining daemon must reject submissions"),
    }
    drop(client);
    drop(submitter);
    handle.join().expect("daemon thread");
}

/// `submit --wait` must not read a done job without a raster count as 0
/// rasters (that would pass a warm-dedup check): it fails instead.
#[test]
fn submit_wait_fails_on_a_done_job_without_a_raster_count() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    // A fake daemon: accepts the submission, ends its watch stream, then
    // reports it done with no `rasters` field.
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        for reply in [
            r#"{"ok":true,"job":7,"cells":1,"render_jobs":1,"cached_jobs":0}"#,
            r#"{"ok":true,"done":true}"#,
            r#"{"ok":true,"job":7,"state":"done","cells":1,"done":1}"#,
        ] {
            read_frame(&mut reader).expect("read").expect("a request");
            write_frame(&mut writer, &Json::parse(reply).expect("reply")).expect("write");
        }
    });
    let args = [
        "--addr", &addr, "submit", "--wait", "--scenes", "ccs", "--frames", "1",
    ]
    .map(String::from);
    assert_ne!(re_serve::client::main(&args), ExitCode::SUCCESS);
    fake.join().expect("fake daemon");
}
