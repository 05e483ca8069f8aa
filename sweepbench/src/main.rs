//! The sweep benchmark. See `README.md` beside this package for the
//! workloads, the metrics and how to run it.
//!
//! ```text
//! sweepbench --workload <eval_warm|render_cold|serve_resubmit> --seed N --seconds S --trace 0|1
//! sweepbench --compare A.json B.json
//! sweepbench --bless
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct","attempted","failed","metrics"}`; the line before it is the
//! run's provenance. Both also go to `.bench_results/`.

mod util;
mod walk;
mod workloads;

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use re_obs::names;
use re_sweep::json::Json;

use util::{median, quantile, ratio, MB};
use walk::{Layers, PASSES};
use workloads::{Batch, Kind, Serve, Unit};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Batch units per run at least, whatever `--seconds` says.
const MIN_BATCH_UNITS: usize = 3;

/// Share of the executor's CPU time the traced walk's layer times must
/// account for (measured: 0.85–1.0 on the batch workloads, about 0.7 on
/// `serve_resubmit`, where the daemon's protocol work is outside the walk).
const MIN_LAYER_COVERAGE: f64 = 0.5;

const WORK: &str = ".bench_work";
const RESULTS: &str = ".bench_results";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| {
                    format!("unknown workload `{value}` (eval_warm, render_cold, serve_resubmit)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One named metric with its unit.
type Metric = (&'static str, f64, &'static str);

/// A finished run: what was checked and what was measured.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

/// The two workload shapes behind one interface.
enum Runner {
    Batch(Batch),
    Serve(Serve),
}

impl Runner {
    fn setup(&mut self) -> io::Result<f64> {
        match self {
            Runner::Batch(b) => b.setup(),
            Runner::Serve(s) => s.setup(),
        }
    }

    fn unit(&mut self, traced: bool) -> io::Result<Unit> {
        match self {
            Runner::Batch(b) => b.unit(traced),
            Runner::Serve(s) => s.unit(traced),
        }
    }

    /// Whether enough units ran: the time budget is spent and each
    /// statistic has its minimum sample count.
    fn enough(&self, units: &[Unit], start: Instant, seconds: f64) -> bool {
        let min_done = match self {
            Runner::Batch(_) => units.len() >= MIN_BATCH_UNITS,
            Runner::Serve(_) => {
                units.iter().map(|u| u.job_ms.len()).sum::<usize>() >= workloads::MIN_JOBS
            }
        };
        min_done && start.elapsed().as_secs_f64() >= seconds
    }
}

impl Report {
    fn tally(&mut self, units: &[Unit]) {
        for u in units {
            self.attempted += u.attempted;
            self.failed += u.failed;
            self.failures.extend(u.failures.iter().cloned());
        }
    }

    /// Records one run-level check.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }
}

/// The untraced run: set-ups, then timed units until the budget is spent.
fn run_untraced(runner: &mut Runner, setups: Vec<f64>, seconds: f64) -> io::Result<Report> {
    let start = Instant::now();
    let mut units = Vec::new();
    while !runner.enough(&units, start, seconds) {
        units.push(runner.unit(false)?);
    }
    let walls: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    let rates: Vec<f64> = units.iter().map(|u| u.cells as f64 / u.wall_s).collect();
    let jobs: Vec<f64> = units
        .iter()
        .flat_map(|u| u.job_ms.iter().copied())
        .collect();
    let artifacts: Vec<f64> = units.iter().map(|u| u.artifact_bytes as f64 / MB).collect();
    let mut report = Report {
        metrics: vec![
            ("wall_s", median(&walls), "s"),
            ("cells_per_s", median(&rates), "1/s"),
            ("setup_s", median(&setups), "s"),
            ("job_p50_ms", median(&jobs), "ms"),
            ("job_p90_ms", quantile(&jobs, 0.9), "ms"),
            ("peak_rss_mb", util::peak_rss_mb(), "MiB"),
            ("artifact_mb", median(&artifacts), "MiB"),
        ],
        ..Report::default()
    };
    report.tally(&units);
    eprintln!(
        "[sweepbench] {} units, {} job samples, unit walls {:.3?} s, cpu {:.2?} s",
        units.len(),
        jobs.len(),
        walls,
        units.iter().map(|u| u.cpu_s).collect::<Vec<_>>()
    );
    Ok(report)
}

/// The traced run: untraced and traced units alternate until the budget
/// is spent, then the serial layer walk re-runs the same keys.
fn run_traced(runner: &mut Runner, kind: Kind, work: &Path, seconds: f64) -> io::Result<Report> {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // Alternate which side runs first so drift hits both equally.
        if plain.len() % 2 == 0 {
            plain.push(runner.unit(false)?);
            traced.push(runner.unit(true)?);
        } else {
            traced.push(runner.unit(true)?);
            plain.push(runner.unit(false)?);
        }
    }
    let mut report = Report::default();
    report.tally(&plain);
    report.tally(&traced);

    let walk_dir = work.join("walk");
    util::clear(&walk_dir);
    let mut layers = Layers::default();
    match runner {
        Runner::Batch(b) => {
            let plan = b.last_plan.clone().expect("a unit ran");
            // `render_cold` units start cold, so its walk does too: the
            // walk's own empty cache instead of the last unit's.
            let cache = match kind {
                Kind::RenderCold => walk_dir.join("cache"),
                _ => b.cache(),
            };
            let csv = walk::walk(&plan, &cache, &walk_dir, b.compression(), &mut layers)?;
            report.check(csv == b.last_csv, || {
                "the walk's results.csv differs from the executor's".into()
            });
        }
        Runner::Serve(s) => {
            for (i, grid) in s.menu().iter().enumerate() {
                let plan = re_sweep::SweepPlan::compile(grid);
                let csv = walk::walk(
                    &plan,
                    &s.root().join("cache"),
                    &walk_dir.join(i.to_string()),
                    re_core::Compression::None,
                    &mut layers,
                )?;
                let want = workloads::reference(&workloads::menu_name(i)).unwrap_or("missing");
                report.check(util::digest(csv.as_bytes()) == want, || {
                    format!("the walk's results.csv of menu grid {i} differs")
                });
            }
        }
    }
    report.check(layers.roundtrip_failures == 0, || {
        "relog::decode did not reproduce a rendered log".into()
    });
    report.check(layers.rasters == kind.expected_rasters(), || {
        format!(
            "the walk rasterized {} times, expected {}",
            layers.rasters,
            kind.expected_rasters()
        )
    });
    // Stage accounting: the walked layers must account for the bulk of
    // the executor's CPU time, or a layer is missing from the walk.
    let cpu_s = median(&traced.iter().map(|u| u.cpu_s).collect::<Vec<_>>());
    let coverage = ratio(layers.busy_s(), cpu_s);
    report.check(coverage >= MIN_LAYER_COVERAGE, || {
        format!("the walked layers cover only {coverage:.2} of the executor's CPU time")
    });
    report.metrics = layer_metrics(&plain, &traced, &layers, cpu_s);
    Ok(report)
}

fn layer_metrics(plain: &[Unit], traced: &[Unit], layers: &Layers, cpu_s: f64) -> Vec<Metric> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let walls = |us: &[Unit]| median(&us.iter().map(|u| u.wall_s).collect::<Vec<_>>());
    let traces: Vec<&workloads::UnitTrace> =
        traced.iter().filter_map(|u| u.trace.as_ref()).collect();
    let last = traces.last().expect("a traced unit ran");
    let per_unit = |f: &dyn Fn(&Unit, &workloads::UnitTrace) -> f64| {
        median(
            &traced
                .iter()
                .filter_map(|u| u.trace.as_ref().map(|t| f(u, t)))
                .collect::<Vec<_>>(),
        )
    };
    let serve_ms = |f: &dyn Fn(&workloads::UnitTrace) -> &Vec<f64>| {
        median(
            &traces
                .iter()
                .flat_map(|t| f(t).iter().copied())
                .collect::<Vec<_>>(),
        )
    };

    // Float sums run over sorted values, so the walk's cell order (the
    // seed's scene order) cannot change their last bits.
    let records = &layers.records;
    let sorted_sum = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs.into_iter().sum::<f64>()
    };
    let geomean = (sorted_sum(records.iter().map(|r| r.speedup().ln()).collect())
        / records.len().max(1) as f64)
        .exp();
    let base_pj = sorted_sum(records.iter().map(|r| r.baseline_energy_pj).collect());
    let re_pj = sorted_sum(records.iter().map(|r| r.re_energy_pj).collect());
    let skipped: u64 = records.iter().map(|r| r.tiles_skipped).sum();
    let tiles: u64 = records
        .iter()
        .map(|r| r.tiles_skipped + r.tiles_rendered)
        .sum();
    let false_positives: u64 = records.iter().map(|r| r.false_positives).sum();

    let passes_s: f64 = layers.pass_s.iter().sum();
    let mut m: Vec<Metric> = vec![
        ("artifacts.capture_s", layers.capture_s, "s"),
        ("artifacts.validate_s", layers.validate_s, "s"),
        ("artifacts.write_s", layers.write_s, "s"),
        (
            "artifacts.trace_hits",
            last.counter(names::TRACE_HITS) as f64,
            "count",
        ),
        (
            "artifacts.trace_misses",
            last.counter(names::TRACE_MISSES) as f64,
            "count",
        ),
        (
            "artifacts.read_mb",
            last.counter(names::ARTIFACT_BYTES_READ) as f64 / MB,
            "MiB",
        ),
        (
            "artifacts.written_mb",
            last.counter(names::ARTIFACT_BYTES_WRITTEN) as f64 / MB,
            "MiB",
        ),
        ("render.busy_s", layers.render_busy_s, "s"),
        ("render.stitch_s", layers.render_stitch_s, "s"),
        ("render.rasters", layers.rasters as f64, "count"),
        (
            "render.ns_per_raster",
            ratio(layers.render_busy_s * 1e9, layers.rasters as f64),
            "ns",
        ),
        ("relog.encode_s", layers.encode_s, "s"),
        (
            "relog.encode_mb_s",
            ratio(layers.encode_raw_bytes as f64 / MB, layers.encode_s),
            "MiB/s",
        ),
        ("relog.decode_s", layers.decode_s, "s"),
        (
            "relog.decode_mb_s",
            ratio(layers.decode_bytes as f64 / MB, layers.decode_s),
            "MiB/s",
        ),
        ("relog.raw_mb", layers.raw_bytes as f64 / MB, "MiB"),
        ("relog.stored_mb", layers.stored_bytes as f64 / MB, "MiB"),
    ];
    let pass_names = [
        "passes.baseline_s",
        "passes.re_s",
        "passes.redundancy_s",
        "passes.te_s",
        "passes.memo_s",
    ];
    m.extend(
        pass_names
            .into_iter()
            .zip(layers.pass_s)
            .map(|(n, s)| (n, s, "s")),
    );
    m.extend([
        ("passes.driver_s", layers.driver_s, "s"),
        ("passes.evaluations", layers.evaluations as f64, "count"),
        (
            "passes.pass_executions",
            (layers.evaluations * PASSES.len() as u64) as f64,
            "count",
        ),
        ("passes.events", layers.events as f64, "count"),
        (
            "passes.ns_per_event",
            ratio(passes_s * 1e9, layers.events as f64),
            "ns",
        ),
        ("timing.sim_re_speedup_geomean", geomean, "x"),
        (
            "timing.sim_energy_saving",
            1.0 - ratio(re_pj, base_pj),
            "fraction",
        ),
        (
            "timing.sim_skip_frac",
            ratio(skipped as f64, tiles as f64),
            "fraction",
        ),
        (
            "timing.sim_false_positives",
            false_positives as f64,
            "count",
        ),
        ("store.commit_s", layers.commit_s, "s"),
        ("store.csv_s", layers.csv_s, "s"),
        ("exec.cpu_s", cpu_s, "s"),
        (
            "exec.busy_frac",
            per_unit(&|u, _| u.cpu_s / (u.wall_s * nproc)),
            "fraction",
        ),
        (
            "exec.layer_coverage",
            ratio(layers.busy_s(), cpu_s),
            "fraction",
        ),
        (
            "exec.profile_unexplained_frac",
            per_unit(&|u, t| 1.0 - ratio(t.profile_busy_s, u.cpu_s)),
            "fraction",
        ),
        ("serve.submit_ack_ms", serve_ms(&|t| &t.ack_ms), "ms"),
        ("serve.job_exec_ms", serve_ms(&|t| &t.exec_ms), "ms"),
        ("serve.overhead_ms", serve_ms(&|t| &t.overhead_ms), "ms"),
        (
            "trace_overhead_frac",
            walls(traced) / walls(plain) - 1.0,
            "fraction",
        ),
    ]);
    m
}

/// Where and on what the run happened. Results with different `nproc` or
/// `cpu_model` are never compared (see `--compare`).
fn provenance(args: &Args) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.kind.name().into())),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::Int(nproc as i64)),
        ("cpu_model".into(), Json::Str(cpu_model)),
        ("rustc".into(), Json::Str(command("rustc", &["--version"]))),
        (
            "git_rev".into(),
            Json::Str(command("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ])
}

fn result_json(report: &Report) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(report.failed == 0)),
        ("attempted".into(), Json::Int(report.attempted as i64)),
        ("failed".into(), Json::Int(report.failed as i64)),
        (
            "metrics".into(),
            Json::Obj(
                report
                    .metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::Float(value)),
                                ("unit".into(), Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run(args: &Args) -> io::Result<Report> {
    let work = PathBuf::from(WORK).join(args.kind.name());
    util::clear(&work);
    let mut runner = match args.kind {
        Kind::ServeResubmit => Runner::Serve(Serve::new(&work, args.seed)),
        kind => Runner::Batch(Batch::new(kind, &work, args.seed)),
    };
    let setups = (0..SETUPS)
        .map(|_| runner.setup())
        .collect::<io::Result<Vec<f64>>>()?;
    let report = if args.trace {
        run_traced(&mut runner, args.kind, &work, args.seconds)
    } else {
        run_untraced(&mut runner, setups, args.seconds)
    };
    if let Runner::Serve(s) = &mut runner {
        s.finish()?;
    }
    util::clear(&work);
    report
}

fn bench(argv: &[String]) -> ExitCode {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweepbench: {} run failed: {e}", args.kind.name());
            return ExitCode::FAILURE;
        }
    };
    for f in &report.failures {
        eprintln!("sweepbench: check failed: {f}");
    }
    let provenance = provenance(&args);
    let result = result_json(&report);
    let file = Json::Obj(vec![
        ("provenance".into(), provenance.clone()),
        ("result".into(), result.clone()),
    ]);
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(RESULTS)
        .and_then(|()| std::fs::write(Path::new(RESULTS).join(name), format!("{file}\n")))
    {
        eprintln!("sweepbench: cannot write the result file: {e}");
    }
    println!("{provenance}");
    println!("{result}");
    ExitCode::SUCCESS
}

/// Prints the relative change of every metric between two result files,
/// refusing results from different host topologies.
fn compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("usage: sweepbench --compare A.json B.json");
        return ExitCode::from(2);
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = |j: &Json, k: &str| j.get("provenance").and_then(|p| p.get(k)).cloned();
    for key in ["nproc", "cpu_model", "workload", "trace"] {
        if prov(&a, key) != prov(&b, key) {
            eprintln!(
                "sweepbench: refusing to compare: `{key}` differs ({:?} vs {:?})",
                prov(&a, key),
                prov(&b, key)
            );
            return ExitCode::from(3);
        }
    }
    let metric = |j: &Json, name: &str| {
        j.get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    let Some(Json::Obj(names)) = a.get("result").and_then(|r| r.get("metrics")) else {
        eprintln!("sweepbench: first file has no metrics");
        return ExitCode::from(2);
    };
    println!("{:<34} {:>14} {:>14} {:>9}", "metric", "a", "b", "change");
    for (name, _) in names {
        if let (Some(x), Some(y)) = (metric(&a, name), metric(&b, name)) {
            let change = if x == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", (y - x) / x * 100.0)
            };
            println!("{name:<34} {x:>14.4} {y:>14.4} {change:>9}");
        }
    }
    ExitCode::SUCCESS
}

/// Regenerates `reference.digests` from this build: each batch grid in
/// canonical scene order and each serve menu grid, run cold through the
/// default executor.
fn bless() -> ExitCode {
    let work = PathBuf::from(WORK).join("bless");
    let mut grids: Vec<(String, re_sweep::ExperimentGrid)> = [Kind::EvalWarm, Kind::RenderCold]
        .into_iter()
        .map(|k| (k.name().to_string(), k.grid(&k.canonical_scenes())))
        .collect();
    for (i, grid) in workloads::menu().into_iter().enumerate() {
        grids.push((workloads::menu_name(i), grid));
    }
    let mut out = String::new();
    for (name, grid) in grids {
        util::clear(&work);
        let opts = re_sweep::SweepOptions {
            quiet: true,
            ..re_sweep::SweepOptions::default()
        };
        let plan = re_sweep::SweepPlan::compile(&grid);
        let csv = re_sweep::run_plan_with_store(&plan, &opts, work.join("store"))
            .and_then(|s| std::fs::read(s.csv_path));
        match csv {
            Ok(csv) => out.push_str(&format!("{name} {}\n", util::digest(&csv))),
            Err(e) => {
                eprintln!("sweepbench: bless {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    util::clear(&work);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.digests");
    if let Err(e) = std::fs::write(&path, &out) {
        eprintln!("sweepbench: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    print!("{out}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--compare") => compare(&argv[1..]),
        Some("--bless") => bless(),
        _ => bench(&argv),
    }
}
