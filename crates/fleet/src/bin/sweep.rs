//! The `sweep` CLI: run an experiment grid across the workload suite on a
//! work-stealing worker pool, with trace caching and a resumable store.
//!
//! ```text
//! sweep [OPTIONS]            run a grid (axis flags come from the registry)
//! sweep --shard K/N ...      run one shard of the grid's plan (by render key)
//! sweep merge <out> <in>...  union per-shard stores into one store
//! sweep report [--store DIR] digest a store into comparison/marginal tables
//! sweep profile [--store DIR] timing profile from a store's events.jsonl
//! sweep import <file.retrace> install an external capture as trace:<alias>
//! sweep axes                 print every registered axis (living docs)
//! sweep serve --addr A       long-running daemon: submit grids over TCP
//! sweep client --addr A ...  talk to a daemon (submit/status/watch/csv/...)
//! sweep fleet ...            run a sharded sweep end to end (see below)
//! ```
//!
//! All parsing lives in `re_sweep::cli`, generated from the axis registry
//! (`re_sweep::axis`); this binary only dispatches. The grid is compiled
//! into an explicit `SweepPlan` (one render job per render key, one eval
//! job per cell): cells sharing a render key — the same (scene, screen,
//! tile size, binning) — are rasterized **once** and share the recorded
//! render log; only the evaluation stage runs per cell. `--shard K/N`
//! runs the K-th of N render-key partitions of the plan; merging every
//! shard's store reproduces the unsharded `results.csv` byte for byte.
//!
//! `sweep fleet` automates the whole sharded shape (the `re_fleet`
//! crate): it takes the same run flags plus `--local-procs N` and/or
//! `--daemon HOST:PORT`, partitions the plan across those workers,
//! supervises them (liveness via run-log heartbeats, bounded retry of
//! dead shards), and merges + reports when the last shard lands.
//!
//! Re-running with the same `--out` resumes: completed cells are skipped and
//! `results.csv` is regenerated over the full grid. The CSV is byte-identical
//! for any `--workers` value, across kill/resume, with or without a warm
//! render-log cache, and across shard/merge.
//!
//! Observability: store runs also append a machine-readable run log
//! (`events.jsonl` beside the store; `--no-events` disables it) that
//! `sweep profile` digests into stage breakdowns and cache-hit rates, and
//! `--metrics PATH` dumps the process metrics registry (counters and
//! duration histograms) as versioned JSON on exit.
//!
//! Lifecycle: `sweep run`, `sweep serve` and `sweep fleet` handle
//! SIGINT/SIGTERM gracefully — the store keeps every committed cell, the
//! run log gets a `run_end` trailer, `--metrics` still dumps, a daemon
//! drains its queue before exiting, and a fleet kills its workers and
//! saves its manifest. Re-running the same `--out` resumes.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use re_sweep::cli::{self, Command, RunArgs};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The daemon and fleet verbs live in re_serve/re_fleet; everything
    // else in re_sweep::cli.
    match argv.first().map(String::as_str) {
        Some("serve") => return run_serve(&argv[1..]),
        Some("client") => return re_serve::client::main(&argv[1..]),
        Some("fleet") => return run_fleet(&argv[1..]),
        _ => {}
    }
    match cli::parse(&argv) {
        Ok(Command::Help) => {
            print!("{}", cli::usage());
            ExitCode::SUCCESS
        }
        Ok(Command::Axes) => {
            print!("{}", cli::render_axes_table());
            ExitCode::SUCCESS
        }
        Ok(Command::Import { src, alias, dir }) => run_import(&src, alias.as_deref(), &dir),
        Ok(Command::Report { store }) => run_report(&store),
        Ok(Command::Profile { store }) => run_profile(&store),
        Ok(Command::Merge { out, inputs }) => run_merge(&out, &inputs),
        Ok(Command::Run(args)) => run_sweep(*args),
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_fleet(args: &[String]) -> ExitCode {
    let fleet = match re_fleet::cli::parse(args) {
        Ok(fleet) => fleet,
        Err(e) => {
            eprintln!("sweep fleet: {e}");
            return ExitCode::from(2);
        }
    };
    if fleet.dry_run {
        let plan = re_sweep::SweepPlan::compile(&fleet.run.grid);
        print!("{}", re_fleet::render_dry_run(&fleet, &plan));
        return ExitCode::SUCCESS;
    }
    let result = re_fleet::run_fleet(&fleet);
    // The fleet owns the metrics dump (worker --metrics flags are
    // dropped), and dumps even on failure — a failed fleet's counters
    // are exactly the interesting ones.
    if let Some(path) = &fleet.run.metrics {
        dump_metrics(path);
    }
    match result {
        Ok(summary) => {
            eprintln!(
                "[sweep fleet] done: {} cells over {} shard(s), {} relaunch(es) → {}",
                summary.cells,
                summary.shards,
                summary.retries,
                summary.csv_path.display()
            );
            match re_sweep::read_records(&summary.merged) {
                Ok(records) => print!("{}", re_sweep::render_report(&records)),
                Err(e) => eprintln!("[sweep fleet] warning: no report ({e})"),
            }
            ExitCode::SUCCESS
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => ExitCode::from(130),
        Err(e) => {
            eprintln!("sweep fleet: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_serve(args: &[String]) -> ExitCode {
    let mut config = re_serve::ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let parsed = match a.as_str() {
            "--addr" => value("--addr").map(|v| config.addr = v),
            "--root" => value("--root").map(|v| config.root = v.into()),
            "--workers" => value("--workers").and_then(|v| {
                v.parse()
                    .map(|n| config.workers = n)
                    .map_err(|_| format!("--workers: `{v}` is not a number"))
            }),
            other => Err(format!("serve: unknown flag `{other}`")),
        };
        if let Err(e) = parsed {
            eprintln!("sweep serve: {e}");
            return ExitCode::from(2);
        }
    }

    let daemon = match re_serve::Daemon::bind(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sweep serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    match daemon.local_addr() {
        Ok(addr) => eprintln!("[sweep serve] listening on {addr}"),
        Err(e) => eprintln!("[sweep serve] listening (addr unknown: {e})"),
    }
    // SIGINT/SIGTERM turn into a graceful drain: queued jobs finish,
    // stores and run logs flush, metrics.json is written.
    match daemon.run(Some(re_serve::sig::install())) {
        Ok(()) => {
            eprintln!("[sweep serve] drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_import(src: &std::path::Path, alias: Option<&str>, dir: &std::path::Path) -> ExitCode {
    match re_sweep::importer::import_file(src, alias, dir) {
        Ok(outcome) => {
            eprintln!(
                "[sweep import] {} → {} ({} frames, {} texture(s), {}x{}, {} bytes)",
                src.display(),
                outcome.path.display(),
                outcome.frames,
                outcome.textures,
                outcome.screen.0,
                outcome.screen.1,
                outcome.bytes
            );
            println!(
                "registered `{}` — run it with: sweep --scenes {} --import-dir {}",
                outcome.alias,
                outcome.alias,
                dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep import: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_report(store: &std::path::Path) -> ExitCode {
    match re_sweep::read_records(store) {
        // An empty or single-cell store is not an error — the renderer
        // prints a clear "nothing to report" message for it.
        Ok(records) => {
            print!("{}", re_sweep::render_report(&records));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_profile(store: &std::path::Path) -> ExitCode {
    let log = store.join(re_sweep::EVENTS_FILE);
    if !log.exists() {
        // A store copied without its run log (or written by a pre-log
        // build) is not an error — there is just nothing to profile.
        println!(
            "no run log at {} — run the sweep (without --no-events) to record one",
            log.display()
        );
        return ExitCode::SUCCESS;
    }
    match re_sweep::read_events(&log) {
        Ok(events) => {
            print!("{}", re_sweep::Profile::from_events(&events).render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep profile: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_merge(out: &std::path::Path, inputs: &[std::path::PathBuf]) -> ExitCode {
    match re_sweep::merge_stores(out, inputs) {
        Ok(summary) => {
            eprintln!(
                "[sweep] merged {} store(s): {} cells → {}",
                summary.inputs,
                summary.records.len(),
                summary.csv_path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep merge: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_sweep(mut args: RunArgs) -> ExitCode {
    let cells = args.grid.cell_count();
    let scenes = args.grid.scene_aliases().len();
    eprintln!(
        "[sweep] grid: {cells} cells ({scenes} scenes × {} configs), {} frames each",
        cells / scenes.max(1),
        args.grid.frames
    );

    // Compile the explicit job graph; `--shard` selects one render-key
    // partition of it.
    let full = re_sweep::SweepPlan::compile(&args.grid);
    let plan = match args.shard {
        None => full,
        Some(s) => match full.shard(s.index, s.count) {
            Ok(shard) => {
                eprintln!(
                    "[sweep] shard {s}: {} of {} render keys, {} of {} cells",
                    shard.render_job_count(),
                    full.render_job_count(),
                    shard.cell_count(),
                    full.cell_count(),
                );
                shard
            }
            Err(e) => {
                eprintln!("sweep: --shard: {e}");
                return ExitCode::from(2);
            }
        },
    };

    // Tee every sweep event into the append-only run log beside the
    // store. Losing the log (unwritable directory, full disk) must not
    // lose the run, so failure only warns.
    let mut jsonl: Option<Arc<re_sweep::JsonlObserver>> = None;
    if args.store && args.events {
        let log_path = args.out.join(re_sweep::EVENTS_FILE);
        match re_sweep::JsonlObserver::append(&log_path, args.shard) {
            Ok(observer) => {
                let observer = Arc::new(observer);
                let base = args.opts.effective_observer();
                args.opts.observer = Some(Arc::new(re_sweep::MultiObserver::new(vec![
                    base,
                    Arc::clone(&observer) as _,
                ])));
                jsonl = Some(observer);
            }
            Err(e) => eprintln!(
                "[sweep] warning: cannot write run log {}: {e} (continuing without)",
                log_path.display()
            ),
        }
    }

    // Graceful SIGINT/SIGTERM: the store keeps every committed cell (the
    // run resumes with the same --out), the run log gets its `run_end`
    // trailer (without a raster count: the execution is cut short), and
    // --metrics still dumps. A monitor thread does the stateful work the
    // signal handler itself cannot.
    let finished = Arc::new(AtomicBool::new(false));
    {
        let stop = re_serve::sig::install();
        let finished = Arc::clone(&finished);
        let jsonl = jsonl.clone();
        let metrics = args.metrics.clone();
        std::thread::spawn(move || loop {
            if finished.load(Ordering::Acquire) {
                return;
            }
            if stop.load(Ordering::Acquire) {
                if let Some(observer) = &jsonl {
                    let _ = observer.finish("signal");
                }
                if let Some(path) = &metrics {
                    dump_metrics(path);
                }
                eprintln!("[sweep] interrupted — store flushed; resume with the same --out");
                std::process::exit(130);
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        });
    }

    // The run log trailer's reason and the execution's raster count.
    let (mut reason, mut rasters) = ("complete", 0);
    let code = if args.store {
        match re_sweep::run_plan_with_store(&plan, &args.opts, &args.out) {
            Ok(summary) => {
                rasters = summary.rasters;
                eprintln!(
                    "[sweep] done: {} ran, {} resumed → {}",
                    summary.ran,
                    summary.resumed,
                    summary.csv_path.display()
                );
                // A warm `--log-dir` makes this 0: every covered render
                // key was replayed from its cached log (the CI resume
                // smoke greps for exactly this line).
                eprintln!("[sweep] raster invocations this run: {}", summary.rasters);
                if let Some(s) = args.shard {
                    eprintln!(
                        "[sweep] shard {s} complete; when every shard is done: \
                         sweep merge <merged-dir> <shard-dirs>..."
                    );
                }
                print_highlights(&summary.records);
                ExitCode::SUCCESS
            }
            Err(e) => {
                (reason, rasters) = ("error", re_sweep::failed_run_rasters(&e));
                eprintln!("sweep: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match re_sweep::run_plan(&plan, &args.opts) {
            Ok(run) => {
                rasters = run.rasters;
                eprintln!("[sweep] raster invocations this run: {}", run.rasters);
                let records: Vec<re_sweep::CellRecord> = run
                    .outcomes
                    .iter()
                    .map(|o| re_sweep::CellRecord::from_run(&o.cell, &o.report))
                    .collect();
                print!("{}", re_sweep::render_csv(&records));
                ExitCode::SUCCESS
            }
            // Capture failed: nothing was rendered.
            Err(e) => {
                reason = "error";
                eprintln!("sweep: {e}");
                ExitCode::FAILURE
            }
        }
    };

    // Disarm the signal monitor, then seal the run log. The trailer
    // carries this segment's raster count — a fleet supervisor tailing
    // the log sums these across shards.
    finished.store(true, Ordering::Release);
    if let Some(observer) = &jsonl {
        let _ = observer.finish_with_rasters(reason, Some(rasters));
    }

    if let Some(path) = &args.metrics {
        dump_metrics(path);
    }
    code
}

/// Writes the process metrics registry (every counter and duration
/// histogram recorded so far) as versioned JSON. Best effort: a failed
/// dump warns but does not change the exit code.
fn dump_metrics(path: &std::path::Path) {
    let mut json = re_obs::snapshot().to_json();
    json.push('\n');
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("[sweep] metrics → {}", path.display()),
        Err(e) => eprintln!(
            "[sweep] warning: cannot write metrics {}: {e}",
            path.display()
        ),
    }
}

/// A short stdout digest: per-scene best/worst speedup across the grid.
fn print_highlights(records: &[re_sweep::CellRecord]) {
    let mut scenes: Vec<&str> = records.iter().map(|r| r.scene()).collect();
    scenes.sort_unstable();
    scenes.dedup();
    println!(
        "{:<6} {:>9} {:>9} {:>10} {:>7}",
        "scene", "best", "worst", "skip(best)", "cells"
    );
    for scene in scenes {
        let of_scene: Vec<&re_sweep::CellRecord> =
            records.iter().filter(|r| r.scene() == scene).collect();
        let best = of_scene
            .iter()
            .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
            .expect("non-empty");
        let worst = of_scene
            .iter()
            .min_by(|a, b| a.speedup().total_cmp(&b.speedup()))
            .expect("non-empty");
        println!(
            "{:<6} {:>8.2}x {:>8.2}x {:>9.1}% {:>7}",
            scene,
            best.speedup(),
            worst.speedup(),
            best.skip_pct(),
            of_scene.len()
        );
    }
}
