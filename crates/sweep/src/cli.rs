//! Command-line parsing for the `sweep` binary, generated from the axis
//! registry.
//!
//! Every axis flag — its name, list parsing, domain validation and help
//! line — comes from [`crate::axis::AXES`]; this module only knows the
//! fixed execution flags (`--out`, `--workers`, `--frames`, screen size,
//! artifact caches, verbosity). Registering a new axis therefore
//! extends the CLI, `--help` and the `sweep axes` table with no changes
//! here.
//!
//! Unknown flags are rejected with a nearest-flag suggestion, and
//! duplicate values inside an axis list are an error (the grid would
//! simulate the same cell twice).

use std::path::PathBuf;

use crate::axis::{self, AxisClass, Presence, AXES};
use crate::engine::SweepOptions;
use crate::grid::ExperimentGrid;
use crate::plan::ShardSpec;

/// Arguments of a `sweep` run (the default subcommand).
#[derive(Debug)]
pub struct RunArgs {
    /// The experiment grid to enumerate.
    pub grid: ExperimentGrid,
    /// Execution options.
    pub opts: SweepOptions,
    /// Store directory.
    pub out: PathBuf,
    /// Whether to persist to the store (`--no-store` clears it).
    pub store: bool,
    /// Which shard of the plan to run (`--shard K/N`; `None` = all of it).
    pub shard: Option<ShardSpec>,
    /// Where to dump the `metrics.json` registry snapshot (`--metrics`).
    pub metrics: Option<PathBuf>,
    /// Whether to write the `events.jsonl` run log beside the store
    /// (`--no-events` turns it off; memory-only runs never write one).
    pub events: bool,
    /// Effective imported-trace directory (`--import-dir`, default
    /// `<out>/imports`) — already scanned by the time parsing returns, and
    /// forwarded verbatim to fleet worker processes.
    pub import_dir: PathBuf,
}

/// A parsed `sweep` invocation.
#[derive(Debug)]
pub enum Command {
    /// Run a grid (optionally against a store).
    Run(Box<RunArgs>),
    /// Digest an existing store into comparison/marginal tables.
    Report {
        /// Store directory to read.
        store: PathBuf,
    },
    /// Union per-shard stores into one (validated) store.
    Merge {
        /// Output store directory (fresh or empty).
        out: PathBuf,
        /// Input (per-shard) store directories.
        inputs: Vec<PathBuf>,
    },
    /// Digest a store's `events.jsonl` run log into a timing profile.
    Profile {
        /// Store directory whose run log to read.
        store: PathBuf,
    },
    /// Validate an external `.retrace` capture and install it as a
    /// `trace:<alias>` scene-axis value.
    Import {
        /// Source capture (bare or RETRIMP1-enveloped).
        src: PathBuf,
        /// Alias override (`--as`; default: the sanitized file stem).
        alias: Option<String>,
        /// Import directory to install into.
        dir: PathBuf,
    },
    /// Print the axis registry table.
    Axes,
    /// Print usage and exit.
    Help,
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
/// A ready-to-print message for unknown flags (with a nearest-flag
/// suggestion), bad or duplicate values, and missing flag arguments.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    match argv.first().map(String::as_str) {
        Some("report") => parse_report(&argv[1..]),
        Some("profile") => parse_profile(&argv[1..]),
        Some("merge") => parse_merge(&argv[1..]),
        Some("import") => parse_import(&argv[1..]),
        Some("axes") => parse_axes(&argv[1..]),
        _ => parse_run(argv),
    }
}

fn parse_axes(argv: &[String]) -> Result<Command, String> {
    let mut out: Option<PathBuf> = None;
    let mut dir: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => return Err("axes: --out needs a value".into()),
            },
            "--import-dir" => match it.next() {
                Some(v) => dir = Some(PathBuf::from(v)),
                None => return Err("axes: --import-dir needs a value".into()),
            },
            "-h" | "--help" => return Ok(Command::Help),
            other => {
                return Err(format!(
                    "axes takes only --import-dir/--out (got `{other}`)"
                ))
            }
        }
    }
    // Register before rendering so the table lists `trace:` aliases.
    let dir = dir.unwrap_or_else(|| {
        crate::importer::import_dir_for(&out.unwrap_or_else(|| PathBuf::from("sweep-out")))
    });
    register_imports(&dir)?;
    Ok(Command::Axes)
}

fn parse_import(argv: &[String]) -> Result<Command, String> {
    let mut src: Option<PathBuf> = None;
    let mut alias: Option<String> = None;
    let mut out = PathBuf::from("sweep-out");
    let mut dir: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--as" => match it.next() {
                Some(v) => alias = Some(v.clone()),
                None => return Err("import: --as needs a value".into()),
            },
            "--out" => match it.next() {
                Some(v) => out = PathBuf::from(v),
                None => return Err("import: --out needs a value".into()),
            },
            "--import-dir" => match it.next() {
                Some(v) => dir = Some(PathBuf::from(v)),
                None => return Err("import: --import-dir needs a value".into()),
            },
            "-h" | "--help" => return Ok(Command::Help),
            flag if flag.starts_with('-') => {
                return Err(unknown_flag(
                    flag,
                    &["--as", "--out", "--import-dir", "--help"],
                ));
            }
            file => match src {
                None => src = Some(PathBuf::from(file)),
                Some(_) => return Err(format!("import: one source file only (got `{file}` too)")),
            },
        }
    }
    let src = src
        .ok_or("import: usage is `sweep import <file.retrace> [--as ALIAS] [--import-dir DIR]`")?;
    let dir = dir.unwrap_or_else(|| crate::importer::import_dir_for(&out));
    Ok(Command::Import { src, alias, dir })
}

/// Resolves the effective import directory from raw argv. This is a
/// pre-pass: the scene axis cannot parse `trace:<alias>` values until the
/// directory has been scanned, and flags may appear in any order, so the
/// scan must run before the normal flag loop.
fn import_dir_from(argv: &[String]) -> PathBuf {
    let mut out = PathBuf::from("sweep-out");
    let mut dir: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => {
                if let Some(v) = it.next() {
                    out = PathBuf::from(v);
                }
            }
            "--import-dir" => {
                if let Some(v) = it.next() {
                    dir = Some(PathBuf::from(v));
                }
            }
            _ => {}
        }
    }
    dir.unwrap_or_else(|| crate::importer::import_dir_for(&out))
}

/// Scans an import directory into the scene-source registry, warning (on
/// stderr) about files that fail validation rather than failing runs that
/// never name them.
fn register_imports(dir: &std::path::Path) -> Result<(), String> {
    let summary = crate::importer::register_dir(dir)
        .map_err(|e| format!("--import-dir {}: {e}", dir.display()))?;
    for (path, why) in &summary.skipped {
        eprintln!("warning: skipping import {}: {why}", path.display());
    }
    Ok(())
}

fn parse_report(argv: &[String]) -> Result<Command, String> {
    let mut store = PathBuf::from("sweep-out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--store" => match it.next() {
                Some(dir) => store = PathBuf::from(dir),
                None => return Err("report: --store needs a value".into()),
            },
            "-h" | "--help" => return Ok(Command::Help),
            other => return Err(unknown_flag(other, &["--store", "--help"])),
        }
    }
    Ok(Command::Report { store })
}

fn parse_profile(argv: &[String]) -> Result<Command, String> {
    let mut store = PathBuf::from("sweep-out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--store" => match it.next() {
                Some(dir) => store = PathBuf::from(dir),
                None => return Err("profile: --store needs a value".into()),
            },
            "-h" | "--help" => return Ok(Command::Help),
            other => return Err(unknown_flag(other, &["--store", "--help"])),
        }
    }
    Ok(Command::Profile { store })
}

fn parse_merge(argv: &[String]) -> Result<Command, String> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    for arg in argv {
        match arg.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            flag if flag.starts_with('-') => {
                return Err(format!("merge takes no flags (got `{flag}`)"));
            }
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    if dirs.len() < 2 {
        return Err("merge: usage is `sweep merge <out> <in>...` \
                    (an output directory plus at least one input store)"
            .into());
    }
    let out = dirs.remove(0);
    Ok(Command::Merge { out, inputs: dirs })
}

/// Fixed (non-axis) flags of the run subcommand, for suggestions.
const RUN_FLAGS: &[&str] = &[
    "--out",
    "--no-store",
    "--workers",
    "--relog-compress",
    "--heartbeat-ms",
    "--shard",
    "--frames",
    "--width",
    "--height",
    "--trace-dir",
    "--log-dir",
    "--import-dir",
    "--no-log-cache",
    "--metrics",
    "--no-events",
    "--quiet",
    "--help",
];

fn parse_run(argv: &[String]) -> Result<Command, String> {
    // Imported traces must be registered before `--scenes trace:<alias>`
    // is parsed, whatever the flag order.
    let import_dir = import_dir_from(argv);
    register_imports(&import_dir)?;

    let mut grid = ExperimentGrid::default();
    let mut opts = SweepOptions::default();
    let mut out = PathBuf::from("sweep-out");
    let mut store = true;
    let mut trace_dir: Option<PathBuf> = None;
    let mut log_dir: Option<PathBuf> = None;
    let mut log_cache = true;
    let mut shard: Option<ShardSpec> = None;
    let mut metrics: Option<PathBuf> = None;
    let mut events = true;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        if let Some(a) = axis::by_flag(flag) {
            let values = AXES[a].parse_list(value()?)?;
            grid.set_axis(a, values)
                .map_err(|e| format!("{flag}: {e}"))?;
            continue;
        }
        match flag.as_str() {
            "--out" => out = PathBuf::from(value()?),
            "--no-store" => store = false,
            "--workers" => opts.workers = value()?.parse().map_err(|_| "--workers: bad value")?,
            "--relog-compress" => {
                opts.relog_compress = match value()? {
                    "on" => true,
                    "off" => false,
                    other => {
                        return Err(format!("--relog-compress: `{other}` is not `on` or `off`"))
                    }
                }
            }
            "--heartbeat-ms" => {
                let ms: u64 = value()?.parse().map_err(|_| "--heartbeat-ms: bad value")?;
                opts.heartbeat = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--shard" => {
                shard = Some(ShardSpec::parse(value()?).map_err(|e| format!("--shard: {e}"))?)
            }
            "--frames" => {
                grid.frames = value()?.parse().map_err(|_| "--frames: bad value")?;
                if grid.frames == 0 {
                    return Err("--frames: at least one frame is required".into());
                }
            }
            "--width" => grid.width = value()?.parse().map_err(|_| "--width: bad value")?,
            "--height" => grid.height = value()?.parse().map_err(|_| "--height: bad value")?,
            "--trace-dir" => trace_dir = Some(PathBuf::from(value()?)),
            "--log-dir" => log_dir = Some(PathBuf::from(value()?)),
            // Consumed by the pre-pass above; just skip the value here.
            "--import-dir" => {
                value()?;
            }
            "--no-log-cache" => log_cache = false,
            "--metrics" => metrics = Some(PathBuf::from(value()?)),
            "--no-events" => events = false,
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => return Ok(Command::Help),
            other => {
                let known: Vec<&str> = AXES
                    .iter()
                    .map(|a| a.flag)
                    .chain(RUN_FLAGS.iter().copied())
                    .collect();
                return Err(unknown_flag(other, &known));
            }
        }
    }
    // With a store, captures default to living beside it; a memory-only run
    // caches traces only when a directory was explicitly given.
    opts.trace_dir = match (store, trace_dir) {
        (_, Some(dir)) => Some(dir),
        (true, None) => Some(out.join("traces")),
        (false, None) => None,
    };
    // Render logs default to living next to the `.retrace` files, so a
    // resumed or re-sharded run finds both artifact kinds in one place;
    // `--no-log-cache` turns the `.relog` side off entirely.
    opts.log_dir = if log_cache {
        log_dir.or_else(|| opts.trace_dir.clone())
    } else {
        if log_dir.is_some() {
            return Err("--no-log-cache contradicts --log-dir".into());
        }
        None
    };
    Ok(Command::Run(Box::new(RunArgs {
        grid,
        opts,
        out,
        store,
        shard,
        metrics,
        events,
        import_dir,
    })))
}

/// Levenshtein distance (small inputs: flags are short).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// "unknown flag" error with the closest known flag as a suggestion: a
/// flag the input is a prefix of wins (`--sig` → `--sig-bits`), otherwise
/// the smallest edit distance within a typo-sized bound.
fn unknown_flag(flag: &str, known: &[&str]) -> String {
    let by_prefix = known
        .iter()
        .filter(|k| flag.len() > 2 && k.starts_with(flag))
        .min_by_key(|k| k.len());
    let suggestion = by_prefix
        .copied()
        .or_else(|| {
            known
                .iter()
                .map(|k| (edit_distance(flag, k), *k))
                .min()
                .filter(|&(d, _)| d <= 3)
                .map(|(_, k)| k)
        })
        .map(|k| format!(" (did you mean `{k}`?)"));
    format!(
        "unknown flag `{flag}`{} — try --help or `sweep axes`",
        suggestion.unwrap_or_default()
    )
}

/// The `--help` text; the per-axis option lines are generated from the
/// registry.
pub fn usage() -> String {
    let mut out = String::from(
        "sweep — parallel experiment orchestration for the RE reproduction

USAGE:
    sweep [OPTIONS]
    sweep report [--store DIR]
    sweep profile [--store DIR]
    sweep merge <out> <in>...
    sweep import <file.retrace> [--as ALIAS] [--import-dir DIR]
    sweep axes [--import-dir DIR]
    sweep serve [--addr HOST:PORT] [--root DIR]
    sweep client --addr HOST:PORT <verb> [ARGS]

OPTIONS:
    --out DIR           result-store directory (default: sweep-out; resumable)
    --no-store          run in memory only, print the CSV to stdout
    --workers N         worker threads (default: all hardware threads, or
                        the RE_SWEEP_WORKERS environment override); Stage A
                        splits them among the renders in flight, spreading
                        one render's frames over its share
                        (results are bit-identical at any setting)
    --shard K/N         run only shard K of N (1-based; partitioned by
                        render key, so each shard rasterizes its keys once)
    --heartbeat-ms N    cadence of the progress heartbeat the executor
                        writes even while every worker is busy (default:
                        10000; 0 disables it) — supervisors tailing
                        events.jsonl tighten this for liveness checks
    --frames N          frames per cell (default: 24)
    --width W           screen width (default: 400)
    --height H          screen height (default: 256)
",
    );
    for a in &AXES {
        let head = format!("{} LIST", a.flag);
        let default = if a.default_all {
            "all".to_string()
        } else {
            a.format_value(a.default)
        };
        if head.len() <= 19 {
            out.push_str(&format!(
                "    {head:<19} {}, {} (default: {default})\n",
                a.help, a.domain
            ));
        } else {
            out.push_str(&format!(
                "    {head}\n                        {}, {} (default: {default})\n",
                a.help, a.domain
            ));
        }
    }
    out.push_str(
        "    --trace-dir DIR     cache .retrace captures here (default: <out>/traces)
    --log-dir DIR       cache .relog render logs here (default: the trace
                        directory); a warm cache lets resumed/sharded runs
                        skip Stage A rasterization entirely
    --no-log-cache      never read or write .relog render-log artifacts
    --import-dir DIR    directory of imported traces to register as
                        `trace:<alias>` scene values before the grid is
                        parsed (default: <out>/imports; see IMPORT)
    --relog-compress on|off
                        write .relog artifact frames LZSS-compressed
                        (default: off). Both settings write one framing,
                        so the flag can change between runs of one cache
    --metrics PATH      dump the process metrics registry (counters and
                        duration histograms) as versioned JSON on exit
    --no-events         do not write the events.jsonl run log beside the
                        store (written by default on store runs)
    --quiet             no per-cell progress on stderr
    -h, --help          this text

Axis LIST values are comma-separated; `all` expands to the axis default
(every workload for --scenes). Duplicate values are rejected.

REPORT:
    sweep report [--store DIR]
                        per-scene comparison table plus per-axis marginal
                        mean/median RE speedup tables from an existing
                        store (default store: sweep-out)

PROFILE:
    sweep profile [--store DIR]
                        stage breakdowns, replay-cache hit rates and
                        per-scene/per-render-key/per-worker hotspots from
                        a store's events.jsonl run log (default store:
                        sweep-out)

MERGE:
    sweep merge <out> <in>...
                        fingerprint-check and union per-shard stores into
                        one store at <out>; its results.csv is
                        byte-identical to an unsharded run of the grid

IMPORT:
    sweep import <file.retrace> [--as ALIAS] [--import-dir DIR]
                        validate an external capture (bare .retrace or a
                        RETRIMP1 checksummed envelope), canonicalize it
                        into the import directory and register it; the
                        trace then runs anywhere a built-in scene does:
                        `sweep --scenes trace:ALIAS ...` (docs/FORMATS.md
                        has the validation rules)

AXES:
    sweep axes [--import-dir DIR]
                        print every registered axis: flag, class, domain,
                        default (generated from the axis registry), plus
                        the imported traces visible in the import dir

SERVE:
    sweep serve [--addr HOST:PORT] [--root DIR] [--workers N]
                        long-running daemon: accepts grid submissions over
                        TCP, runs them one at a time and shares the
                        artifact caches across jobs (docs/SERVING.md)
    sweep client --addr HOST:PORT <verb>
                        talk to a daemon; verbs: submit (takes run flags,
                        plus --wait), status/watch/report/csv (--job N),
                        metrics, ping, shutdown

FLEET:
    sweep fleet [RUN FLAGS] --local-procs N [--daemon HOST:PORT]...
                        run a sharded sweep end to end: partition the grid
                        by render key across N local worker processes plus
                        one shard per --daemon, supervise them (heartbeat
                        liveness, bounded retry of dead shards), then merge
                        the shard stores into <out>/merged — byte-identical
                        to the unsharded run (docs/FLEET.md)
    --max-retries N     relaunches allowed per shard beyond the first
                        attempt (default 2; stores resume, so retry is safe)
    --stall-timeout-ms N
                        a shard whose run log grows nothing for this long
                        is killed and retried (default 30000)
    --poll-ms N         supervisor poll cadence (default 200)
    --dry-run           print the shard partition and exit
",
    );
    out
}

/// The `sweep axes` table: one line per registered axis, straight from the
/// registry (living documentation of the parameter space).
pub fn render_axes_table() -> String {
    let mut out = format!(
        "{:<20} {:<22} {:<7} {:<9} {:<22} {}\n",
        "axis", "flag", "class", "default", "domain", "description"
    );
    for a in &AXES {
        let class = match a.class {
            AxisClass::Render => "render",
            AxisClass::Eval => "eval",
        };
        let default = if a.default_all {
            "all".to_string()
        } else {
            a.format_value(a.default)
        };
        let presence = match a.presence {
            Presence::Always => "",
            Presence::NonDefault => " [in artifacts only off-default]",
        };
        out.push_str(&format!(
            "{:<20} {:<22} {:<7} {:<9} {:<22} {}{}\n",
            a.name, a.flag, class, default, a.domain, a.help, presence
        ));
    }
    // Nothing is appended when no trace is registered: CI asserts the
    // bare table is exactly one line per AxisDef entry plus the header.
    let imported = re_workloads::source::imported();
    if !imported.is_empty() {
        out.push_str("\nimported traces (usable as --scenes values):\n");
        for (alias, path) in imported {
            out.push_str(&format!("    {alias:<28} {}\n", path.display()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn run_args(args: &[&str]) -> RunArgs {
        match parse_strs(args).expect("parse") {
            Command::Run(r) => *r,
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn axis_flags_reach_the_grid_through_the_registry() {
        let r = run_args(&[
            "--scenes",
            "ccs,tib",
            "--tile-sizes",
            "8,16",
            "--refresh",
            "none,8",
            "--binning",
            "bbox,exact",
            "--memo-kb",
            "4,16",
            "--frames",
            "3",
        ]);
        assert_eq!(r.grid.scene_aliases(), ["ccs", "tib"]);
        assert_eq!(r.grid.axis_values(axis::TILE_SIZE), [8, 16]);
        assert_eq!(r.grid.axis_values(axis::REFRESH_PERIOD), [0, 8]);
        assert_eq!(r.grid.axis_values(axis::BINNING), [0, 1]);
        assert_eq!(r.grid.axis_values(axis::MEMO_KB), [4, 16]);
        assert_eq!(r.grid.frames, 3);
        assert!(r.store);
    }

    #[test]
    fn duplicate_axis_values_are_rejected() {
        let err = parse_strs(&["--tile-sizes", "16,16"]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = parse_strs(&["--scenes", "ccs,ccs"]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn unknown_flags_suggest_the_nearest_axis() {
        let err = parse_strs(&["--sig-bit", "16"]).unwrap_err();
        assert!(err.contains("did you mean `--sig-bits`?"), "{err}");
        let err = parse_strs(&["--memokb", "4"]).unwrap_err();
        assert!(err.contains("did you mean `--memo-kb`?"), "{err}");
        // A prefix of a real flag beats a closer-by-edit-distance flag.
        let err = parse_strs(&["--sig", "16"]).unwrap_err();
        assert!(err.contains("did you mean `--sig-bits`?"), "{err}");
        // Complete nonsense still errors, without a misleading suggestion.
        let err = parse_strs(&["--frobnicate-extremely", "1"]).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn domain_errors_carry_the_flag_and_domain() {
        let err = parse_strs(&["--sig-bits", "33"]).unwrap_err();
        assert!(
            err.contains("--sig-bits") && err.contains("1..=32"),
            "{err}"
        );
        let err = parse_strs(&["--scenes", "nope"]).unwrap_err();
        assert!(err.contains("unknown workload alias"), "{err}");
        let err = parse_strs(&["--frames", "0"]).unwrap_err();
        assert!(err.contains("at least one frame"), "{err}");
    }

    #[test]
    fn all_expands_scenes_to_the_suite() {
        let r = run_args(&["--scenes", "all"]);
        assert_eq!(r.grid.scene_aliases().len(), re_workloads::ALIASES.len());
    }

    #[test]
    fn store_and_trace_dir_defaults() {
        let r = run_args(&["--out", "results"]);
        assert!(r.store);
        assert_eq!(
            r.opts.trace_dir.as_deref(),
            Some(std::path::Path::new("results/traces"))
        );
        let r = run_args(&["--no-store"]);
        assert!(!r.store);
        assert_eq!(r.opts.trace_dir, None);
    }

    #[test]
    fn log_dir_defaults_to_the_trace_dir() {
        // Store run: both caches live under <out>/traces by default.
        let r = run_args(&["--out", "results"]);
        assert_eq!(
            r.opts.log_dir.as_deref(),
            Some(std::path::Path::new("results/traces"))
        );
        assert_eq!(r.opts.log_dir, r.opts.trace_dir);

        // Explicit --log-dir wins over the default.
        let r = run_args(&["--out", "results", "--log-dir", "logs"]);
        assert_eq!(
            r.opts.log_dir.as_deref(),
            Some(std::path::Path::new("logs"))
        );

        // A memory-only run has no default cache directory at all.
        let r = run_args(&["--no-store"]);
        assert_eq!(r.opts.log_dir, None);
        // ...but an explicit trace dir brings the log cache with it.
        let r = run_args(&["--no-store", "--trace-dir", "t"]);
        assert_eq!(r.opts.log_dir.as_deref(), Some(std::path::Path::new("t")));

        // --no-log-cache disables the .relog side everywhere.
        let r = run_args(&["--out", "results", "--no-log-cache"]);
        assert_eq!(r.opts.log_dir, None);
        assert!(r.opts.trace_dir.is_some(), "trace cache is untouched");
        let err = parse_strs(&["--no-log-cache", "--log-dir", "x"]).unwrap_err();
        assert!(err.contains("contradicts"), "{err}");
        let err = parse_strs(&["--log-drr", "x"]).unwrap_err();
        assert!(err.contains("did you mean `--log-dir`?"), "{err}");
    }

    #[test]
    fn parallel_render_and_compression_flags_parse() {
        let r = run_args(&[]);
        assert!(!r.opts.relog_compress, "compression is opt-in");
        let r = run_args(&["--workers", "4", "--relog-compress", "on"]);
        assert_eq!(r.opts.workers, 4);
        assert!(r.opts.relog_compress);
        let r = run_args(&["--relog-compress", "off"]);
        assert!(!r.opts.relog_compress);
        let err = parse_strs(&["--workers", "many"]).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        let err = parse_strs(&["--relog-compress", "yes"]).unwrap_err();
        assert!(err.contains("not `on` or `off`"), "{err}");
        let err = parse_strs(&["--relog-compres", "on"]).unwrap_err();
        assert!(err.contains("did you mean `--relog-compress`?"), "{err}");
        let err = parse_strs(&["--render-workers", "2"]).unwrap_err();
        assert!(err.contains("unknown"), "the flag is gone: {err}");
    }

    #[test]
    fn heartbeat_flag_sets_cadence() {
        let r = run_args(&[]);
        assert_eq!(
            r.opts.heartbeat,
            Some(std::time::Duration::from_secs(10)),
            "default cadence"
        );
        let r = run_args(&["--heartbeat-ms", "250"]);
        assert_eq!(
            r.opts.heartbeat,
            Some(std::time::Duration::from_millis(250))
        );
        let r = run_args(&["--heartbeat-ms", "0"]);
        assert_eq!(r.opts.heartbeat, None, "0 disables the heartbeat");
        let err = parse_strs(&["--heartbeat-ms", "soon"]).unwrap_err();
        assert!(err.contains("--heartbeat-ms"), "{err}");
    }

    #[test]
    fn shard_flag_parses_and_validates() {
        let r = run_args(&["--shard", "1/2"]);
        assert_eq!(r.shard, Some(ShardSpec { index: 0, count: 2 }));
        let r = run_args(&["--out", "d"]);
        assert_eq!(r.shard, None);
        let err = parse_strs(&["--shard", "0/2"]).unwrap_err();
        assert!(err.contains("--shard") && err.contains("K/N"), "{err}");
        let err = parse_strs(&["--shard", "3/2"]).unwrap_err();
        assert!(err.contains("--shard"), "{err}");
        let err = parse_strs(&["--shards", "1/2"]).unwrap_err();
        assert!(err.contains("did you mean `--shard`?"), "{err}");
    }

    #[test]
    fn merge_subcommand_parses() {
        match parse_strs(&["merge", "out", "a", "b"]).unwrap() {
            Command::Merge { out, inputs } => {
                assert_eq!(out, PathBuf::from("out"));
                assert_eq!(inputs, vec![PathBuf::from("a"), PathBuf::from("b")]);
            }
            other => panic!("expected merge, got {other:?}"),
        }
        // One input is enough (a single complete store just round-trips).
        assert!(matches!(
            parse_strs(&["merge", "out", "a"]).unwrap(),
            Command::Merge { .. }
        ));
        let err = parse_strs(&["merge", "out"]).unwrap_err();
        assert!(err.contains("sweep merge <out> <in>..."), "{err}");
        let err = parse_strs(&["merge"]).unwrap_err();
        assert!(err.contains("sweep merge <out> <in>..."), "{err}");
        let err = parse_strs(&["merge", "--force", "a", "b"]).unwrap_err();
        assert!(err.contains("no flags"), "{err}");
        assert!(matches!(
            parse_strs(&["merge", "--help"]).unwrap(),
            Command::Help
        ));
    }

    #[test]
    fn profile_subcommand_and_observability_flags_parse() {
        match parse_strs(&["profile", "--store", "d"]).unwrap() {
            Command::Profile { store } => assert_eq!(store, PathBuf::from("d")),
            other => panic!("expected profile, got {other:?}"),
        }
        match parse_strs(&["profile"]).unwrap() {
            Command::Profile { store } => assert_eq!(store, PathBuf::from("sweep-out")),
            other => panic!("expected profile, got {other:?}"),
        }
        let err = parse_strs(&["profile", "--stroe", "d"]).unwrap_err();
        assert!(err.contains("did you mean `--store`?"), "{err}");

        let r = run_args(&["--metrics", "m.json"]);
        assert_eq!(r.metrics, Some(PathBuf::from("m.json")));
        assert!(r.events, "events.jsonl is on by default");
        let r = run_args(&["--no-events"]);
        assert_eq!(r.metrics, None);
        assert!(!r.events);
        let err = parse_strs(&["--metrics"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err = parse_strs(&["--no-event"]).unwrap_err();
        assert!(err.contains("did you mean `--no-events`?"), "{err}");
    }

    #[test]
    fn report_and_axes_subcommands_parse() {
        assert!(matches!(
            parse_strs(&["report", "--store", "d"]).unwrap(),
            Command::Report { .. }
        ));
        assert!(matches!(parse_strs(&["axes"]).unwrap(), Command::Axes));
        assert!(parse_strs(&["axes", "typo"])
            .unwrap_err()
            .contains("only --import-dir/--out"));
        assert!(matches!(parse_strs(&["--help"]).unwrap(), Command::Help));
        let err = parse_strs(&["report", "--stroe", "d"]).unwrap_err();
        assert!(err.contains("did you mean `--store`?"), "{err}");
    }

    #[test]
    fn import_subcommand_parses() {
        match parse_strs(&[
            "import",
            "cap.retrace",
            "--as",
            "web",
            "--import-dir",
            "imp",
        ])
        .unwrap()
        {
            Command::Import { src, alias, dir } => {
                assert_eq!(src, PathBuf::from("cap.retrace"));
                assert_eq!(alias.as_deref(), Some("web"));
                assert_eq!(dir, PathBuf::from("imp"));
            }
            other => panic!("expected import, got {other:?}"),
        }
        // The import directory defaults to <out>/imports.
        match parse_strs(&["import", "cap.retrace", "--out", "results"]).unwrap() {
            Command::Import { alias, dir, .. } => {
                assert_eq!(alias, None);
                assert_eq!(dir, PathBuf::from("results/imports"));
            }
            other => panic!("expected import, got {other:?}"),
        }
        let err = parse_strs(&["import"]).unwrap_err();
        assert!(err.contains("sweep import <file.retrace>"), "{err}");
        let err = parse_strs(&["import", "a.retrace", "b.retrace"]).unwrap_err();
        assert!(err.contains("one source file"), "{err}");
        let err = parse_strs(&["import", "a.retrace", "--a"]).unwrap_err();
        assert!(err.contains("did you mean `--as`?"), "{err}");
        assert!(matches!(
            parse_strs(&["import", "--help"]).unwrap(),
            Command::Help
        ));
    }

    #[test]
    fn run_pre_pass_registers_imports_in_any_flag_order() {
        let dir = std::env::temp_dir().join(format!("re_cli_imp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("cli-imp.retrace");
        let mut scene = re_workloads::source::builtin_scene("ccs").unwrap();
        re_trace::capture(
            &mut *scene,
            re_gpu::GpuConfig {
                width: 64,
                height: 48,
                tile_size: 16,
                ..Default::default()
            },
            2,
        )
        .save(&src)
        .unwrap();
        let imports = dir.join("imports");
        crate::importer::import_file(&src, None, &imports).expect("import");

        // `--scenes` before `--import-dir`: the pre-pass must still win.
        let r = run_args(&[
            "--scenes",
            "trace:cli-imp",
            "--import-dir",
            imports.to_str().unwrap(),
        ]);
        assert_eq!(r.grid.scene_aliases(), ["trace:cli-imp"]);
        assert_eq!(r.import_dir, imports);

        // Vector scenes need no registration at all.
        let r = run_args(&["--scenes", "vui,vdoc,vmap"]);
        assert_eq!(r.grid.scene_aliases(), ["vui", "vdoc", "vmap"]);

        // The axes table lists what got registered.
        let table = render_axes_table();
        assert!(table.contains("trace:cli-imp"), "{table}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn usage_and_axes_table_cover_every_registered_axis() {
        let (usage, table) = (usage(), render_axes_table());
        for a in &AXES {
            assert!(usage.contains(a.flag), "usage lacks {}", a.flag);
            assert!(table.contains(a.flag), "table lacks {}", a.flag);
            assert!(table.contains(a.name), "table lacks {}", a.name);
        }
        assert!(table.contains("memo_kb"));
    }
}
