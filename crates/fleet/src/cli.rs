//! `sweep fleet` argument parsing: fleet-only flags, the embedded
//! `sweep run` grammar, shard→backend assignment, worker command lines,
//! and the `--dry-run` partition rendering.
//!
//! The grid is described by the *exact* `sweep run` flag grammar — the
//! remainder after the fleet flags are stripped is handed to
//! [`re_sweep::cli::parse`] unchanged, and later to each local worker
//! almost verbatim (the fleet overrides only placement: `--out`,
//! `--shard`, the heartbeat cadence, and — unless the operator chose
//! their own — the shared artifact cache). One grammar, one parse, no
//! drift between what the fleet plans and what a worker runs.

use std::path::Path;
use std::time::Duration;

use re_sweep::cli::RunArgs;
use re_sweep::SweepPlan;

/// Where one shard runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backend {
    /// A spawned `sweep run --shard K/N` child process on this machine.
    Local,
    /// A `sweep serve` daemon at this address, driven over the wire
    /// protocol.
    Daemon(String),
}

impl Backend {
    /// The manifest/wire name of the backend kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Backend::Local => "local",
            Backend::Daemon(_) => "daemon",
        }
    }
}

/// Everything `sweep fleet` was asked to do.
#[derive(Debug)]
pub struct FleetArgs {
    /// The parsed run request (grid, options, `--out` = the fleet root).
    pub run: RunArgs,
    /// The raw run-grammar flags (fleet flags stripped) — local workers
    /// are spawned from these, so their grid parse is the fleet's parse.
    pub run_flags: Vec<String>,
    /// Local worker processes to run (`--local-procs`).
    pub local_procs: usize,
    /// Daemon targets (`--daemon HOST:PORT`, repeatable, in order).
    pub daemons: Vec<String>,
    /// Relaunch budget per shard beyond the first attempt
    /// (`--max-retries`, default 2).
    pub max_retries: usize,
    /// A running shard whose run log grows nothing for this long is
    /// declared stuck and retried (`--stall-timeout-ms`, default 30 s).
    pub stall_timeout: Duration,
    /// Supervisor poll cadence (`--poll-ms`, default 200 ms).
    pub poll: Duration,
    /// Heartbeat cadence passed to each worker (`--heartbeat-ms`,
    /// default 1 s — tighter than a lone run's 10 s so stalls are seen
    /// promptly).
    pub heartbeat_ms: u64,
    /// Print the partition and exit without launching (`--dry-run`).
    pub dry_run: bool,
}

impl FleetArgs {
    /// Total shard count: one per local process plus one per daemon.
    pub fn shard_count(&self) -> usize {
        self.local_procs + self.daemons.len()
    }

    /// The backend shard `index` is placed on: the first `local_procs`
    /// shards run locally, the rest map to the daemons in the order
    /// their `--daemon` flags appeared.
    pub fn backend(&self, index: usize) -> Backend {
        if index < self.local_procs {
            Backend::Local
        } else {
            Backend::Daemon(self.daemons[index - self.local_procs].clone())
        }
    }
}

/// Flags of the run grammar that take a value and are owned by the
/// fleet (it re-issues them per worker, so an operator-supplied one is
/// dropped from the worker command line).
const OVERRIDDEN_VALUE_FLAGS: &[&str] = &["--out", "--shard", "--heartbeat-ms", "--metrics"];

/// Parses everything after `sweep fleet`.
///
/// # Errors
/// Unknown or malformed fleet flags; anything [`re_sweep::cli::parse`]
/// rejects in the remainder; a remainder that is not a run request; and
/// run flags the fleet cannot honor (`--shard` — the fleet computes the
/// partition; `--no-store` / `--no-events` — supervision needs resumable
/// stores and run logs).
pub fn parse(args: &[String]) -> Result<FleetArgs, String> {
    let mut local_procs = 0usize;
    let mut daemons: Vec<String> = Vec::new();
    let mut max_retries = 2usize;
    let mut stall_ms = 30_000u64;
    let mut poll_ms = 200u64;
    // The run grammar's own default (10 s) is far too lazy for a 30 s
    // stall timeout; 1 s keeps detection prompt and the log small.
    let mut heartbeat_ms = 1_000u64;
    let mut dry_run = false;
    let mut rest: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--local-procs" => {
                local_procs = value("--local-procs")?
                    .parse()
                    .map_err(|_| "--local-procs: bad value".to_string())?;
            }
            "--daemon" => daemons.push(value("--daemon")?),
            "--max-retries" => {
                max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|_| "--max-retries: bad value".to_string())?;
            }
            "--stall-timeout-ms" => {
                stall_ms = value("--stall-timeout-ms")?
                    .parse()
                    .map_err(|_| "--stall-timeout-ms: bad value".to_string())?;
                if stall_ms == 0 {
                    return Err("--stall-timeout-ms: must be positive".to_string());
                }
            }
            "--poll-ms" => {
                poll_ms = value("--poll-ms")?
                    .parse()
                    .map_err(|_| "--poll-ms: bad value".to_string())?;
                if poll_ms == 0 {
                    return Err("--poll-ms: must be positive".to_string());
                }
            }
            "--heartbeat-ms" => {
                // Also a run flag: the fleet owns the cadence it hands
                // its workers, so intercept it here and forward it.
                heartbeat_ms = value("--heartbeat-ms")?
                    .parse()
                    .map_err(|_| "--heartbeat-ms: bad value".to_string())?;
                if heartbeat_ms == 0 {
                    return Err(
                        "--heartbeat-ms: a fleet needs worker heartbeats for liveness \
                         (0 disables them)"
                            .to_string(),
                    );
                }
            }
            "--dry-run" => dry_run = true,
            _ => rest.push(a.clone()),
        }
    }

    let run = match re_sweep::cli::parse(&rest) {
        Ok(re_sweep::cli::Command::Run(run)) => *run,
        Ok(_) => {
            return Err(
                "fleet takes run flags (axis lists, --frames, --out, …), not a subcommand"
                    .to_string(),
            )
        }
        Err(e) => return Err(e),
    };
    if run.shard.is_some() {
        return Err(
            "--shard: the fleet computes the partition itself — drop the flag and set \
             --local-procs / --daemon instead"
                .to_string(),
        );
    }
    if !run.store {
        return Err(
            "--no-store: fleet workers need resumable stores (retry depends on them)".to_string(),
        );
    }
    if !run.events {
        return Err(
            "--no-events: the supervisor tails each shard's run log for liveness".to_string(),
        );
    }
    if local_procs + daemons.len() == 0 {
        return Err(
            "a fleet needs at least one worker: --local-procs N and/or --daemon HOST:PORT"
                .to_string(),
        );
    }

    Ok(FleetArgs {
        run,
        run_flags: rest,
        local_procs,
        daemons,
        max_retries,
        stall_timeout: Duration::from_millis(stall_ms),
        poll: Duration::from_millis(poll_ms),
        heartbeat_ms,
        dry_run,
    })
}

/// The command line (after the program name) for the local worker of
/// shard `index`: the operator's run flags with the fleet's placement
/// flags substituted — per-shard store, shard spec, tight heartbeat,
/// shared artifact cache (unless the operator picked their own cache
/// flags), a per-worker thread budget, and `--quiet` (worker stderr goes
/// to `worker.log`; the supervisor owns the terminal).
pub fn worker_args(
    args: &FleetArgs,
    index: usize,
    shard_dir: &Path,
    workers: usize,
) -> Vec<String> {
    let mut argv: Vec<String> = Vec::new();
    let mut it = args.run_flags.iter();
    while let Some(a) = it.next() {
        if OVERRIDDEN_VALUE_FLAGS.contains(&a.as_str()) {
            let _ = it.next(); // drop the flag's value too
            continue;
        }
        if a == "--quiet" {
            continue;
        }
        argv.push(a.clone());
    }

    let has = |flag: &str| args.run_flags.iter().any(|a| a == flag);
    // Workers share one artifact cache so each render key rasterizes
    // once fleet-wide — but an operator who chose cache flags keeps them.
    if !has("--trace-dir") && !has("--log-dir") && !has("--no-log-cache") {
        let cache = args.run.out.join("cache");
        argv.push("--trace-dir".into());
        argv.push(cache.display().to_string());
        argv.push("--log-dir".into());
        argv.push(cache.display().to_string());
    }
    if !has("--workers") {
        argv.push("--workers".into());
        argv.push(workers.to_string());
    }
    // The worker's --out is the shard dir, which would shift the default
    // import directory — hand every worker the fleet's effective one so
    // `trace:<alias>` scene values resolve identically fleet-wide.
    if !has("--import-dir") {
        argv.push("--import-dir".into());
        argv.push(args.run.import_dir.display().to_string());
    }
    argv.push("--quiet".into());
    argv.push("--heartbeat-ms".into());
    argv.push(args.heartbeat_ms.to_string());
    argv.push("--out".into());
    argv.push(shard_dir.display().to_string());
    argv.push("--shard".into());
    // CLI shard specs are 1-based.
    argv.push(format!("{}/{}", index + 1, args.shard_count()));
    argv
}

/// Renders the `--dry-run` view: the partition (per shard: backend,
/// render keys, cell count) without launching anything.
pub fn render_dry_run(args: &FleetArgs, plan: &SweepPlan) -> String {
    use std::fmt::Write as _;
    let count = args.shard_count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet plan: {} cells, {} render keys → {} shard(s) ({} local, {} daemon)",
        plan.cell_count(),
        plan.render_job_count(),
        count,
        args.local_procs,
        args.daemons.len(),
    );
    for index in 0..count {
        let shard = plan
            .shard(index, count)
            .expect("indices below count are valid");
        let backend = match args.backend(index) {
            Backend::Local => "local".to_string(),
            Backend::Daemon(addr) => format!("daemon {addr}"),
        };
        let mut keys: Vec<String> = shard
            .render_jobs()
            .iter()
            .map(|rj| format!("{} ts{}", rj.key.scene(), rj.key.tile_size()))
            .collect();
        if keys.is_empty() {
            keys.push("(empty)".to_string());
        }
        let _ = writeln!(
            out,
            "  shard {}/{}  {:<18} {:>5} cells  keys: {}",
            index + 1,
            count,
            backend,
            shard.cell_count(),
            keys.join(", "),
        );
    }
    let _ = writeln!(
        out,
        "stores: {}/shards/shard-K  cache: {}  merge target: {}/merged",
        args.run.out.display(),
        args.run.out.join("cache").display(),
        args.run.out.display(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fleet_flags_are_extracted_and_the_rest_is_the_run_grammar() {
        let args = parse(&strs(&[
            "--local-procs",
            "2",
            "--scenes",
            "ccs,tib",
            "--daemon",
            "127.0.0.1:7333",
            "--frames",
            "3",
            "--out",
            "root",
            "--max-retries",
            "5",
            "--poll-ms",
            "50",
            "--stall-timeout-ms",
            "1000",
            "--dry-run",
        ]))
        .expect("parse");
        assert_eq!(args.local_procs, 2);
        assert_eq!(args.daemons, vec!["127.0.0.1:7333".to_string()]);
        assert_eq!(args.shard_count(), 3);
        assert_eq!(args.max_retries, 5);
        assert_eq!(args.poll, Duration::from_millis(50));
        assert_eq!(args.stall_timeout, Duration::from_millis(1000));
        assert!(args.dry_run);
        assert_eq!(args.run.grid.frames, 3);
        assert_eq!(args.run.grid.scene_aliases(), ["ccs", "tib"]);
        assert_eq!(args.run.out, std::path::PathBuf::from("root"));
        assert_eq!(args.backend(0), Backend::Local);
        assert_eq!(args.backend(1), Backend::Local);
        assert_eq!(args.backend(2), Backend::Daemon("127.0.0.1:7333".into()));
    }

    #[test]
    fn incompatible_run_flags_are_rejected_with_direction() {
        let err = parse(&strs(&["--local-procs", "1", "--shard", "1/2"])).unwrap_err();
        assert!(err.contains("partition"), "{err}");
        let err = parse(&strs(&["--local-procs", "1", "--no-store"])).unwrap_err();
        assert!(err.contains("--no-store"), "{err}");
        let err = parse(&strs(&["--local-procs", "1", "--no-events"])).unwrap_err();
        assert!(err.contains("liveness"), "{err}");
        let err = parse(&strs(&[])).unwrap_err();
        assert!(err.contains("--local-procs"), "{err}");
        let err = parse(&strs(&["--local-procs", "1", "--heartbeat-ms", "0"])).unwrap_err();
        assert!(err.contains("heartbeat"), "{err}");
        // Unknown flags still get the run grammar's suggestions.
        let err = parse(&strs(&["--local-procs", "1", "--scene", "ccs"])).unwrap_err();
        assert!(err.contains("--scenes"), "{err}");
    }

    #[test]
    fn worker_args_substitute_placement_and_reparse_to_the_same_grid() {
        let args = parse(&strs(&[
            "--local-procs",
            "2",
            "--scenes",
            "ccs,tib",
            "--frames",
            "3",
            "--out",
            "root",
            "--metrics",
            "m.json",
        ]))
        .expect("parse");
        let argv = worker_args(&args, 1, Path::new("root/shards/shard-1"), 4);
        let re_sweep::cli::Command::Run(run) =
            re_sweep::cli::parse(&argv).expect("worker argv parses")
        else {
            panic!("worker argv must be a run request");
        };
        // Same grid (same fingerprint), fleet placement substituted.
        assert_eq!(run.grid.fingerprint(), args.run.grid.fingerprint());
        assert_eq!(run.out, std::path::PathBuf::from("root/shards/shard-1"));
        assert_eq!(run.shard, Some(re_sweep::ShardSpec { index: 1, count: 2 }));
        assert_eq!(run.opts.workers, 4);
        assert!(run.opts.quiet);
        assert_eq!(
            run.opts.heartbeat,
            Some(Duration::from_millis(args.heartbeat_ms))
        );
        assert_eq!(run.opts.trace_dir.as_deref(), Some(Path::new("root/cache")));
        assert_eq!(run.opts.log_dir.as_deref(), Some(Path::new("root/cache")));
        // The fleet owns metrics dumping; the worker flag was dropped.
        assert_eq!(run.metrics, None);
        // Workers inherit the fleet's effective import directory (their
        // own --out is the shard dir, which would shift the default).
        assert_eq!(run.import_dir, Path::new("root/imports"));
    }

    #[test]
    fn worker_args_keep_operator_cache_and_worker_choices() {
        let args = parse(&strs(&[
            "--local-procs",
            "1",
            "--out",
            "root",
            "--trace-dir",
            "warm",
            "--workers",
            "7",
        ]))
        .expect("parse");
        let argv = worker_args(&args, 0, Path::new("root/shards/shard-0"), 4);
        let re_sweep::cli::Command::Run(run) =
            re_sweep::cli::parse(&argv).expect("worker argv parses")
        else {
            panic!("worker argv must be a run request");
        };
        assert_eq!(run.opts.trace_dir.as_deref(), Some(Path::new("warm")));
        // log_dir follows the operator's trace dir, not the fleet cache.
        assert_eq!(run.opts.log_dir.as_deref(), Some(Path::new("warm")));
        assert_eq!(run.opts.workers, 7);
    }

    #[test]
    fn dry_run_names_every_shard_and_backend() {
        let args = parse(&strs(&[
            "--local-procs",
            "2",
            "--daemon",
            "host:1",
            "--scenes",
            "ccs,tib",
            "--out",
            "root",
        ]))
        .expect("parse");
        let plan = SweepPlan::compile(&args.run.grid);
        let view = render_dry_run(&args, &plan);
        assert!(view.contains("3 shard(s)"), "{view}");
        assert!(view.contains("shard 1/3"), "{view}");
        assert!(view.contains("daemon host:1"), "{view}");
        // Two render keys over three shards: someone is empty.
        assert!(view.contains("(empty)"), "{view}");
    }
}
