//! Well-known instrument names used across the workspace.
//!
//! Names are namespaced `crate.subsystem.what`; counters count events or
//! bytes, histograms (the `*.stage.*` family) record durations. The
//! registry accepts any `&'static str`, so this list is documentation
//! and a single point of truth for cross-crate tests, not a closed set.

/// Counter: total tile rasterizations — Stage A work, incremented once
/// per [`rasterize_tile_detached`] call. The
/// render/evaluate split's contract is that a sweep rasterizes each
/// render-key group exactly once (and zero times under a warm `.relog`
/// cache). This is the process-wide total, which `re_gpu::raster_invocations()`
/// reads; each sweep execution also counts its own tiles.
///
/// [`rasterize_tile_detached`]: ../../re_gpu/raster/fn.rasterize_tile_detached.html
pub const RASTER_INVOCATIONS: &str = "gpu.raster_invocations";

/// Counter: completed Stage B evaluations (one per evaluation driver, and
/// one per sweep cell that computed at least one shared section).
pub const EVALUATIONS: &str = "core.eval.evaluations";

/// Counter: technique passes driven to completion across all evaluations
/// (the default stack runs five per evaluation). A sweep cell counts one
/// per shared section it computed, RE's decision and replay halves
/// counting one each.
pub const EVAL_PASSES: &str = "core.eval.pass_executions";

/// Counter: `.retrace` trace-cache hits (capture skipped).
pub const TRACE_HITS: &str = "sweep.trace.hits";

/// Counter: `.retrace` trace-cache misses (live capture ran).
pub const TRACE_MISSES: &str = "sweep.trace.misses";

/// Counter: cached `.relog` artifacts decoded instead of rendered (one
/// per render key decoded, however many cells then evaluate its log).
pub const RELOG_REPLAYS: &str = "sweep.relog.replays";

/// Counter: freshly rendered `.relog` artifacts persisted to the cache.
pub const RELOG_SAVES: &str = "sweep.relog.saves";

/// Counter: frame chunks rendered by Stage A (one per chunk; a one-chunk
/// render counts one). `chunks / renders` is the mean frame-level
/// fan-out a sweep achieved.
pub const RENDER_FRAME_CHUNKS: &str = "sweep.render.frame_chunks";

/// Histogram: per-render chunk-stitch duration — the serial tail of a
/// frame-parallel Stage A render (re-interning color ids across chunks).
pub const RENDER_STITCH_NS: &str = "sweep.render.stitch_ns";

/// Counter: bytes of compressed `.relog` artifacts written (on-disk size,
/// counted only when compression is enabled; compare with
/// [`ARTIFACT_BYTES_WRITTEN`] to see the storage saving).
pub const RELOG_COMPRESSED_BYTES: &str = "sweep.relog.compressed_bytes";

/// Counter: artifact bytes read from disk (`.retrace` loads and `.relog`
/// replays).
pub const ARTIFACT_BYTES_READ: &str = "sweep.artifacts.bytes_read";

/// Counter: artifact bytes written to disk (`.retrace` and `.relog`
/// saves).
pub const ARTIFACT_BYTES_WRITTEN: &str = "sweep.artifacts.bytes_written";

/// Histogram: per-scene trace capture (or cache load) duration.
pub const STAGE_CAPTURE: &str = "sweep.stage.capture";

/// Histogram: per-render-job Stage A render duration.
pub const STAGE_RENDER: &str = "sweep.stage.render";

/// Histogram: per-render-key cached-`.relog` decode duration (one record
/// per render job an execution replays, shared by the key's cells).
pub const STAGE_REPLAY: &str = "sweep.stage.replay";

/// Histogram: per-cell Stage B duration — the time computing the cell's
/// own pass sections; waiting for sections other cells of the render key
/// compute is excluded.
pub const STAGE_EVAL: &str = "sweep.stage.eval";

/// Histogram: per-render-job `.relog` persist duration — the artifact
/// encode (LZSS under `--relog-compress on`) plus its atomic write,
/// after Stage A and outside [`STAGE_RENDER`].
pub const STAGE_PERSIST: &str = "sweep.stage.persist";

/// Histogram: per-cell store-commit duration (the `on_done` hook).
pub const STAGE_STORE: &str = "sweep.stage.store_write";

/// Counter: grid submissions accepted by the `sweep serve` daemon.
pub const SERVE_SUBMISSIONS: &str = "serve.submissions";

/// Counter: daemon jobs run to completion (success or failure). The
/// daemon's queue depth at any instant is
/// [`SERVE_SUBMISSIONS`]` - `[`SERVE_JOBS_DONE`]` - running`; the
/// `metrics` verb reports the live depth directly.
pub const SERVE_JOBS_DONE: &str = "serve.jobs_done";

/// Counter: render jobs a daemon submission found already satisfied by a
/// cached `.relog` artifact at compile time (Stage A skipped entirely).
pub const SERVE_DEDUP_CACHED: &str = "serve.dedup.cached_jobs";

/// Counter: client connections the daemon accepted.
pub const SERVE_CONNECTIONS: &str = "serve.connections";

/// Counter: protocol frames the daemon rejected as malformed (oversized
/// lines, bad JSON, unknown verbs) — each one produced a structured error
/// response, never a crash.
pub const SERVE_BAD_FRAMES: &str = "serve.bad_frames";

/// Counter: shard workers a `sweep fleet` supervisor launched (first
/// attempts and retries both count; `launched - retried` is the shard
/// count of a clean run).
pub const FLEET_SHARDS_LAUNCHED: &str = "fleet.shards_launched";

/// Counter: shard workers relaunched after dying or stalling (bounded by
/// the fleet's `--max-retries`; safe because stores are resumable and
/// the render-key partition is deterministic).
pub const FLEET_SHARDS_RETRIED: &str = "fleet.shards_retried";

/// Counter: shards abandoned with their retry budget exhausted — any
/// nonzero value means the fleet run failed and left `fleet.json` behind
/// for a resume.
pub const FLEET_SHARDS_FAILED: &str = "fleet.shards_failed";

/// Histogram: one `sweep fleet` supervisor poll tick — tailing every
/// shard's `events.jsonl`, reaping children, polling daemons and
/// repainting the progress line.
pub const FLEET_SUPERVISOR_TICK: &str = "fleet.supervisor.tick";
