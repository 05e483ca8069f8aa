//! Parallel experiment orchestration for the Rendering Elimination
//! reproduction.
//!
//! The paper evaluates every design point — tile size, signature width,
//! compare distance, refresh policy, binning mode, machine parameters —
//! across ten game workloads. This crate turns that evaluation into a
//! first-class, parallel, resumable pipeline built around a **declarative
//! axis registry**:
//!
//! * [`axis`] — every sweep parameter is defined exactly once as an
//!   [`axis::AxisDef`] (name, CLI flag, parse/format, default, domain,
//!   render/evaluate classification, `SimOptions` lowering); grids, cells,
//!   CLI, CSV, store records, fingerprints, render keys and report tables
//!   are all derived from the registry;
//! * [`ExperimentGrid`] — the cross product of per-axis value lists ×
//!   scenes, enumerated into stable-id [`Cell`]s carrying a typed
//!   [`axis::ParamPoint`];
//! * [`artifacts`] — the on-disk artifact caches: each workload is
//!   captured **once** into a `.retrace` ([`TraceCache`]) and replayed per
//!   worker, so scene generators never need to be `Send`; each render
//!   key's Stage A log can be persisted as a `.relog`
//!   ([`RenderLogCache`]), letting resumed and sharded runs skip
//!   rasterization entirely;
//! * render grouping — cells sharing a [`RenderKey`] (every
//!   `Render`-classified axis, screen and frame count) share one
//!   `Arc<re_core::RenderLog>` built by the first worker to reach the
//!   group, so a sweep over evaluation-only axes rasterizes each key
//!   exactly once (O(render-keys), not O(cells)) — and zero times when a
//!   valid cached log covers the key;
//! * [`plan`] — [`SweepPlan::compile`] turns a grid into an explicit job
//!   graph (one [`RenderJob`] per render key, one [`EvalJob`] per cell)
//!   that callers can query, [shard by render key](SweepPlan::shard)
//!   across machines, or execute directly;
//! * [`exec`] — the work-stealing [`ThreadExecutor`] (the one executor:
//!   one-shot runs, shards and the `sweep serve` daemon all use it), plus
//!   [`SweepObserver`] progress events (no more hardwired stderr),
//!   including a periodic `Progress` heartbeat with a windowed ETA;
//! * [`events`] — [`JsonlObserver`] writes every event as one line of a
//!   versioned, append-only `events.jsonl` beside the store, and
//!   [`events::read_events`] parses it back;
//! * [`profile`] — [`profile::Profile`] folds a run log into stage
//!   breakdowns, cache-hit accounting and per-scene / per-render-key /
//!   per-worker hotspots (`sweep profile`); process-wide counters and
//!   duration histograms live in the `re_obs` metrics registry
//!   (`sweep --metrics` dumps them as `metrics.json`);
//! * [`pool`] — a std-only work-stealing thread pool that fans cells out
//!   and reassembles results in cell-id order (`RE_SWEEP_WORKERS`
//!   overrides the default worker count);
//! * [`ResultStore`] — an on-disk store (per-cell JSON, committed
//!   atomically) plus a regenerated `results.csv`; a killed sweep resumes
//!   from completed cells and the final CSV is byte-identical to a fresh
//!   single-worker run and to the per-cell reference ([`run_cell`]);
//! * [`merge`] — [`merge_stores`] fingerprint-checks and unions per-shard
//!   stores into one whose `results.csv` is byte-identical to an
//!   unsharded run (`sweep merge`);
//! * [`report`] — per-axis marginal speedup tables computed straight from
//!   a store's records (`sweep report`);
//! * [`cli`] — registry-generated command-line parsing for the `sweep`
//!   binary, including the `sweep axes` self-documentation table.
//!
//! # Quickstart
//!
//! ```
//! use re_sweep::{axis, ExperimentGrid, SweepOptions};
//!
//! let mut grid = ExperimentGrid::default()
//!     .with_scenes(&["ccs"])
//!     .with_axis(axis::TILE_SIZE, vec![16, 32]);
//! grid.frames = 2;
//! grid.width = 128;
//! grid.height = 64;
//! let opts = SweepOptions { workers: 2, quiet: true, ..SweepOptions::default() };
//! let outcomes = re_sweep::run_grid(&grid, &opts).expect("sweep");
//! assert_eq!(outcomes.len(), 2);
//! assert!(outcomes[0].report.baseline.total_cycles() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod axis;
pub mod cli;
pub mod engine;
pub mod events;
pub mod exec;
pub mod grid;
pub mod importer;
pub mod json;
pub mod merge;
pub mod plan;
pub mod pool;
pub mod profile;
pub mod report;
pub mod store;

pub use artifacts::{capture_alias, RenderLogCache, TraceCache};
pub use axis::{AxisClass, AxisDef, AxisId, ParamPoint, Presence, AXES, AXIS_COUNT};
pub use engine::{capture_plan_traces, run_cell};
pub use engine::{run_grid, run_plan, run_plan_with_store};
pub use engine::{CellOutcome, SweepOptions, SweepSummary};
pub use events::{
    event_json, read_events, EventRecord, JsonlObserver, EVENTS_FILE, EVENTS_VERSION,
};
pub use exec::{
    MultiObserver, NullObserver, StderrObserver, SweepEvent, SweepObserver, ThreadExecutor,
};
pub use grid::{binning_name, parse_binning, Cell, ExperimentGrid, RenderKey};
pub use merge::{merge_stores, MergeSummary};
pub use plan::{EvalJob, RenderJob, ShardSpec, SweepPlan};
pub use profile::Profile;
pub use report::{axis_marginals, render_report, scene_table, AxisMarginal, SceneRow};
pub use store::{csv_axes, csv_header, read_records, read_store_meta, render_csv};
pub use store::{CellRecord, ResultStore, StoreMeta};
