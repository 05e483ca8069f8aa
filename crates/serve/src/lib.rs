//! The sweep daemon: a long-running process that serves experiment-grid
//! submissions over a local TCP socket, amortizing the `.retrace`/`.relog`
//! artifact caches across requests.
//!
//! The one-shot `sweep run` pays its Stage A cost every invocation unless
//! a warm `--log-dir` happens to cover it. `sweep serve` keeps that
//! warmth in a live process: every submission compiles to a
//! [`re_sweep::SweepPlan`], dedups its render jobs against the shared
//! disk cache, and executes on the same [`re_sweep::ThreadExecutor`] as
//! a one-shot run, one job at a time. A re-submitted grid costs only
//! Stage B and performs zero raster invocations.
//!
//! * [`proto`] — the line-delimited JSON wire protocol (versioned,
//!   hostile-input hardened; schema in `docs/SERVING.md`);
//! * [`daemon`] — the server: job queue, serial job runner, per-job
//!   stores under one root, graceful drain;
//! * [`client`] — the `sweep client` verbs (`submit`, `status`, `watch`,
//!   `report`, `csv`, `metrics`, `ping`, `shutdown`) and the library
//!   calls (`Client::submit`/`status`/`cells`, [`client::watch_job`])
//!   the `sweep fleet` daemon backend drives;
//! * [`sig`] — SIGINT/SIGTERM to a clean flush, shared with `sweep run`.
//!
//! The `sweep` binary itself lives in `re_fleet` (`crates/fleet`), the
//! top of the crate stack: its one-shot verbs delegate to
//! `re_sweep::cli`, `serve` and `client` come from here, and `fleet`
//! from `re_fleet`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod proto;
pub mod sig;

pub use client::{watch_job, Client, JobSnapshot, SubmitOutcome};
pub use daemon::{Daemon, ServeConfig};
pub use proto::{Request, Response, MAX_LINE, PROTO_VERSION};
