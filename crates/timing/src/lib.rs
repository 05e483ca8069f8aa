//! Cycle and energy models for the RE GPU simulator.
//!
//! This crate substitutes the paper's cycle-accurate timing simulator,
//! McPAT/CACTI power model and DRAMSim2 (§IV-A). It consumes the activity
//! counters and memory-address streams produced by `re-gpu` and converts
//! them into cycles, per-structure access counts, DRAM traffic and energy.
//!
//! Components:
//!
//! * [`config`] — the Table I machine description ([`TimingConfig::mali450`]).
//! * [`cache`] — a set-associative LRU cache model used for the Vertex,
//!   Texture (×4), Tile and L2 caches.
//! * [`dram`] — a bandwidth/latency LPDDR3-like main-memory model with
//!   traffic classified by stream (colors / texels / primitives / …), the
//!   classification Fig. 15b reports.
//! * [`memory`] — the hierarchy's two stages: [`Caches`] turn every
//!   recorded pipeline access ([`re_gpu::Event`]) into a DRAM-bound request
//!   stream, which [`dram::Dram`] services; a [`DramStream`] keeps a whole
//!   replay's stream for consumers that differ only in which requests
//!   reach DRAM.
//! * [`pipeline`] — stage-throughput cycle model (geometry and per-tile
//!   raster cycles).
//! * [`energy`] — per-access energy table and static power integration.
//!
//! # How a technique uses this crate
//!
//! Each evaluated technique charges one DRAM ([`dram::Dram`]) and one
//! [`EnergyModel`]. Its DRAM-bound requests come epoch by epoch (a frame's
//! geometry, or one tile) from a source: live [`Caches`] replaying the
//! recorded pipeline events ([`Caches::replay`]), or a [`DramStream`] an
//! earlier replay recorded. DRAM services each epoch's requests and fills
//! in its latency sums and busy cycles; the [`MemEpoch`] is then
//! converted to cycles with [`geometry_cycles`] / [`raster_tile_cycles`]
//! under a [`TimingConfig`], and at the end the DRAM traffic — classified
//! per [`TrafficClass`] — and the caches' SRAM access counts are settled
//! into an [`EnergyBreakdown`]:
//!
//! ```
//! use re_timing::dram::Dram;
//! use re_timing::{Caches, TimingConfig};
//! use re_gpu::Event;
//!
//! let cfg = TimingConfig::mali450();
//! let (mut caches, mut dram) = (Caches::new(cfg), Dram::new(cfg));
//! // One epoch of replayed pipeline accesses.
//! let (requests, mut epoch) = caches.replay(&[Event::VertexFetch { addr: 0x100, bytes: 48 }]);
//! dram.service(requests, &mut epoch);
//! assert!(epoch.vertex_misses > 0, "a cold vertex cache misses to DRAM");
//! assert!(epoch.vertex_latency_sum > 0, "and waits for DRAM");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod dram;
pub mod energy;
pub mod memory;
pub mod pipeline;

pub use config::TimingConfig;
pub use dram::TrafficClass;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use memory::{Caches, DramStream, MemEpoch};
pub use pipeline::{geometry_cycles, raster_tile_cycles};
