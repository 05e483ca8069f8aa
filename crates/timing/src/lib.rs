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
//!   stream, which [`dram::Dram`] services; [`MemorySystem`] runs both per
//!   epoch, and a [`DramStream`] keeps a whole replay's stream for
//!   consumers that differ only in which requests reach DRAM.
//! * [`pipeline`] — stage-throughput cycle model (geometry and per-tile
//!   raster cycles).
//! * [`energy`] — per-access energy table and static power integration.
//!
//! # How a technique uses this crate
//!
//! Each evaluated technique owns one [`MemorySystem`] (its private cache
//! hierarchy + DRAM) and one [`EnergyModel`]. The recorded pipeline
//! events are replayed into the memory system
//! ([`MemorySystem::replay`]), whose DRAM services each request the
//! caches send it; after each frame/tile the accumulated [`MemEpoch`] is
//! drained and converted to cycles with
//! [`geometry_cycles`] / [`raster_tile_cycles`] under a [`TimingConfig`],
//! and at the end the DRAM traffic — classified per [`TrafficClass`] —
//! and SRAM access counts are settled into an [`EnergyBreakdown`]:
//!
//! ```
//! use re_timing::{MemorySystem, TimingConfig};
//! use re_gpu::Event;
//!
//! let cfg = TimingConfig::mali450();
//! let mut mem = MemorySystem::new(cfg);
//! // A replayed pipeline access; `true` keeps color flushes.
//! mem.replay(&[Event::VertexFetch { addr: 0x100, bytes: 48 }], true);
//! let epoch = mem.take_epoch();
//! assert!(epoch.vertex_misses > 0, "a cold vertex cache misses to DRAM");
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
pub use memory::{Caches, DramStream, MemEpoch, MemorySystem};
pub use pipeline::{geometry_cycles, raster_tile_cycles};
