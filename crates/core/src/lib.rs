//! Rendering Elimination — the paper's primary contribution, its
//! state-of-the-art baselines, and the unified simulator driver.
//!
//! > M. Anglada, E. de Lucas, J-M. Parcerisa, J. L. Aragón, A. González,
//! > P. Marcuello, *"Rendering Elimination: Early Discard of Redundant
//! > Tiles in the Graphics Pipeline"*, HPCA 2019.
//!
//! Rendering Elimination (RE) observes that in a Tile-Based-Rendering GPU
//! the complete set of inputs a tile will be rendered from — the vertex
//! attributes of every overlapping primitive plus the constants of their
//! drawcalls — is known as soon as the Geometry Pipeline finishes, *before*
//! any fragment exists. By signing that input stream with an incrementally
//! computed CRC32 and comparing against the signature the same tile had in
//! the previous frame, an entire tile's Raster Pipeline execution
//! (rasterization, Early-Z, fragment shading, texturing, blending, flush)
//! can be skipped when nothing changed.
//!
//! # Architecture: render once, evaluate many
//!
//! The simulator is split into two stages around one observation: none of
//! the techniques changes rendered pixels, so the functional render is an
//! immutable artifact every evaluation can share.
//!
//! ```text
//!  Stage A — render + record                Stage B — evaluate
//!  ┌─────────────────────────┐   RenderLog  ┌─────────────────────────┐
//!  │ render::Renderer        │  ──────────▸ │ passes::Evaluation      │
//!  │  functional GPU, once   │  (Send+Sync, │  ordered TechniquePass  │
//!  │  per (screen, tile,     │   replayable │  stack: Baseline → RE → │
//!  │  binning) render key    │   N times)   │  Redundancy → TE → Memo │
//!  └─────────────────────────┘              └─────────────────────────┘
//! ```
//!
//! [`Simulator::run`] composes A then B frame by frame;
//! [`render::render_scene`] + [`passes::evaluate`] run them decoupled so a
//! sweep renders each render key exactly once and fans out evaluation-only
//! jobs (signature width, compare distance, refresh, queue depths, cache
//! geometry) over the shared log, and [`share::evaluate_shared`] computes
//! each technique pass once per distinct input among those jobs.
//!
//! # Modules
//!
//! * [`render`] — Stage A: the [`render::Renderer`] and the recorded
//!   [`render::RenderLog`] artifact. Every render is frame chunks
//!   ([`render::render_chunk`], each rasterizing its tiles in bands)
//!   stitched back by [`render::stitch_chunks`]; [`render::render_scene`]
//!   is the one-chunk, one-band case on the calling thread.
//! * [`passes`] — Stage B: the [`passes::TechniquePass`] trait, the
//!   built-in passes and the [`passes::Evaluation`] driver.
//! * [`share`] — Stage B work sharing: each pass section computed once per
//!   distinct input among the cells of one render log.
//! * [`signature`] — the Signature Unit (Compute/Accumulate CRC units,
//!   OT queue, constants bitmap) and the Signature Buffer.
//! * [`redundancy`] — ground-truth tile classification (Figs. 2, 15a).
//! * [`te`] — Transaction Elimination (ARM's flush-elision baseline).
//! * [`memo`] — PFR-aided Fragment Memoization (ISCA'14 baseline).
//! * [`record`] — record/replay plumbing for multi-technique evaluation.
//! * [`sim`] — [`Simulator`]: runs a [`Scene`] and reports cycles, energy,
//!   DRAM traffic, redundancy and false-positive/negative counts for every
//!   technique at once.
//!
//! # Quickstart
//!
//! ```
//! use re_core::{Scene, SimOptions, Simulator};
//! use re_gpu::api::FrameDesc;
//! use re_gpu::GpuConfig;
//!
//! struct Empty;
//! impl Scene for Empty {
//!     fn frame(&mut self, _i: usize) -> FrameDesc {
//!         FrameDesc::new()
//!     }
//! }
//!
//! let mut sim = Simulator::new(SimOptions {
//!     gpu: GpuConfig { width: 64, height: 64, tile_size: 16, ..Default::default() },
//!     ..SimOptions::default()
//! });
//! let report = sim.run(&mut Empty, 6);
//! assert_eq!(report.false_positives, 0);
//! assert!(report.re.total_cycles() <= report.baseline.total_cycles());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lzss;
pub mod memo;
pub mod passes;
pub mod record;
pub mod redundancy;
pub mod relog;
pub mod render;
pub mod share;
pub mod signature;
pub mod sim;
pub mod te;

pub use memo::{FragmentMemo, MemoStats};
pub use passes::{evaluate, Evaluation, TechniquePass};
pub use redundancy::TileClassCounts;
pub use relog::{Compression, RelogError, RelogReader};
pub use render::{
    chunk_ranges, render_chunk, render_scene, stitch_chunks, RenderChunk, RenderLog, Renderer,
};
pub use share::{evaluate_shared, SectionKey, SectionTable, SharedEval};
pub use signature::{SignatureBuffer, SignatureUnit, SignatureUnitStats};
pub use sim::{RunReport, Scene, SimOptions, Simulator, TechniqueReport};
pub use te::TransactionElimination;
