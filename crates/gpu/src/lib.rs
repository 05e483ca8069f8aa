//! A functional Tile-Based-Rendering (TBR) GPU simulator.
//!
//! This crate is the substitute for the paper's Teapot functional simulator
//! (Android emulator + Gallium softpipe): it executes an abstracted OpenGL-ES
//! command stream and *renders real pixels* while counting every activity the
//! timing/energy models need (vertices shaded, primitives binned, fragments
//! rasterized/early-Z-killed/shaded, texels fetched, bytes flushed) and
//! emitting the memory-address streams that drive the cache simulators.
//!
//! The architecture mirrors the paper's Fig. 4 baseline (an ARM Mali-450
//! class GPU):
//!
//! ```text
//!  Geometry Pipeline: Vertex Fetcher → Vertex Processor (bytecode VM)
//!                     → Primitive Assembly (cull + near clip)
//!  Tiling Engine:     Polygon List Builder → Parameter Buffer (byte-exact
//!                     encoding) + per-tile bins
//!  Raster Pipeline:   Tile Scheduler → Rasterizer (edge functions)
//!                     → Early-Z → Fragment Processors → Blending
//!                     → on-chip Color Buffer → Tile Flush → Frame Buffer
//! ```
//!
//! Crucially for Rendering Elimination, the two halves are exposed
//! separately: [`geometry::run_geometry`] bins a frame and returns a
//! [`GeometryOutput`] holding, per drawcall, the byte-exact constants block
//! and, per primitive, the Parameter Buffer attribute bytes plus the list of
//! overlapped tiles — exactly the stream the paper's Signature Unit taps.
//! [`raster::rasterize_tile_detached`] then renders any single tile on
//! demand in its own on-chip buffers and returns its colors, so a technique
//! driver can skip redundant tiles entirely. Stage A (the `re-core` crate)
//! calls these two directly and holds no frame buffer: a tile flushes to
//! the surface its frame's index selects ([`framebuffer::surface_base`]).
//!
//! [`Gpu`] is the functional reference built on the same two calls: it
//! owns a texture store and a double-buffered [`Framebuffer`], writes each
//! tile's colors into the back surface ([`Gpu::rasterize_tile`]) and swaps
//! at frame end ([`Gpu::end_frame`]). Stage A's recordings are tested
//! against it bit for bit, and golden images read its pixels.
//!
//! Three cross-cutting facilities matter to consumers:
//!
//! * **Access events** ([`Event`]) — every pipeline memory access
//!   (vertex fetch, Parameter Buffer read/write, texel fetch run, color
//!   flush) is appended to a caller-supplied `Vec<Event>`, which is the
//!   stream `re_core` records per tile and `re_timing`'s `Caches` replay
//!   into the DRAM-bound requests an accounting machine charges. A tile's events and its shaded
//!   fragments' input hashes make up its [`TileRecord`].
//! * **Activity counters** ([`stats::GeometryStats`],
//!   [`stats::TileStats`]) — the per-frame / per-tile work counts the
//!   cycle and energy models consume.
//! * **The raster-invocation counter** ([`raster_invocations`]) — a
//!   process-wide count of tile rasterizations, incremented in
//!   [`raster::rasterize_tile_detached`], which every tile rasterization
//!   runs. It is the total a metrics snapshot reports; the sweep pins its
//!   render-once contract (each render key rasterized at most once, and
//!   *zero* times when a cached render log covers it) on each execution's
//!   own count.
//!
//! The binning strategy is selectable per [`GpuConfig`] via
//! [`BinningMode`]: conservative bounding-box (the paper's baseline) or
//! exact coverage.
//!
//! ```
//! use re_gpu::{Gpu, GpuConfig};
//! use re_gpu::api::FrameDesc;
//!
//! let mut gpu = Gpu::new(GpuConfig { width: 64, height: 64, ..GpuConfig::default() });
//! let frame = FrameDesc::new(); // empty frame: just clears
//! let mut events = Vec::new(); // pipeline memory accesses, in order
//! let geo = gpu.run_geometry(&frame, &mut events);
//! let mut tiles = re_gpu::TileRecord::default(); // accesses + fragment hashes
//! for t in 0..gpu.tile_count() {
//!     gpu.rasterize_tile(&frame, &geo, t, &mut tiles);
//! }
//! gpu.end_frame();
//! // An empty frame still flushes its pixels: 16 tiles × 16 rows.
//! assert_eq!((events.len(), tiles.events.len()), (0, 16 * 16));
//! assert!(tiles.hashes.is_empty(), "no fragment was shaded");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod api;
pub mod framebuffer;
pub mod geometry;
pub mod image;
pub mod raster;
pub mod shader;
pub mod stats;
pub mod texture;
pub mod tiling;

pub use access::Event;
pub use api::{DrawCall, FrameDesc, PipelineState};
pub use framebuffer::Framebuffer;
pub use geometry::GeometryOutput;
pub use raster::{raster_invocations, TileRecord};
pub use shader::ShaderProgram;
pub use stats::{GeometryStats, TileStats};
pub use texture::{Texture, TextureStore};

use re_math::Color;

/// How the Polygon List Builder decides which tiles a primitive overlaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BinningMode {
    /// Conservative: every tile the screen-space bounding box touches
    /// (what simple low-power tilers do; the paper's assumed baseline).
    #[default]
    BoundingBox,
    /// Exact: tiles that actually intersect the triangle (separating-axis
    /// test). Fewer (primitive, tile) pairs — sharper signatures and less
    /// Parameter Buffer traffic — at the cost of per-tile edge tests in
    /// the binner.
    ExactCoverage,
}

/// Static configuration of the simulated GPU (screen geometry; the timing
/// parameters of the paper's Table I live in `re-timing`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuConfig {
    /// Screen width in pixels (paper: 1196).
    pub width: u32,
    /// Screen height in pixels (paper: 768).
    pub height: u32,
    /// Square tile edge in pixels (paper: 16).
    pub tile_size: u32,
    /// Tile-overlap test used by the Polygon List Builder.
    pub binning: BinningMode,
}

impl Default for GpuConfig {
    fn default() -> Self {
        // Paper Table I.
        GpuConfig {
            width: 1196,
            height: 768,
            tile_size: 16,
            binning: BinningMode::default(),
        }
    }
}

impl GpuConfig {
    /// Number of tile columns (`⌈width / tile_size⌉`).
    pub fn tiles_x(&self) -> u32 {
        self.width.div_ceil(self.tile_size)
    }

    /// Number of tile rows.
    pub fn tiles_y(&self) -> u32 {
        self.height.div_ceil(self.tile_size)
    }

    /// Total number of tiles the frame is divided into.
    pub fn tile_count(&self) -> u32 {
        self.tiles_x() * self.tiles_y()
    }

    /// Pixel rectangle of tile `tile_id` (row-major), clipped to the screen.
    pub fn tile_rect(&self, tile_id: u32) -> re_math::Rect {
        let tx = tile_id % self.tiles_x();
        let ty = tile_id / self.tiles_x();
        let x0 = (tx * self.tile_size) as i32;
        let y0 = (ty * self.tile_size) as i32;
        re_math::Rect::new(
            x0,
            y0,
            (x0 + self.tile_size as i32).min(self.width as i32),
            (y0 + self.tile_size as i32).min(self.height as i32),
        )
    }
}

/// The functional reference GPU: configuration, texture store and
/// double-buffered frame buffer, driven frame by frame. Stage A (the
/// `re-core` crate) records the same tiles without it.
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    textures: TextureStore,
    framebuffer: Framebuffer,
}

impl Gpu {
    /// Creates a GPU with an empty texture store and black frame buffers.
    pub fn new(config: GpuConfig) -> Self {
        assert!(config.width > 0 && config.height > 0 && config.tile_size > 0);
        Gpu {
            config,
            textures: TextureStore::new(),
            framebuffer: Framebuffer::new(config),
        }
    }

    /// The GPU configuration.
    pub fn config(&self) -> GpuConfig {
        self.config
    }

    /// Number of screen tiles.
    pub fn tile_count(&self) -> u32 {
        self.config.tile_count()
    }

    /// Mutable access to the texture store (workloads upload textures here).
    pub fn textures_mut(&mut self) -> &mut TextureStore {
        &mut self.textures
    }

    /// Shared access to the texture store.
    pub fn textures(&self) -> &TextureStore {
        &self.textures
    }

    /// The double-buffered frame buffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.framebuffer
    }

    /// Runs the Geometry Pipeline and the Tiling Engine over `frame`:
    /// fetches and shades vertices, assembles/culls/clips primitives, bins
    /// them into tiles and encodes the Parameter Buffer.
    ///
    /// No pixels are touched; the returned [`GeometryOutput`] carries
    /// everything the Raster Pipeline (and the Signature Unit) needs.
    /// The frame's vertex fetches and Parameter Buffer writes are appended
    /// to `events`.
    pub fn run_geometry(&mut self, frame: &FrameDesc, events: &mut Vec<Event>) -> GeometryOutput {
        geometry::run_geometry(&self.config, frame, events)
    }

    /// Rasterizes a single tile of the current frame into the back buffer:
    /// fetches the tile's primitives from the Parameter Buffer, rasterizes,
    /// early-Z tests, shades, blends and flushes the tile's colors.
    ///
    /// The tile's memory accesses and fragment hashes are appended to
    /// `record`. Returns the tile's activity counters. Tiles may be
    /// rasterized in any order; a tile that is never rasterized keeps its
    /// previous back-buffer content (which is what Rendering Elimination
    /// exploits). This is [`raster::rasterize_tile_detached`] at the back
    /// surface's base, plus writing the returned colors into that surface.
    pub fn rasterize_tile(
        &mut self,
        frame: &FrameDesc,
        geo: &GeometryOutput,
        tile_id: u32,
        record: &mut TileRecord,
    ) -> TileStats {
        let base_addr = self.framebuffer.back().base_addr();
        let (stats, colors) = raster::rasterize_tile_detached(
            &self.config,
            frame,
            geo,
            tile_id,
            &self.textures,
            base_addr,
            record,
        );
        let back = self.framebuffer.back_mut();
        for ((x, y), c) in self.config.tile_rect(tile_id).pixels().zip(colors) {
            back.put_pixel(x as u32, y as u32, c);
        }
        stats
    }

    /// Reads back the color of pixel `(x, y)` from the back buffer (the
    /// frame currently being rendered).
    pub fn back_pixel(&self, x: u32, y: u32) -> Color {
        self.framebuffer.back().pixel(x, y)
    }

    /// Finishes the frame: swaps the front and back buffers.
    pub fn end_frame(&mut self) {
        self.framebuffer.swap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_grid_dimensions_match_paper() {
        let c = GpuConfig::default();
        // 1196 / 16 = 74.75 → 75 columns; 768 / 16 = 48 rows.
        assert_eq!(c.tiles_x(), 75);
        assert_eq!(c.tiles_y(), 48);
        assert_eq!(c.tile_count(), 3600);
    }

    #[test]
    fn edge_tiles_are_clipped_to_screen() {
        let c = GpuConfig::default();
        let last_col = c.tile_rect(74);
        assert_eq!(last_col.width(), 1196 - 74 * 16); // 12-pixel-wide edge tile
        assert_eq!(last_col.height(), 16);
    }

    #[test]
    fn tile_rect_row_major_layout() {
        let c = GpuConfig {
            width: 64,
            height: 32,
            tile_size: 16,
            ..Default::default()
        };
        assert_eq!(c.tile_rect(0).x0, 0);
        assert_eq!(c.tile_rect(1).x0, 16);
        assert_eq!(c.tile_rect(4).y0, 16); // second row starts at index tiles_x
    }

    #[test]
    fn empty_frame_renders_clear_color() {
        let mut gpu = Gpu::new(GpuConfig {
            width: 32,
            height: 32,
            tile_size: 16,
            ..Default::default()
        });
        let mut frame = FrameDesc::new();
        frame.clear_color = Color::new(10, 20, 30, 255);
        let geo = gpu.run_geometry(&frame, &mut Vec::new());
        for t in 0..gpu.tile_count() {
            gpu.rasterize_tile(&frame, &geo, t, &mut TileRecord::default());
        }
        assert_eq!(gpu.back_pixel(0, 0), Color::new(10, 20, 30, 255));
        assert_eq!(gpu.back_pixel(31, 31), Color::new(10, 20, 30, 255));
    }
}
