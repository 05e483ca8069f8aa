//! The double-buffered Frame Buffer in simulated main memory.
//!
//! The paper (§IV-C) evaluates with the common double-buffered setup: the
//! display scans the *front* buffer while the GPU renders into the *back*
//! buffer, and the two are swapped at frame end. A tile skipped by
//! Rendering Elimination therefore retains the color it had **two** frames
//! ago — which is exactly why the Signature Buffer spans two frames.

use re_math::{Color, Rect};

use crate::access::FB_BASE;
use crate::GpuConfig;

/// One color buffer in main memory.
#[derive(Debug, Clone)]
pub struct ColorSurface {
    width: u32,
    height: u32,
    pixels: Vec<Color>,
    base_addr: u64,
}

impl ColorSurface {
    fn new(width: u32, height: u32, base_addr: u64) -> Self {
        ColorSurface {
            width,
            height,
            pixels: vec![Color::BLACK; (width * height) as usize],
            base_addr,
        }
    }

    /// Color of pixel `(x, y)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn pixel(&self, x: u32, y: u32) -> Color {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.pixels[(y * self.width + x) as usize]
    }

    /// Simulated address of pixel `(x, y)` (4 bytes per pixel, row-major).
    #[inline]
    pub fn pixel_addr(&self, x: u32, y: u32) -> u64 {
        self.base_addr + (y as u64 * self.width as u64 + x as u64) * 4
    }

    /// Simulated base address of the surface. [`pixel_addr`](Self::pixel_addr)
    /// is a pure function of this base and the surface width, which is what
    /// lets a detached rasterizer ([`crate::raster::rasterize_tile_detached`])
    /// report byte-identical flush addresses without holding the surface.
    /// The base itself is [`surface_base`] of a frame the surface renders.
    #[inline]
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Writes one pixel.
    #[inline]
    pub fn put_pixel(&mut self, x: u32, y: u32, c: Color) {
        let w = self.width;
        self.pixels[(y * w + x) as usize] = c;
    }

    /// Copies the rectangle `rect` out, row-major.
    pub fn read_rect(&self, rect: Rect) -> Vec<Color> {
        rect.pixels()
            .map(|(x, y)| self.pixel(x as u32, y as u32))
            .collect()
    }

    /// Whether the contents of `rect` are identical in `self` and `other`.
    pub fn rect_equals(&self, other: &ColorSurface, rect: Rect) -> bool {
        rect.pixels()
            .all(|(x, y)| self.pixel(x as u32, y as u32) == other.pixel(x as u32, y as u32))
    }
}

/// Simulated base address of the surface frame `frame_index` flushes to.
///
/// A render starting at frame 0 renders even frames into one surface and
/// odd frames into the other, swapping at every frame end, so the surface
/// is a function of the frame index alone. This is the one address map:
/// [`Framebuffer::new`] places its two surfaces with it, and a renderer
/// that keeps no frame buffer passes it to
/// [`crate::raster::rasterize_tile_detached`] for flush addresses
/// identical to a [`crate::Gpu`]'s.
pub fn surface_base(config: &GpuConfig, frame_index: usize) -> u64 {
    let size = (config.width as u64 * config.height as u64 * 4).next_multiple_of(4096);
    FB_BASE + (frame_index % 2) as u64 * size
}

/// Front + back color surfaces with swap.
#[derive(Debug)]
pub struct Framebuffer {
    surfaces: [ColorSurface; 2],
    /// Index of the back (being-rendered) surface.
    back_idx: usize,
}

impl Framebuffer {
    /// Allocates both surfaces, cleared to black. The back surface is
    /// frame 0's ([`surface_base`]).
    pub fn new(config: GpuConfig) -> Self {
        Framebuffer {
            surfaces: [0, 1]
                .map(|i| ColorSurface::new(config.width, config.height, surface_base(&config, i))),
            back_idx: 0,
        }
    }

    /// The surface currently being rendered.
    pub fn back(&self) -> &ColorSurface {
        &self.surfaces[self.back_idx]
    }

    /// Mutable back surface (the Tile Flush writes here).
    pub fn back_mut(&mut self) -> &mut ColorSurface {
        &mut self.surfaces[self.back_idx]
    }

    /// The surface currently being displayed.
    pub fn front(&self) -> &ColorSurface {
        &self.surfaces[1 - self.back_idx]
    }

    /// Swaps front and back at frame end.
    pub fn swap(&mut self) {
        self.back_idx = 1 - self.back_idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig {
            width: 32,
            height: 16,
            tile_size: 16,
            ..Default::default()
        }
    }

    #[test]
    fn starts_black() {
        let fb = Framebuffer::new(cfg());
        assert_eq!(fb.back().pixel(0, 0), Color::BLACK);
        assert_eq!(fb.front().pixel(31, 15), Color::BLACK);
    }

    #[test]
    fn swap_exchanges_surfaces() {
        let mut fb = Framebuffer::new(cfg());
        fb.back_mut().put_pixel(3, 4, Color::WHITE);
        fb.swap();
        assert_eq!(fb.front().pixel(3, 4), Color::WHITE);
        assert_eq!(fb.back().pixel(3, 4), Color::BLACK);
        fb.swap();
        assert_eq!(fb.back().pixel(3, 4), Color::WHITE, "double swap restores");
    }

    #[test]
    fn surfaces_have_disjoint_address_ranges() {
        let fb = Framebuffer::new(cfg());
        let a_end = fb.surfaces[0].pixel_addr(31, 15) + 4;
        assert!(fb.surfaces[1].pixel_addr(0, 0) >= a_end);
    }

    #[test]
    fn rect_equality_detects_differences() {
        let mut fb = Framebuffer::new(cfg());
        let r = Rect::new(0, 0, 16, 16);
        // Clone the back surface as an independent reference.
        let reference = fb.back().clone();
        assert!(fb.back().rect_equals(&reference, r));
        fb.back_mut().put_pixel(5, 5, Color::WHITE);
        assert!(!fb.back().rect_equals(&reference, r));
        // A rect not containing (5,5) is still equal.
        assert!(fb.back().rect_equals(&reference, Rect::new(16, 0, 32, 16)));
    }

    #[test]
    fn read_rect_row_major() {
        let mut fb = Framebuffer::new(cfg());
        fb.back_mut().put_pixel(1, 0, Color::WHITE);
        let px = fb.back().read_rect(Rect::new(0, 0, 2, 2));
        assert_eq!(
            px,
            vec![Color::BLACK, Color::WHITE, Color::BLACK, Color::BLACK]
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_pixel_panics() {
        let fb = Framebuffer::new(cfg());
        let _ = fb.back().pixel(32, 0);
    }
}
