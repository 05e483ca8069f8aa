//! RGBA8 textures and the simulated texture address space.
//!
//! Textures live in main memory in the region starting at
//! [`crate::access::TEX_BASE`]; every sample reports its texel address so the
//! Texture Caches (Table I: four 8 KB, 2-way, 64 B lines) see a realistic
//! stream.

use re_math::{Color, Vec4};

use crate::access::TEX_BASE;

/// Handle to a texture in the [`TextureStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TextureId(pub u32);

/// Texture filtering mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Filter {
    /// Nearest-texel sampling (1 texel fetch).
    #[default]
    Nearest,
    /// Bilinear filtering (4 texel fetches).
    Bilinear,
}

/// An immutable RGBA8 2D texture with wrap-around addressing.
#[derive(Debug, Clone)]
pub struct Texture {
    width: u32,
    height: u32,
    texels: Vec<Color>,
    base_addr: u64,
}

impl Texture {
    /// Texture width in texels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Texture height in texels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Base of this texture's slab in the simulated address space.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Texel at `(x, y)` with wrap-around (repeat) addressing.
    #[inline]
    pub fn texel(&self, x: i32, y: i32) -> Color {
        let xi = x.rem_euclid(self.width as i32) as u32;
        let yi = y.rem_euclid(self.height as i32) as u32;
        self.texels[(yi * self.width + xi) as usize]
    }

    /// Simulated address of texel `(x, y)` (4 bytes per texel, row-major).
    #[inline]
    pub fn texel_addr(&self, x: i32, y: i32) -> u64 {
        let xi = x.rem_euclid(self.width as i32) as u64;
        let yi = y.rem_euclid(self.height as i32) as u64;
        self.base_addr + (yi * self.width as u64 + xi) * 4
    }

    /// Samples at normalized coordinates `(u, v)` with the given filter,
    /// invoking `fetch(addr)` once per texel touched.
    pub fn sample(&self, u: f32, v: f32, filter: Filter, fetch: &mut dyn FnMut(u64)) -> Vec4 {
        match filter {
            Filter::Nearest => {
                let x = (u * self.width as f32).floor() as i32;
                let y = (v * self.height as f32).floor() as i32;
                fetch(self.texel_addr(x, y));
                self.texel(x, y).to_vec4()
            }
            Filter::Bilinear => {
                let fx = u * self.width as f32 - 0.5;
                let fy = v * self.height as f32 - 0.5;
                let x0 = fx.floor() as i32;
                let y0 = fy.floor() as i32;
                let tx = fx - x0 as f32;
                let ty = fy - y0 as f32;
                let mut acc = Vec4::ZERO;
                for (dx, dy, w) in [
                    (0, 0, (1.0 - tx) * (1.0 - ty)),
                    (1, 0, tx * (1.0 - ty)),
                    (0, 1, (1.0 - tx) * ty),
                    (1, 1, tx * ty),
                ] {
                    fetch(self.texel_addr(x0 + dx, y0 + dy));
                    acc += self.texel(x0 + dx, y0 + dy).to_vec4() * w;
                }
                acc
            }
        }
    }
}

/// Owns all uploaded textures and allocates their address slabs.
#[derive(Debug, Default)]
pub struct TextureStore {
    textures: Vec<Texture>,
    next_addr: u64,
}

impl TextureStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TextureStore {
            textures: Vec::new(),
            next_addr: TEX_BASE,
        }
    }

    /// Uploads a texture from a closure generating texel `(x, y)` colors.
    ///
    /// # Panics
    /// Panics if `width` or `height` is zero.
    pub fn upload_with(
        &mut self,
        width: u32,
        height: u32,
        mut f: impl FnMut(u32, u32) -> Color,
    ) -> TextureId {
        assert!(width > 0 && height > 0, "empty texture");
        let texels = (0..height)
            .flat_map(|y| (0..width).map(move |x| (x, y)))
            .map(|(x, y)| f(x, y))
            .collect();
        let base_addr = self.next_addr;
        // Slabs are 64-byte aligned so texture lines never straddle slabs.
        let size = (width as u64 * height as u64 * 4).next_multiple_of(64);
        self.next_addr += size;
        let id = TextureId(self.textures.len() as u32);
        self.textures.push(Texture {
            width,
            height,
            texels,
            base_addr,
        });
        id
    }

    /// Uploads a solid-color 1×1 texture.
    pub fn upload_solid(&mut self, color: Color) -> TextureId {
        self.upload_with(1, 1, |_, _| color)
    }

    /// Looks up a texture.
    ///
    /// # Panics
    /// Panics if the id was not produced by this store.
    pub fn get(&self, id: TextureId) -> &Texture {
        &self.textures[id.0 as usize]
    }

    /// Number of uploaded textures.
    pub fn len(&self) -> usize {
        self.textures.len()
    }

    /// Whether no textures have been uploaded.
    pub fn is_empty(&self) -> bool {
        self.textures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkerboard(store: &mut TextureStore) -> TextureId {
        store.upload_with(4, 4, |x, y| {
            if (x + y) % 2 == 0 {
                Color::WHITE
            } else {
                Color::BLACK
            }
        })
    }

    #[test]
    fn texel_lookup_and_wrap() {
        let mut s = TextureStore::new();
        let id = checkerboard(&mut s);
        let t = s.get(id);
        assert_eq!(t.texel(0, 0), Color::WHITE);
        assert_eq!(t.texel(1, 0), Color::BLACK);
        assert_eq!(t.texel(4, 0), Color::WHITE, "wraps around");
        assert_eq!(t.texel(-1, 0), t.texel(3, 0), "negative wraps");
    }

    #[test]
    fn nearest_sampling_fetches_one_texel() {
        let mut s = TextureStore::new();
        let id = checkerboard(&mut s);
        let mut fetches = Vec::new();
        let c = s
            .get(id)
            .sample(0.1, 0.1, Filter::Nearest, &mut |a| fetches.push(a));
        assert_eq!(c, Color::WHITE.to_vec4());
        assert_eq!(fetches.len(), 1);
        assert_eq!(fetches[0], s.get(id).base_addr());
    }

    #[test]
    fn bilinear_sampling_fetches_four_texels() {
        let mut s = TextureStore::new();
        let id = checkerboard(&mut s);
        let mut n = 0;
        let c = s
            .get(id)
            .sample(0.5, 0.5, Filter::Bilinear, &mut |_| n += 1);
        assert_eq!(n, 4);
        // Center of a checkerboard blends to gray.
        assert!((c.x - 0.5).abs() < 0.01, "r ≈ 0.5, got {}", c.x);
    }

    #[test]
    fn slabs_do_not_overlap() {
        let mut s = TextureStore::new();
        let a = s.upload_with(8, 8, |_, _| Color::BLACK);
        let b = s.upload_with(8, 8, |_, _| Color::WHITE);
        let end_a = s.get(a).base_addr() + 8 * 8 * 4;
        assert!(s.get(b).base_addr() >= end_a);
    }

    #[test]
    fn solid_texture_samples_everywhere() {
        let mut s = TextureStore::new();
        let id = s.upload_solid(Color::new(10, 20, 30, 255));
        for (u, v) in [(0.0, 0.0), (0.9, 0.1), (123.4, -5.0)] {
            let c = s.get(id).sample(u, v, Filter::Nearest, &mut |_| {});
            assert_eq!(Color::from_vec4(c), Color::new(10, 20, 30, 255));
        }
    }

    #[test]
    #[should_panic(expected = "empty texture")]
    fn zero_size_upload_panics() {
        TextureStore::new().upload_with(0, 4, |_, _| Color::BLACK);
    }
}
