//! Pipeline memory accesses and the simulated physical address map.
//!
//! The functional GPU renders pixels; the *memory system* (caches, DRAM) is
//! modelled by `re-timing`. The two are connected by [`Event`]: every
//! main-memory-visible access the pipeline performs is appended, in
//! pipeline order, to a caller-supplied `Vec<Event>`, carrying a synthetic
//! physical address so that set-associative caches behave realistically
//! (spatial locality in texture and parameter-buffer streams is preserved
//! by construction). Callers that only need pixels pass a `Vec` and ignore
//! it.

/// Base of the vertex-buffer region (drawcall vertex data).
pub const VB_BASE: u64 = 0x1000_0000;
/// Base of the texture region (one slab per texture, see
/// [`crate::texture::TextureStore`]).
pub const TEX_BASE: u64 = 0x4000_0000;
/// Base of the Parameter Buffer region (re-used every frame, as the real
/// driver recycles the buffer between frames).
pub const PARAM_BASE: u64 = 0x8000_0000;
/// Base of the frame-buffer region (front and back buffers).
pub const FB_BASE: u64 = 0xC000_0000;

/// One pipeline memory access or stage event. Addresses are synthetic
/// physical addresses from the regions above; `bytes` is the access
/// footprint (the cache model splits it into lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The Vertex Fetcher reads vertex attributes from a vertex buffer.
    VertexFetch {
        /// Address.
        addr: u64,
        /// Footprint in bytes.
        bytes: u32,
    },
    /// The Polygon List Builder appends to the Parameter Buffer.
    ParamWrite {
        /// Address.
        addr: u64,
        /// Footprint in bytes.
        bytes: u32,
    },
    /// The Tile Scheduler fetches a tile's primitive data from the
    /// Parameter Buffer (through the Tile Cache).
    ParamRead {
        /// Address.
        addr: u64,
        /// Footprint in bytes.
        bytes: u32,
    },
    /// A fragment processor samples one 4-byte RGBA8 texel through a
    /// Texture Cache.
    Texel {
        /// Texture-cache bank (0–3, one per fragment processor).
        unit: u8,
        /// Address.
        addr: u64,
    },
    /// The Tile Flush writes a row of final colors to the Frame Buffer in
    /// main memory.
    ColorFlush {
        /// Address.
        addr: u64,
        /// Footprint in bytes.
        bytes: u32,
    },
    /// A fragment was shaded. `hash` is a 32-bit hash of the fragment's
    /// shader inputs (interpolated varyings + drawcall constants),
    /// *excluding screen coordinates* — the key used by the PFR
    /// fragment-memoization baseline (paper §V-A).
    FragShaded {
        /// Tile id.
        tile: u32,
        /// Drawcall index.
        drawcall: u32,
        /// 32-bit input hash.
        hash: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let bases = [VB_BASE, TEX_BASE, PARAM_BASE, FB_BASE];
        assert!(bases.windows(2).all(|w| w[0] < w[1]), "{bases:?}");
    }
}
