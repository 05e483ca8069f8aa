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
//!
//! The stream holds one event per cache-visible access. A texel fetch that
//! hits the same [`TEXEL_RUN_BYTES`] line as the same unit's previous fetch
//! in the tile is a certain hit in that unit's private texture cache and
//! reaches nothing else, so it is folded into that fetch's
//! [`Event::Texel`] run (its `count`) instead of appended.

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

/// Texture units (one per fragment processor) a texel event can name.
pub const TEXEL_UNITS: u8 = 4;

/// The line size texel runs are folded at: consecutive fetches of one unit
/// within one aligned block of this many bytes form one run. A cache whose
/// line is a multiple of it sees every fetch of a run hit the run's line.
pub const TEXEL_RUN_BYTES: u64 = 64;

/// One pipeline memory access. Addresses are synthetic
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
    /// A fragment processor samples `count` 4-byte RGBA8 texels through
    /// its Texture Cache, one after another within the
    /// [`TEXEL_RUN_BYTES`] line of `addr` (the run's first fetch).
    Texel {
        /// Texture-cache bank (`0..TEXEL_UNITS`, one per fragment
        /// processor).
        unit: u8,
        /// Fetches in the run (at least 1).
        count: u32,
        /// Address of the run's first fetch.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let bases = [VB_BASE, TEX_BASE, PARAM_BASE, FB_BASE];
        assert!(bases.windows(2).all(|w| w[0] < w[1]), "{bases:?}");
    }

    #[test]
    fn an_event_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }
}
