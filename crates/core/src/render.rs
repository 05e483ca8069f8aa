//! Stage A of the simulator: render once, record everything.
//!
//! The paper's techniques (RE, TE, fragment memoization) never change the
//! rendered pixels — they only decide, from signatures, whether work can be
//! skipped. Stage A exploits that: it renders a scene exactly once per
//! (screen, tile size, binning) point and records, into a
//! self-contained `Send + Sync` [`RenderLog`], every artifact the evaluate
//! stage ([`crate::passes`]) needs:
//!
//! * the per-frame [`FrameGeometry`] — the Signature Unit's inputs
//!   (constants blocks, attribute blocks, overlapped-tile lists) and the
//!   geometry activity counters, and nothing else of the rasterizer's
//!   [`re_gpu::GeometryOutput`];
//! * the geometry-pipeline and per-tile raster memory-access streams
//!   (recorded [`Event`]s, texel fetches folded into runs), replayable into
//!   any technique's cache hierarchy;
//! * per-tile fragment-input hashes, the fragment-memoization baseline's
//!   only input;
//! * per-tile raster activity counters ([`re_gpu::stats::TileStats`]);
//! * per-tile color identity: an interned id that is equal iff the tile's
//!   exact pixel contents are equal (ground-truth redundancy verdicts at
//!   any compare distance), plus the CRC32 Transaction Elimination hashes;
//! * the per-frame `re_unsafe` flags.
//!
//! There is one render path. A render is a list of contiguous frame ranges
//! ([`chunk_ranges`]), each rendered by its own renderer ([`render_chunk`]),
//! then stitched into one log ([`stitch_chunks`]). A renderer holds no
//! frame buffer: each tile rasterizes in its own on-chip buffers
//! ([`re_gpu::raster::rasterize_tile_detached`]) and flushes to the
//! surface its frame's index selects ([`re_gpu::framebuffer::surface_base`]),
//! so a recorded frame is a function of its description and its index, and
//! the chunk count cannot change a byte of the log. A single chunk runs on
//! the calling thread, and [`render_scene`] is the one-chunk render.
//!
//! Because a [`RenderLog`] is plain data, one log can be shared (`Arc`)
//! across threads and replayed through any number of evaluation
//! configurations — sweeping signature width, compare distance, refresh
//! period, OT-queue depth or cache geometry costs zero extra
//! rasterization. That turns a sweep's dominant cost from O(cells)
//! rasterizations into O(render-keys).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

use re_gpu::api::FrameDesc;
use re_gpu::framebuffer::surface_base;
use re_gpu::raster::rasterize_tile_detached;
use re_gpu::stats::{GeometryStats, TileStats};
use re_gpu::{geometry, Event, GeometryOutput, GpuConfig, TextureStore, TileRecord};

use crate::sim::Scene;
use crate::te::TransactionElimination;

/// What the Signature Unit reads of one frame's geometry, plus the
/// Geometry Pipeline's counters the technique machines charge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameGeometry {
    /// Drawcalls in submission order.
    pub drawcalls: Vec<DrawcallGeometry>,
    /// The Geometry Pipeline + Tiling Engine activity counters.
    pub stats: GeometryStats,
}

/// One drawcall's Signature Unit inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrawcallGeometry {
    /// The constants block exactly as signed.
    pub constants_bytes: Vec<u8>,
    /// The drawcall's surviving primitives, in submission order.
    pub prims: Vec<PrimGeometry>,
}

/// One primitive's Signature Unit inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimGeometry {
    /// The attribute block (Parameter Buffer record) the unit signs.
    pub param_bytes: Vec<u8>,
    /// Overlapped tiles, in the order they enter the OT queue.
    pub overlapped_tiles: Vec<u32>,
}

impl FrameGeometry {
    /// Records `geo`'s Signature Unit inputs: each drawcall's primitives
    /// follow its `prim_indices`, the order the unit consumes them in.
    pub fn record(geo: &GeometryOutput) -> Self {
        let drawcalls = geo
            .drawcalls
            .iter()
            .map(|dc| DrawcallGeometry {
                constants_bytes: dc.constants_bytes.clone(),
                prims: dc
                    .prim_indices
                    .iter()
                    .map(|&pi| {
                        let prim = &geo.prims[pi as usize];
                        PrimGeometry {
                            param_bytes: prim.param_bytes.clone(),
                            overlapped_tiles: prim.overlapped_tiles.clone(),
                        }
                    })
                    .collect(),
            })
            .collect();
        FrameGeometry {
            drawcalls,
            stats: geo.stats,
        }
    }
}

/// Everything Stage A records about one tile of one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TileLog {
    /// The tile's raster-pipeline memory accesses, in pipeline order, one
    /// per cache-visible access (texel fetches folded into runs).
    pub events: Vec<Event>,
    /// The fragment-input hashes recorded while shading this tile, in
    /// shading order (fragment-memoization probes): one per shaded
    /// fragment.
    pub hashes: Vec<u32>,
    /// The tile's raster activity counters. A `.relog` stores only the
    /// four its record does not imply (see [`crate::relog`]); the decoder
    /// derives the rest from `events` and `hashes`.
    pub stats: TileStats,
    /// Interned color id: two tiles (any frames, any tile index) have equal
    /// ids iff their exact pixel contents are equal.
    pub color_id: u32,
    /// CRC32 of the tile's packed RGBA colors (Transaction Elimination),
    /// over `stats.color_bytes_flushed` bytes.
    pub te_sig: u32,
}

/// Everything Stage A records about one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameLog {
    /// Whether the frame carried a global-state change that makes skipping
    /// unsafe (paper §III-E).
    pub re_unsafe: bool,
    /// The Signature Unit's inputs and the geometry activity counters.
    pub geo: FrameGeometry,
    /// The geometry pipeline's memory accesses (vertex fetches, Parameter
    /// Buffer writes), shared by every technique machine.
    pub geo_events: Vec<Event>,
    /// Per-tile records, indexed by tile id.
    pub tiles: Vec<TileLog>,
}

/// A complete recorded render: the Stage A artifact.
///
/// Self-contained and `Send + Sync`; build once, evaluate many times (see
/// [`crate::passes::evaluate`]). [`crate::relog`] gives it a lossless
/// on-disk form (`.relog`) so resumed or sharded sweeps can skip Stage A.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderLog {
    /// Workload name (reports).
    pub name: String,
    /// The screen/tile geometry the log was rendered under. Only these
    /// fields affect a log's contents — everything else in
    /// [`crate::SimOptions`] is evaluation-side.
    pub config: GpuConfig,
    /// One record per rendered frame.
    pub frames: Vec<FrameLog>,
}

impl RenderLog {
    /// Tiles per frame.
    pub fn tile_count(&self) -> u32 {
        self.config.tile_count()
    }

    /// Frames recorded.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }
}

/// Stage A driver: the screen geometry, the scene's textures and the
/// recording plumbing.
///
/// Owns the color-id interner, so ids are comparable across every frame it
/// renders (and only within one `Renderer`'s output). Every distinct tile
/// content stays interned, so a [`RenderLog`] can be evaluated at any
/// compare distance later.
#[derive(Debug)]
pub(crate) struct Renderer {
    config: GpuConfig,
    textures: TextureStore,
    /// Packed tile colors → interned id.
    interner: HashMap<Vec<u32>, u32>,
}

impl Renderer {
    /// Creates a renderer for `config`'s screen geometry with an empty
    /// texture store.
    pub(crate) fn new(config: GpuConfig) -> Self {
        assert!(config.width > 0 && config.height > 0 && config.tile_size > 0);
        Renderer {
            config,
            textures: TextureStore::new(),
            interner: HashMap::new(),
        }
    }

    /// Runs `scene`'s one-time setup (texture uploads).
    pub(crate) fn init_scene(&mut self, scene: &mut dyn Scene) {
        scene.init(&mut self.textures);
    }

    /// Renders frame `index` of a render, described by `desc`, and records
    /// everything. Tiles flush to the surface `index` selects, and their
    /// colors are interned in tile-id order.
    pub(crate) fn render_frame(&mut self, index: usize, desc: &FrameDesc) -> FrameLog {
        let mut geo_events = Vec::new();
        let geo = geometry::run_geometry(&self.config, desc, &mut geo_events);
        let base_addr = surface_base(&self.config, index);
        let mut tiles = Vec::with_capacity(self.config.tile_count() as usize);
        for t in 0..self.config.tile_count() {
            let mut record = TileRecord::default();
            let (stats, colors) = rasterize_tile_detached(
                &self.config,
                desc,
                &geo,
                t,
                &self.textures,
                base_addr,
                &mut record,
            );
            let te_sig = TransactionElimination::color_signature(&colors);
            let color_id = self.intern(colors.iter().map(|c| c.to_u32()).collect());
            tiles.push(TileLog {
                events: record.events,
                hashes: record.hashes,
                stats,
                color_id,
                te_sig,
            });
        }

        FrameLog {
            re_unsafe: desc.re_unsafe,
            geo: FrameGeometry::record(&geo),
            geo_events,
            tiles,
        }
    }

    /// Interns one tile's packed colors, assigning ids in first-seen order.
    fn intern(&mut self, packed: Vec<u32>) -> u32 {
        let next_id = self.interner.len() as u32;
        *self.interner.entry(packed).or_insert(next_id)
    }

    /// Consumes the renderer and returns its interner inverted: `palette[id]`
    /// is the packed tile content that id stands for. Ids are dense
    /// (`0..palette.len()`), assigned in first-seen order.
    ///
    /// This is what makes chunked rendering stitchable: a chunk's
    /// [`FrameLog`]s plus its palette fully determine the global ids
    /// ([`stitch_chunks`]) without the stitcher re-reading any pixels.
    pub(crate) fn into_palette(self) -> Vec<Vec<u32>> {
        let mut palette = vec![Vec::new(); self.interner.len()];
        for (packed, id) in self.interner {
            palette[id as usize] = packed;
        }
        palette
    }
}

/// Renders `frames` frames of `scene` under `config` into a [`RenderLog`]
/// on the calling thread: one [`render_chunk`] over every frame.
///
/// Stage A is the only place pixels are produced. The returned log replays
/// through [`crate::passes::evaluate`] under any evaluation-side options.
pub fn render_scene(scene: &mut dyn Scene, config: GpuConfig, frames: usize) -> RenderLog {
    let chunk = render_chunk(scene, config, 0..frames);
    stitch_chunks(scene.name(), config, vec![chunk])
}

/// A contiguous frame range rendered by an independent renderer: the
/// building block of frame-parallel Stage A.
///
/// Color ids inside `frames` are *chunk-local* (each chunk starts its own
/// interner at id 0); `palette` maps them back to exact pixel contents so
/// [`stitch_chunks`] can re-intern globally.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderChunk {
    /// Index of the chunk's first frame within the whole render.
    pub start: usize,
    /// The chunk's frame logs, in frame order. `tiles[..].color_id` values
    /// are chunk-local.
    pub frames: Vec<FrameLog>,
    /// Chunk-local color id → packed tile colors. Ids are dense and in
    /// first-seen order.
    pub palette: Vec<Vec<u32>>,
}

/// Splits `frames` frames into at most `chunks` contiguous, near-equal
/// ranges (never empty; larger remainders go to earlier chunks). Returns an
/// empty list for zero frames.
pub fn chunk_ranges(frames: usize, chunks: usize) -> Vec<Range<usize>> {
    if frames == 0 {
        return Vec::new();
    }
    let n = chunks.clamp(1, frames);
    let (base, rem) = (frames / n, frames % n);
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for c in 0..n {
        let take = base + usize::from(c < rem);
        out.push(start..start + take);
        start += take;
    }
    out
}

/// Renders the frame range `range` of `scene` as an independent chunk.
///
/// A recorded frame is a pure function of its [`FrameDesc`], the scene's
/// textures and its index: tiles rasterize from tile-local state seeded
/// with the frame's clear color, never reading an earlier frame's pixels,
/// and flush to the surface the index selects
/// ([`re_gpu::framebuffer::surface_base`]). So a chunk renderer starting
/// cold at `range.start` produces exactly the frames a renderer starting
/// at frame 0 would.
pub fn render_chunk(scene: &mut dyn Scene, config: GpuConfig, range: Range<usize>) -> RenderChunk {
    let mut renderer = Renderer::new(config);
    renderer.init_scene(scene);
    let start = range.start;
    let frames = range
        .map(|f| {
            let desc = scene.frame(f);
            renderer.render_frame(f, &desc)
        })
        .collect();
    RenderChunk {
        start,
        frames,
        palette: renderer.into_palette(),
    }
}

/// Stitches contiguous chunks into one [`RenderLog`] bit-identical to a
/// single renderer's output over the same scene and frame count.
///
/// Chunk-local color ids are re-interned into a global map by walking
/// chunks, frames and tiles in order and assigning global ids at first
/// sight. That is exactly the order and policy of a renderer's own
/// interner, so every tile receives the id one renderer over every frame
/// would have given it — the determinism argument needs nothing else,
/// which is why the frame→chunk split (count and boundaries) cannot affect
/// the result. A lone chunk starting at frame 0 already carries those ids
/// and is returned as it is.
///
/// # Panics
/// Panics if the chunks are not contiguous from frame 0 or if a frame
/// references a color id outside its chunk's palette.
pub fn stitch_chunks(
    name: impl Into<String>,
    config: GpuConfig,
    mut chunks: Vec<RenderChunk>,
) -> RenderLog {
    if chunks.len() == 1 && chunks[0].start == 0 {
        let frames = chunks.pop().expect("one chunk").frames;
        return RenderLog {
            name: name.into(),
            config,
            frames,
        };
    }
    let mut global: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut next_id = 0u32;
    let mut frames: Vec<FrameLog> = Vec::with_capacity(chunks.iter().map(|c| c.frames.len()).sum());
    for chunk in chunks {
        assert_eq!(
            chunk.start,
            frames.len(),
            "chunks must be contiguous from frame 0"
        );
        // Each chunk-local id resolves to a global id exactly once; the
        // palette entry is moved (not cloned) into the global map on first
        // use and the mapping cached in `remap`.
        let mut palette: Vec<Option<Vec<u32>>> = chunk.palette.into_iter().map(Some).collect();
        let mut remap: Vec<Option<u32>> = vec![None; palette.len()];
        for mut frame in chunk.frames {
            for tile in &mut frame.tiles {
                let local = tile.color_id as usize;
                tile.color_id = match remap[local] {
                    Some(id) => id,
                    None => {
                        let packed = palette[local].take().expect("palette entry resolved twice");
                        let id = match global.entry(packed) {
                            Entry::Occupied(e) => *e.get(),
                            Entry::Vacant(v) => {
                                let id = next_id;
                                next_id += 1;
                                *v.insert(id)
                            }
                        };
                        remap[local] = Some(id);
                        id
                    }
                };
            }
            frames.push(frame);
        }
    }
    RenderLog {
        name: name.into(),
        config,
        frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_gpu::api::{DrawCall, PipelineState, Vertex};
    use re_math::{Mat4, Vec4};

    fn cfg() -> GpuConfig {
        GpuConfig {
            width: 64,
            height: 64,
            tile_size: 16,
            ..Default::default()
        }
    }

    struct Tri {
        period: usize,
    }

    impl Scene for Tri {
        fn frame(&mut self, index: usize) -> FrameDesc {
            let step = (index / self.period) as f32 * 0.05;
            let verts = [(-0.5 + step, -0.5), (0.5 + step, -0.5), (step, 0.5)]
                .iter()
                .map(|&(x, y)| {
                    Vertex::new(vec![
                        Vec4::new(x, y, 0.0, 1.0),
                        Vec4::new(0.9, 0.2, 0.1, 1.0),
                    ])
                })
                .collect();
            let mut frame = FrameDesc::new();
            frame.drawcalls.push(DrawCall {
                state: PipelineState::flat_2d(),
                constants: Mat4::IDENTITY.cols.to_vec(),
                vertices: verts,
            });
            frame
        }
        fn name(&self) -> &str {
            "tri"
        }
    }

    #[test]
    fn log_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RenderLog>();
    }

    #[test]
    fn static_scene_interns_one_id_per_tile_content() {
        let log = render_scene(&mut Tri { period: 1_000_000 }, cfg(), 4);
        assert_eq!(log.frame_count(), 4);
        assert_eq!(log.tile_count(), 16);
        // A static scene re-renders identical tiles: every frame's tile t
        // has the same color id as frame 0's tile t.
        for f in &log.frames[1..] {
            for (a, b) in f.tiles.iter().zip(&log.frames[0].tiles) {
                assert_eq!(a.color_id, b.color_id);
                assert_eq!(a.te_sig, b.te_sig);
            }
        }
    }

    #[test]
    fn moving_scene_changes_some_color_ids() {
        let log = render_scene(&mut Tri { period: 1 }, cfg(), 3);
        let changed = log.frames[1]
            .tiles
            .iter()
            .zip(&log.frames[2].tiles)
            .filter(|(a, b)| a.color_id != b.color_id)
            .count();
        assert!(changed > 0, "motion must change some tile contents");
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for frames in [0usize, 1, 2, 3, 7, 16, 33] {
            for chunks in [0usize, 1, 2, 3, 5, 8, 64] {
                let ranges = chunk_ranges(frames, chunks);
                if frames == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert_eq!(ranges.len(), chunks.clamp(1, frames));
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, frames);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                let (min, max) = ranges.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                    (lo.min(r.len()), hi.max(r.len()))
                });
                assert!(min >= 1 && max - min <= 1, "near-equal split: {ranges:?}");
            }
        }
    }

    /// `frames` frames of `scene` rendered as `chunks` frame ranges,
    /// stitched back together.
    fn render_chunked(scene: &mut Tri, frames: usize, chunks: usize) -> RenderLog {
        let parts = chunk_ranges(frames, chunks)
            .into_iter()
            .map(|range| render_chunk(scene, cfg(), range))
            .collect();
        stitch_chunks("tri", cfg(), parts)
    }

    #[test]
    fn chunked_render_is_bit_identical_to_serial() {
        let serial = render_scene(&mut Tri { period: 2 }, cfg(), 7);
        for chunks in [1usize, 2, 3, 7, 16] {
            let chunked = render_chunked(&mut Tri { period: 2 }, 7, chunks);
            assert_eq!(serial, chunked, "chunks={chunks}");
        }
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn stitch_rejects_non_contiguous_chunks() {
        let chunk = render_chunk(&mut Tri { period: 1 }, cfg(), 1..2);
        let _ = stitch_chunks("tri", cfg(), vec![chunk]);
    }

    #[test]
    fn tile_logs_carry_streams_and_stats() {
        let log = render_scene(&mut Tri { period: 1 }, cfg(), 2);
        let frame = &log.frames[0];
        assert!(!frame.geo_events.is_empty(), "vertex fetches recorded");
        assert_eq!(frame.tiles.len(), 16);
        for t in &frame.tiles {
            assert_eq!(
                t.hashes.len() as u64,
                t.stats.fragments_shaded,
                "one hash per shaded fragment"
            );
        }
        assert!(frame.tiles.iter().any(|t| !t.hashes.is_empty()));
        assert!(frame
            .tiles
            .iter()
            .all(|t| t.stats.color_bytes_flushed == 16 * 16 * 4));
    }
}
