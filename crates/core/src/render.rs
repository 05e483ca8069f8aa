//! Stage A of the simulator: render once, record everything.
//!
//! The paper's techniques (RE, TE, fragment memoization) never change the
//! rendered pixels — they only decide, from signatures, whether work can be
//! skipped. Stage A exploits that: the functional GPU renders a scene
//! exactly once per (screen, tile size, binning) point and records, into a
//! self-contained `Send + Sync` [`RenderLog`], every artifact the evaluate
//! stage ([`crate::passes`]) needs:
//!
//! * the per-frame [`re_gpu::GeometryOutput`] — the Signature Unit's input
//!   stream (constants blocks, attribute blocks, overlapped-tile lists) and
//!   the geometry activity counters;
//! * the geometry-pipeline and per-tile raster memory-access streams
//!   (recorded [`Event`]s), replayable into any technique's cache hierarchy;
//! * per-tile raster activity counters ([`re_gpu::stats::TileStats`]);
//! * per-tile color identity: an interned id that is equal iff the tile's
//!   exact pixel contents are equal (ground-truth redundancy verdicts at
//!   any compare distance), plus the CRC32 Transaction Elimination hashes;
//! * the per-frame `re_unsafe` flags.
//!
//! There is one render path. A render is a list of contiguous frame ranges
//! ([`chunk_ranges`]), each rendered by its own [`Renderer`] with its tiles
//! rasterized in bands ([`render_chunk`]), then stitched into one log
//! ([`stitch_chunks`]). Tiles rasterize from tile-local state, so neither
//! the chunk count nor the band count changes a byte of the log; a single
//! chunk or band simply runs on the calling thread, and [`render_scene`] is
//! the one-chunk, one-band render.
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
use re_gpu::stats::TileStats;
use re_gpu::{GeometryOutput, Gpu, GpuConfig, ParallelRaster};

use crate::record::{Event, Recorder};
use crate::sim::Scene;
use crate::te::TransactionElimination;

/// Everything Stage A records about one tile of one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TileLog {
    /// The tile's raster-pipeline memory accesses, in pipeline order.
    pub events: Vec<Event>,
    /// The tile's raster activity counters.
    pub stats: TileStats,
    /// Interned color id: two tiles (any frames, any tile index) have equal
    /// ids iff their exact pixel contents are equal.
    pub color_id: u32,
    /// CRC32 of the tile's packed RGBA colors (Transaction Elimination).
    pub te_sig: u32,
    /// Bytes of color data the tile holds (`pixels × 4`).
    pub color_bytes: u64,
}

impl TileLog {
    /// The fragment-input hashes recorded while shading this tile, in
    /// shading order (fragment-memoization probes).
    pub fn frag_hashes(&self) -> impl Iterator<Item = u32> + '_ {
        self.events.iter().filter_map(|e| match e {
            Event::FragShaded { hash, .. } => Some(*hash),
            _ => None,
        })
    }
}

/// Everything Stage A records about one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameLog {
    /// Whether the frame carried a global-state change that makes skipping
    /// unsafe (paper §III-E).
    pub re_unsafe: bool,
    /// The Geometry Pipeline + Tiling Engine output — the Signature Unit's
    /// input stream plus the geometry activity counters.
    pub geo: GeometryOutput,
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

/// Stage A driver: a functional GPU plus the recording plumbing.
///
/// Owns the color-id interner, so ids are comparable across every frame it
/// renders (and only within one `Renderer`'s output).
#[derive(Debug)]
pub struct Renderer {
    gpu: Gpu,
    /// Packed tile colors → (interned id, frame last seen).
    interner: HashMap<Vec<u32>, (u32, u64)>,
    /// Ids handed out so far (never reused, even across eviction).
    next_id: u32,
    /// Frames rendered so far.
    frame_index: u64,
    /// Retention window in frames (`None` = retain every distinct tile
    /// content forever). Id equality is exact for comparisons reaching at
    /// most this many frames back — see [`Renderer::with_id_window`].
    id_window: Option<u64>,
    /// Bands each frame's tiles are rasterized in (1 = on the calling
    /// thread).
    parallel: ParallelRaster,
}

impl Renderer {
    /// Creates a renderer for `config`'s screen geometry that keeps every
    /// distinct tile content interned, so ids are comparable across
    /// arbitrary frame distances (what [`render_scene`] needs: a
    /// [`RenderLog`] can be evaluated at any compare distance later).
    pub fn new(config: GpuConfig) -> Self {
        Renderer::with_id_window(config, None)
    }

    /// Creates a renderer that evicts tile contents unseen for more than
    /// `window` frames, bounding interner memory for long streamed runs.
    ///
    /// Eviction preserves exactness for comparisons at distances
    /// `<= window`: if a tile's content at frame `f` equals its content at
    /// frame `f - d` (`d <= window`), that content was seen `d` frames ago
    /// and therefore not evicted, so both frames carry the same id; if the
    /// contents differ, ids differ by construction (ids are never reused).
    /// Comparisons beyond the window may see re-interned (fresh) ids for
    /// recurring content and report spurious inequality — callers must
    /// size the window to their maximum compare distance, as
    /// [`crate::Simulator::run`] does.
    pub fn with_id_window(config: GpuConfig, window: Option<u64>) -> Self {
        Renderer {
            gpu: Gpu::new(config),
            interner: HashMap::new(),
            next_id: 0,
            frame_index: 0,
            id_window: window,
            parallel: ParallelRaster { bands: 1 },
        }
    }

    /// Sets how many bands each frame's tiles are rasterized in
    /// (`bands <= 1` runs every tile on the calling thread; the default).
    /// The rendered output is bit-identical at any band count — tiles are
    /// rasterized from per-tile-local state and committed in tile-id order
    /// — so this is purely a wall-clock knob. See
    /// [`re_gpu::Gpu::rasterize_bands`].
    pub fn set_parallel_raster(&mut self, parallel: ParallelRaster) {
        self.parallel = parallel;
    }

    /// Mutable access to the GPU (texture uploads during scene init).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// The GPU configuration.
    pub fn config(&self) -> GpuConfig {
        self.gpu.config()
    }

    /// Runs `scene`'s one-time setup (texture uploads).
    pub fn init_scene(&mut self, scene: &mut dyn Scene) {
        scene.init(self.gpu.textures_mut());
    }

    /// Renders one frame, records everything, and swaps buffers.
    pub fn render_frame(&mut self, desc: &FrameDesc) -> FrameLog {
        let mut recorder = Recorder::new();
        let geo = self.gpu.run_geometry(desc, &mut recorder);
        let geo_events = recorder.events;

        // Tiles rasterize from tile-local state (band-parallel when there
        // are several bands), then colors are committed and interned in
        // tile-id order, so ids, signatures and recorded events do not
        // depend on the band count.
        let results = self
            .gpu
            .rasterize_bands(desc, &geo, self.parallel, Recorder::new);
        let mut tiles = Vec::with_capacity(results.len());
        for (t, (stats, colors, recorder)) in results.into_iter().enumerate() {
            self.gpu.apply_tile_colors(t as u32, &colors);
            let te_sig = TransactionElimination::color_signature(&colors);
            let color_bytes = colors.len() as u64 * 4;
            let color_id = self.intern(colors.iter().map(|c| c.to_u32()).collect());
            tiles.push(TileLog {
                events: recorder.events,
                stats,
                color_id,
                te_sig,
                color_bytes,
            });
        }
        self.gpu.end_frame();
        if let Some(window) = self.id_window {
            let horizon = self.frame_index.saturating_sub(window);
            self.interner.retain(|_, &mut (_, seen)| seen >= horizon);
        }
        self.frame_index += 1;

        FrameLog {
            re_unsafe: desc.re_unsafe,
            geo,
            geo_events,
            tiles,
        }
    }

    /// Interns one tile's packed colors, assigning ids in first-seen order.
    fn intern(&mut self, packed: Vec<u32>) -> u32 {
        let frame_index = self.frame_index;
        let entry = self
            .interner
            .entry(packed)
            .and_modify(|(_, seen)| *seen = frame_index)
            .or_insert((self.next_id, frame_index));
        let color_id = entry.0;
        if color_id == self.next_id {
            self.next_id += 1;
        }
        color_id
    }

    /// Consumes the renderer and returns its interner inverted: `palette[id]`
    /// is the packed tile content that id stands for. Ids are dense
    /// (`0..palette.len()`), assigned in first-seen order.
    ///
    /// This is what makes chunked rendering stitchable: a chunk's
    /// [`FrameLog`]s plus its palette fully determine the global ids
    /// ([`stitch_chunks`]) without the stitcher re-reading any pixels.
    ///
    /// # Panics
    /// Panics if the renderer was built with an id window — eviction drops
    /// palette entries, so windowed ids are not invertible.
    pub fn into_palette(self) -> Vec<Vec<u32>> {
        assert!(
            self.id_window.is_none(),
            "palette export requires full id retention (no id window)"
        );
        let mut palette = vec![Vec::new(); self.next_id as usize];
        for (packed, (id, _)) in self.interner {
            palette[id as usize] = packed;
        }
        palette
    }
}

/// Renders `frames` frames of `scene` under `config` into a [`RenderLog`]
/// on the calling thread: one [`render_chunk`] over every frame, in one
/// band.
///
/// Stage A is the only place pixels are produced. The returned log replays
/// through [`crate::passes::evaluate`] under any evaluation-side options.
pub fn render_scene(scene: &mut dyn Scene, config: GpuConfig, frames: usize) -> RenderLog {
    let chunk = render_chunk(scene, config, 0..frames, ParallelRaster { bands: 1 });
    stitch_chunks(scene.name(), config, vec![chunk])
}

/// A contiguous frame range rendered by an independent [`Renderer`]: the
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
    /// first-seen order (see [`Renderer::into_palette`]).
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

/// Renders the frame range `range` of `scene` as an independent chunk,
/// rasterizing each frame's tiles in `parallel.bands` bands (see
/// [`Renderer::set_parallel_raster`]).
///
/// Frame rendering is a pure function of the frame's [`FrameDesc`] plus the
/// double-buffer parity — tiles rasterize from tile-local state seeded with
/// the frame's clear color, never reading the previous frame's surface, and
/// the chunk GPU's parity is seeded to `range.start`
/// ([`re_gpu::Gpu::seed_frame_parity`]) — so a chunk renderer starting cold
/// at `range.start` produces exactly the frames a renderer starting at
/// frame 0 would, at any band count.
pub fn render_chunk(
    scene: &mut dyn Scene,
    config: GpuConfig,
    range: Range<usize>,
    parallel: ParallelRaster,
) -> RenderChunk {
    let mut renderer = Renderer::new(config);
    renderer.set_parallel_raster(parallel);
    renderer.init_scene(scene);
    // Rendering alternates the double-buffered surfaces every frame, and
    // recorded flush addresses name the surface. Seed the parity a render
    // from frame 0 would have at this chunk's first frame.
    renderer.gpu_mut().seed_frame_parity(range.start);
    let start = range.start;
    let frames = range
        .map(|f| {
            let desc = scene.frame(f);
            renderer.render_frame(&desc)
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
    fn id_window_bounds_interner_growth() {
        // A scene whose tiles change every frame: with full retention the
        // interner grows with every frame; with a window it stays bounded
        // to (window + 1) frames of distinct contents.
        let mut unbounded = Renderer::new(cfg());
        let mut windowed = Renderer::with_id_window(cfg(), Some(2));
        let mut scene_a = Tri { period: 1 };
        let mut scene_b = Tri { period: 1 };
        unbounded.init_scene(&mut scene_a);
        windowed.init_scene(&mut scene_b);
        let mut peak_windowed = 0usize;
        for f in 0..12 {
            let desc = scene_a.frame(f);
            let _ = unbounded.render_frame(&desc);
            let _ = windowed.render_frame(&desc);
            peak_windowed = peak_windowed.max(windowed.interner.len());
        }
        assert!(
            unbounded.interner.len() > windowed.interner.len(),
            "window must evict stale contents ({} vs {})",
            unbounded.interner.len(),
            windowed.interner.len()
        );
        // 3 frames of ≤16 distinct tiles each can be live at once.
        assert!(peak_windowed <= 3 * 16, "peak {peak_windowed}");
    }

    #[test]
    fn windowed_ids_stay_exact_within_the_window() {
        // Static scene: every frame's tile ids equal frame 0's even under
        // the tightest window (content re-seen every frame, never evicted).
        let mut r = Renderer::with_id_window(cfg(), Some(1));
        let mut scene = Tri { period: 1_000_000 };
        r.init_scene(&mut scene);
        let first = r.render_frame(&scene.frame(0));
        for f in 1..6 {
            let frame = r.render_frame(&scene.frame(f));
            for (a, b) in frame.tiles.iter().zip(&first.tiles) {
                assert_eq!(a.color_id, b.color_id);
            }
        }
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

    /// `frames` frames of `scene` rendered as `chunks` frame ranges of
    /// `bands` bands each, stitched back together.
    fn render_chunked(scene: &mut Tri, frames: usize, chunks: usize, bands: usize) -> RenderLog {
        let parts = chunk_ranges(frames, chunks)
            .into_iter()
            .map(|range| render_chunk(scene, cfg(), range, ParallelRaster { bands }))
            .collect();
        stitch_chunks("tri", cfg(), parts)
    }

    #[test]
    fn chunked_render_is_bit_identical_to_serial() {
        let serial = render_scene(&mut Tri { period: 2 }, cfg(), 7);
        for chunks in [1usize, 2, 3, 7, 16] {
            let chunked = render_chunked(&mut Tri { period: 2 }, 7, chunks, 1);
            assert_eq!(serial, chunked, "chunks={chunks}");
        }
    }

    #[test]
    fn band_parallel_render_is_bit_identical_to_serial() {
        let serial = render_scene(&mut Tri { period: 1 }, cfg(), 4);
        for bands in [2usize, 3, 4, 99] {
            let mut scene = Tri { period: 1 };
            let mut r = Renderer::new(cfg());
            r.set_parallel_raster(ParallelRaster { bands });
            r.init_scene(&mut scene);
            let frames: Vec<FrameLog> = (0..4).map(|f| r.render_frame(&scene.frame(f))).collect();
            assert_eq!(serial.frames, frames, "bands={bands}");
        }
    }

    #[test]
    fn chunked_plus_band_parallel_matches_serial() {
        let serial = render_scene(&mut Tri { period: 1 }, cfg(), 5);
        assert_eq!(serial, render_chunked(&mut Tri { period: 1 }, 5, 2, 3));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn stitch_rejects_non_contiguous_chunks() {
        let chunk = render_chunk(
            &mut Tri { period: 1 },
            cfg(),
            1..2,
            ParallelRaster { bands: 1 },
        );
        let _ = stitch_chunks("tri", cfg(), vec![chunk]);
    }

    #[test]
    #[should_panic(expected = "full id retention")]
    fn windowed_renderer_has_no_palette() {
        let _ = Renderer::with_id_window(cfg(), Some(2)).into_palette();
    }

    #[test]
    fn tile_logs_carry_streams_and_stats() {
        let log = render_scene(&mut Tri { period: 1 }, cfg(), 2);
        let frame = &log.frames[0];
        assert!(!frame.geo_events.is_empty(), "vertex fetches recorded");
        assert_eq!(frame.tiles.len(), 16);
        let shaded: u64 = frame.tiles.iter().map(|t| t.stats.fragments_shaded).sum();
        let hashes: usize = frame.tiles.iter().map(|t| t.frag_hashes().count()).sum();
        assert_eq!(shaded as usize, hashes, "one hash per shaded fragment");
        assert!(frame.tiles.iter().all(|t| t.color_bytes == 16 * 16 * 4));
    }
}
