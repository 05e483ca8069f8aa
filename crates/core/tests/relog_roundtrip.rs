//! Round-trip property of the `.relog` codec: `decode(encode(log)) == log`
//! for arbitrary [`RenderLog`]s — not just ones a well-behaved render
//! produces. The generator below fills every field (events of every kind,
//! texel runs, fragment-hash columns, stored counters, recorded geometry,
//! flags) from a seeded stream, so the property covers extreme values (0,
//! `u64::MAX` addresses, `u32::MAX` runs, counters at their bounds, empty
//! and non-empty vectors) the renderer itself would never emit. Only what
//! the reader derives or checks is kept consistent: the counters a record
//! implies are computed from it here ([`implied_tile_stats`],
//! [`implied_geometry_stats`]), the stored ones stay inside their bounds,
//! and every overlapped tile lies in the frame. A real-render test pins the
//! same derivation against Stage A's own counters over every built-in
//! scene.
//!
//! A second property pins the reason the codec exists: a report evaluated
//! from a decoded log is bit-identical to one evaluated from the in-memory
//! original.
//!
//! A third pins the one frame-record reader behind both entry points: on
//! truncated or bit-flipped streams, [`relog::decode`] and
//! [`RelogReader::into_log`] agree (same log or same error) and never
//! panic. Forged frames with valid CRCs but the wrong tile count, a
//! primitive overlapping a tile outside the frame, an empty texel run, a
//! texel unit no render uses, or a counter past its bound, and headers
//! with degenerate configurations, are errors too.

use proptest::prelude::*;
use re_core::relog::{self, Compression, RelogError, RelogReader};
use re_core::render::{
    DrawcallGeometry, FrameGeometry, FrameLog, PrimGeometry, RenderLog, TileLog,
};
use re_core::{render_scene, Scene, SimOptions};
use re_gpu::access::TEXEL_UNITS;
use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
use re_gpu::stats::{GeometryStats, TileStats};
use re_gpu::{BinningMode, Event, GpuConfig};
use re_math::{Mat4, Vec4};

/// A tile's counters as its record implies them: `stored`'s four
/// (`attr_interpolations`, `early_z_killed`, `fs_instr_slots`,
/// `depth_accesses`) and the rest from its events and hash count.
fn implied_tile_stats(stored: TileStats, events: &[Event], hashes: usize) -> TileStats {
    let sum = |f: fn(&Event) -> Option<u32>| events.iter().filter_map(f).map(u64::from).sum();
    let fragments_shaded = hashes as u64;
    let color_bytes_flushed: u64 = sum(|e| match *e {
        Event::ColorFlush { bytes, .. } => Some(bytes),
        _ => None,
    });
    TileStats {
        prims_processed: sum(|e| matches!(e, Event::ParamRead { .. }).then_some(1)),
        param_bytes_read: sum(|e| match *e {
            Event::ParamRead { bytes, .. } => Some(bytes),
            _ => None,
        }),
        fragments_rasterized: fragments_shaded + stored.early_z_killed,
        fragments_shaded,
        texel_fetches: sum(|e| match *e {
            Event::Texel { count, .. } => Some(count),
            _ => None,
        }),
        blend_ops: fragments_shaded,
        pixels_flushed: color_bytes_flushed / 4,
        color_bytes_flushed,
        ..stored
    }
}

/// A frame's geometry counters as its record implies them: `stored`'s two
/// (`vs_instr_slots`, `prims_from_clipping`) and the rest from its
/// geometry events and recorded primitives.
fn implied_geometry_stats(
    stored: GeometryStats,
    drawcalls: &[DrawcallGeometry],
    events: &[Event],
) -> GeometryStats {
    let sum = |f: fn(&Event) -> Option<u32>| events.iter().filter_map(f).map(u64::from).sum();
    let vertices_fetched: u64 = sum(|e| matches!(e, Event::VertexFetch { .. }).then_some(1));
    let prims = || drawcalls.iter().flat_map(|dc| &dc.prims);
    let prims_in = vertices_fetched / 3;
    let prims_binned = prims().count() as u64;
    GeometryStats {
        vertices_fetched,
        vertices_shaded: vertices_fetched,
        prims_in,
        prims_culled: prims_in + stored.prims_from_clipping - prims_binned,
        prims_binned,
        prim_tile_pairs: prims().map(|p| p.overlapped_tiles.len() as u64).sum(),
        param_bytes_written: sum(|e| match *e {
            Event::ParamWrite { bytes, .. } => Some(bytes),
            _ => None,
        }),
        vertex_bytes_fetched: sum(|e| match *e {
            Event::VertexFetch { bytes, .. } => Some(bytes),
            _ => None,
        }),
        ..stored
    }
}

/// Deterministic value stream (splitmix64) for building arbitrary logs.
struct Stream(u64);

impl Stream {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }
    fn below(&mut self, n: u64) -> u64 {
        self.u64() % n.max(1)
    }
    /// A value in `0..=max`, often one of the two ends.
    fn upto(&mut self, max: u64) -> u64 {
        match self.below(4) {
            0 => 0,
            1 => max,
            _ => self.below(max.saturating_add(1)),
        }
    }
    /// Mixes ordinary magnitudes with boundary values.
    fn wild(&mut self) -> u64 {
        match self.below(4) {
            0 => 0,
            1 => u64::MAX,
            2 => self.below(1 << 20),
            _ => self.u64(),
        }
    }
    /// An access's address and byte count, boundary values included,
    /// with a byte range that ends at or below the top of the address
    /// space (a wrapping one fails to decode).
    fn extent(&mut self) -> (u64, u32) {
        let addr = self.wild();
        let bytes = (self.u32() as u64).min(u64::MAX - addr);
        (addr, bytes as u32)
    }
    fn event(&mut self) -> Event {
        match self.below(5) {
            0 => {
                let (addr, bytes) = self.extent();
                Event::VertexFetch { addr, bytes }
            }
            1 => {
                let (addr, bytes) = self.extent();
                Event::ParamWrite { addr, bytes }
            }
            2 => {
                let (addr, bytes) = self.extent();
                Event::ParamRead { addr, bytes }
            }
            3 => Event::Texel {
                unit: self.below(TEXEL_UNITS.into()) as u8,
                count: match self.below(4) {
                    0 => 1,
                    1 => u32::MAX,
                    _ => 1 + self.below(64) as u32,
                },
                addr: self.wild(),
            },
            _ => {
                let (addr, bytes) = self.extent();
                Event::ColorFlush { addr, bytes }
            }
        }
    }
    fn events(&mut self, max: u64) -> Vec<Event> {
        (0..self.below(max + 1)).map(|_| self.event()).collect()
    }
    /// Up to `max - 1` arbitrary bytes.
    fn bytes(&mut self, max: u64) -> Vec<u8> {
        (0..self.below(max)).map(|_| self.u64() as u8).collect()
    }
    /// Drawcalls whose primitives overlap tiles of a `tiles`-tile frame, as
    /// the reader requires; every other field is arbitrary.
    fn drawcalls(&mut self, tiles: usize) -> Vec<DrawcallGeometry> {
        (0..self.below(3))
            .map(|_| DrawcallGeometry {
                constants_bytes: self.bytes(48),
                prims: (0..self.below(4))
                    .map(|_| PrimGeometry {
                        param_bytes: self.bytes(64),
                        overlapped_tiles: (0..self.below(8))
                            .map(|_| self.below(tiles as u64) as u32)
                            .collect(),
                    })
                    .collect(),
            })
            .collect()
    }
    /// A tile of at most `area` pixels: arbitrary events whose color
    /// flushes cover at most `area` pixels, at most as many hashes as its
    /// primitives can shade, and stored counters inside their bounds.
    fn tile(&mut self, area: u64) -> TileLog {
        let mut events = self.events(16);
        let mut flushed = 0;
        for e in &mut events {
            if let Event::ColorFlush { bytes, .. } = e {
                *bytes = u64::from(*bytes).min(4 * area - flushed) as u32;
                flushed += u64::from(*bytes);
            }
        }
        let prims = events
            .iter()
            .filter(|e| matches!(e, Event::ParamRead { .. }))
            .count() as u64;
        let room = prims * area;
        let hashes: Vec<u32> = (0..self.below(24.min(room) + 1))
            .map(|_| self.u32())
            .collect();
        let shaded = hashes.len() as u64;
        let early_z_killed = self.upto(room - shaded);
        let rasterized = shaded + early_z_killed;
        let stored = TileStats {
            attr_interpolations: self.upto(256 * rasterized),
            early_z_killed,
            fs_instr_slots: self.upto(u64::from(u32::MAX) * shaded),
            depth_accesses: self.upto(2 * rasterized),
            ..TileStats::default()
        };
        TileLog {
            stats: implied_tile_stats(stored, &events, hashes.len()),
            events,
            hashes,
            color_id: self.u32(),
            te_sig: self.u32(),
        }
    }
    /// A frame of `tiles` tiles of at most `area` pixels: enough vertex
    /// fetches among its geometry events to have assembled its recorded
    /// primitives, and stored counters inside their bounds.
    fn frame(&mut self, tiles: usize, area: u64) -> FrameLog {
        let drawcalls = self.drawcalls(tiles);
        let binned = drawcalls
            .iter()
            .map(|dc| dc.prims.len() as u64)
            .sum::<u64>();
        let mut geo_events = self.events(12);
        let fetched = |es: &[Event]| {
            es.iter()
                .filter(|e| matches!(e, Event::VertexFetch { .. }))
                .count() as u64
        };
        while fetched(&geo_events) < 3 * binned.div_ceil(3) {
            let (addr, bytes) = self.extent();
            geo_events.push(Event::VertexFetch { addr, bytes });
        }
        let vertices = fetched(&geo_events);
        let prims_in = vertices / 3;
        let clipped = binned.saturating_sub(prims_in);
        let stored = GeometryStats {
            vs_instr_slots: self.upto(u64::from(u32::MAX) * vertices),
            prims_from_clipping: clipped + self.upto(2 * prims_in - clipped),
            ..GeometryStats::default()
        };
        FrameLog {
            re_unsafe: self.below(2) == 1,
            geo: FrameGeometry {
                stats: implied_geometry_stats(stored, &drawcalls, &geo_events),
                drawcalls,
            },
            geo_events,
            tiles: (0..tiles).map(|_| self.tile(area)).collect(),
        }
    }
}

/// An arbitrary log: the geometry/tile structure need not be mutually
/// consistent — the codec must carry it regardless. Besides the counters
/// ([`Stream::frame`], [`Stream::tile`]), only the tile count follows the
/// configuration, because the reader checks it: each frame
/// holds `tiles` tiles (at least one), a row of `tile_size` tiles whose
/// last one may be partial, and its primitives overlap only those.
fn arbitrary_log(seed: u64, frames: usize, tiles: usize) -> RenderLog {
    let mut s = Stream(seed);
    let tile_size = [8u32, 16, 32][s.below(3) as usize];
    let config = GpuConfig {
        width: (tiles as u32 - 1) * tile_size + 1 + s.below(tile_size.into()) as u32,
        height: 1 + s.below(tile_size.into()) as u32,
        tile_size,
        binning: [BinningMode::BoundingBox, BinningMode::ExactCoverage][s.below(2) as usize],
    };
    assert_eq!(config.tile_count() as usize, tiles);
    let names = ["", "t", "tri", "a workload name with spaces"];
    RenderLog {
        name: names[s.below(names.len() as u64) as usize].to_owned(),
        config,
        frames: (0..frames)
            .map(|_| s.frame(tiles, u64::from(tile_size).pow(2)))
            .collect(),
    }
}

/// A triangle that steps right every `.0` frames.
struct Wob(usize);

impl Scene for Wob {
    fn frame(&mut self, i: usize) -> FrameDesc {
        let step = ((i / self.0) as f32) * 0.07;
        let verts = [(-0.6 + step, -0.4), (0.4 + step, -0.5), (step, 0.6)]
            .iter()
            .map(|&(x, y)| {
                Vertex::new(vec![
                    Vec4::new(x, y, 0.0, 1.0),
                    Vec4::new(0.2, 0.7, 0.9, 1.0),
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
        "wob"
    }
}

/// Both entry points' error for `bytes`.
fn errors(bytes: &[u8]) -> (RelogError, RelogError) {
    let whole = relog::decode(bytes).expect_err("decode must fail");
    let streamed = RelogReader::new(bytes)
        .and_then(RelogReader::into_log)
        .expect_err("streaming must fail");
    let streamed = *streamed
        .into_inner()
        .expect("wrapped RelogError")
        .downcast::<RelogError>()
        .expect("a RelogError");
    (whole, streamed)
}

#[test]
fn frames_with_the_wrong_tile_count_are_rejected() {
    // 64×32 in 16-pixel tiles: 8 tiles per frame. Re-encoding gives every
    // forged frame a valid CRC, so only the tile count can catch it.
    let cfg = GpuConfig {
        width: 64,
        height: 32,
        tile_size: 16,
        ..Default::default()
    };
    let log = render_scene(&mut Wob(2), cfg, 4);
    let mut short = log.clone();
    short.frames[2].tiles.pop();
    let mut long = log.clone();
    let extra = long.frames[2].tiles[0].clone();
    long.frames[2].tiles.push(extra);
    for (forged, found) in [(short, 7), (long, 9)] {
        let expected = RelogError::BadTileCount {
            frame: 2,
            expected: 8,
            found,
        };
        let (whole, streamed) = errors(&relog::encode(&forged));
        assert_eq!(whole, expected);
        assert_eq!(streamed, expected);
    }
}

#[test]
fn primitives_overlapping_a_tile_outside_the_frame_are_rejected() {
    // 64×32 in 16-pixel tiles: 8 tiles per frame. The first tile id past
    // the frame and one further out, each re-encoded with a valid CRC.
    let cfg = GpuConfig {
        width: 64,
        height: 32,
        tile_size: 16,
        ..Default::default()
    };
    let log = render_scene(&mut Wob(2), cfg, 4);
    for tile in [8, 8 + 5] {
        let mut forged = log.clone();
        forged.frames[2].geo.drawcalls[0].prims[0]
            .overlapped_tiles
            .push(tile);
        let expected = RelogError::BadOverlappedTile {
            frame: 2,
            tile,
            tile_count: 8,
        };
        let (whole, streamed) = errors(&relog::encode(&forged));
        assert_eq!(whole, expected);
        assert_eq!(streamed, expected);
    }
    // The last tile in the frame is a valid one (and one more pair).
    let mut last = log.clone();
    last.frames[2].geo.drawcalls[0].prims[0]
        .overlapped_tiles
        .push(7);
    last.frames[2].geo.stats.prim_tile_pairs += 1;
    assert_eq!(relog::decode(&relog::encode(&last)).expect("decode"), last);
}

#[test]
fn accesses_that_wrap_past_the_address_space_are_rejected() {
    let cfg = GpuConfig {
        width: 64,
        height: 32,
        tile_size: 16,
        ..Default::default()
    };
    let log = render_scene(&mut Wob(2), cfg, 3);
    // A color flush 8 bytes below the top, in a tile's events, and a
    // Parameter Buffer write ending one byte past it, in the geometry's:
    // both re-encoded with valid CRCs.
    let mut flush = log.clone();
    flush.frames[1].tiles[3].events.push(Event::ColorFlush {
        addr: u64::MAX - 8,
        bytes: 64,
    });
    let mut write = log.clone();
    write.frames[2].geo_events.push(Event::ParamWrite {
        addr: u64::MAX - 63,
        bytes: 65,
    });
    for (forged, context) in [(flush, "color flush"), (write, "param write")] {
        let expected = RelogError::BadExtent { context };
        let (whole, streamed) = errors(&relog::encode(&forged));
        assert_eq!(whole, expected);
        assert_eq!(streamed, expected);
    }
}

#[test]
fn accesses_ending_at_the_top_of_the_address_space_decode_and_evaluate() {
    let cfg = GpuConfig {
        width: 64,
        height: 32,
        tile_size: 16,
        ..Default::default()
    };
    let mut log = render_scene(&mut Wob(2), cfg, 3);
    // A tile's last color flush and a frame's last vertex fetch move to
    // the top of the address space (keeping their byte counts, so the
    // counters they imply), and a texel run reads the top byte.
    let tile = &mut log.frames[1].tiles[3];
    let last = |e: &&mut Event, flush: bool| {
        matches!(
            (e, flush),
            (Event::ColorFlush { .. }, true) | (Event::VertexFetch { .. }, false)
        )
    };
    if let Some(Event::ColorFlush { addr, bytes }) =
        tile.events.iter_mut().rev().find(|e| last(e, true))
    {
        *addr = u64::MAX - u64::from(*bytes);
    }
    tile.events.push(Event::Texel {
        unit: 0,
        count: 3,
        addr: u64::MAX,
    });
    tile.stats.texel_fetches += 3;
    if let Some(Event::VertexFetch { addr, bytes }) = log.frames[1]
        .geo_events
        .iter_mut()
        .rev()
        .find(|e| last(e, false))
    {
        *addr = u64::MAX - u64::from(*bytes);
    }
    let back = relog::decode(&relog::encode(&log)).expect("decode");
    assert_eq!(back, log);
    let opts = SimOptions {
        gpu: cfg,
        ..SimOptions::default()
    };
    // The top lines replay without overflow.
    assert!(re_core::evaluate(&back, &opts).baseline.dram.total_bytes() > 0);
}

/// A real 8-tile render (64×32 in 16-pixel tiles) whose tiles shade
/// fragments and fetch texels.
fn textured_log() -> RenderLog {
    let cfg = GpuConfig {
        width: 64,
        height: 32,
        tile_size: 16,
        ..Default::default()
    };
    let log = render_scene(&mut Tex(None), cfg, 3);
    let tile = &log.frames[1].tiles[2];
    assert!(tile.stats.fragments_shaded > 0 && tile.stats.texel_fetches > 0);
    log
}

/// A textured quad over the whole screen, with the texture its `init`
/// uploads.
struct Tex(Option<re_gpu::texture::TextureId>);

impl Scene for Tex {
    fn init(&mut self, textures: &mut re_gpu::TextureStore) {
        self.0 = Some(textures.upload_with(8, 8, |x, y| {
            if (x + y) % 2 == 0 {
                re_math::Color::WHITE
            } else {
                re_math::Color::BLACK
            }
        }));
    }
    fn frame(&mut self, _i: usize) -> FrameDesc {
        let mut frame = FrameDesc::new();
        for tri in [
            [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0)],
            [(-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)],
        ] {
            let vertices = tri
                .iter()
                .map(|&(x, y): &(f32, f32)| {
                    Vertex::new(vec![
                        Vec4::new(x, y, 0.0, 1.0),
                        Vec4::splat(1.0),
                        Vec4::new((x + 1.0) / 2.0, (y + 1.0) / 2.0, 0.0, 0.0),
                    ])
                })
                .collect();
            frame.drawcalls.push(DrawCall {
                state: PipelineState::sprite_2d(self.0.expect("init uploads the texture")),
                constants: Mat4::IDENTITY.cols.to_vec(),
                vertices,
            });
        }
        frame
    }
    fn name(&self) -> &str {
        "tex"
    }
}

/// The first texel run of frame 1's tile 2.
fn first_run(log: &mut RenderLog) -> &mut Event {
    log.frames[1].tiles[2]
        .events
        .iter_mut()
        .find(|e| matches!(e, Event::Texel { .. }))
        .expect("a texel run")
}

#[test]
fn forged_texel_runs_and_hash_columns_are_rejected() {
    let log = textured_log();

    // A run of no fetches.
    let mut empty = log.clone();
    if let Event::Texel { count, .. } = first_run(&mut empty) {
        *count = 0;
    }
    // A fifth texture unit.
    let mut unit = log.clone();
    if let Event::Texel { unit: u, .. } = first_run(&mut unit) {
        *u = TEXEL_UNITS;
    }
    // One hash more than the tile's primitives can shade in its 256
    // pixels.
    let mut hashes = log.clone();
    let tile = &mut hashes.frames[1].tiles[2];
    let room = tile.stats.prims_processed * 256 - tile.stats.fragments_rasterized;
    tile.hashes.extend((0..=room).map(|h| h as u32));

    for (forged, expected) in [
        (empty, RelogError::EmptyTexelRun),
        (unit, RelogError::BadTexelUnit { unit: TEXEL_UNITS }),
        (
            hashes,
            RelogError::BadCounter {
                frame: 1,
                tile: Some(2),
                counter: "fragments_rasterized",
            },
        ),
    ] {
        let (whole, streamed) = errors(&relog::encode(&forged));
        assert_eq!(whole, expected);
        assert_eq!(streamed, expected);
    }
    // The unforged log decodes as it was.
    assert_eq!(relog::decode(&relog::encode(&log)).expect("decode"), log);
}

/// Both entry points' log for `bytes`, which must agree.
fn decoded(bytes: &[u8]) -> RenderLog {
    let whole = relog::decode(bytes).expect("decode");
    let streamed = RelogReader::new(bytes)
        .and_then(RelogReader::into_log)
        .expect("stream");
    assert_eq!(whole, streamed);
    whole
}

/// Sets one bounded counter of a [`textured_log`] (frame 1, tile 2 for a
/// tile counter) to its bound plus the second argument, keeping every
/// counter derived from it consistent.
type BoundEdit = fn(&mut RenderLog, u64);

#[test]
fn counters_are_accepted_at_their_bound_and_rejected_past_it() {
    // 16-pixel tiles: 256 pixels each.
    const AREA: u64 = 256;
    const SLOTS: u64 = u32::MAX as u64;
    let log = textured_log();
    let rows: [(&str, Option<u32>, BoundEdit); 8] = [
        // The four stored tile counters; `early_z_killed` is bounded
        // through the fragments it adds to the rasterized ones.
        ("fragments_rasterized", Some(2), |log, past| {
            let s = &mut log.frames[1].tiles[2].stats;
            s.early_z_killed = s.prims_processed * AREA - s.fragments_shaded + past;
            s.fragments_rasterized = s.fragments_shaded + s.early_z_killed;
        }),
        ("depth_accesses", Some(2), |log, past| {
            let s = &mut log.frames[1].tiles[2].stats;
            s.depth_accesses = 2 * s.fragments_rasterized + past;
        }),
        ("attr_interpolations", Some(2), |log, past| {
            let s = &mut log.frames[1].tiles[2].stats;
            s.attr_interpolations = 256 * s.fragments_rasterized + past;
        }),
        ("fs_instr_slots", Some(2), |log, past| {
            let s = &mut log.frames[1].tiles[2].stats;
            s.fs_instr_slots = SLOTS * s.fragments_shaded + past;
        }),
        // The two stored geometry counters.
        ("vs_instr_slots", None, |log, past| {
            let g = &mut log.frames[1].geo.stats;
            g.vs_instr_slots = SLOTS * g.vertices_shaded + past;
        }),
        ("prims_from_clipping", None, |log, past| {
            let g = &mut log.frames[1].geo.stats;
            g.prims_from_clipping = 2 * g.prims_in + past;
            g.prims_culled = (g.prims_in + g.prims_from_clipping).saturating_sub(g.prims_binned);
        }),
        // Two derived counters the record could push past their bounds:
        // flushed pixels (the tile is full) and binned primitives.
        ("pixels_flushed", Some(2), |log, past| {
            let t = &mut log.frames[1].tiles[2];
            assert_eq!(t.stats.pixels_flushed, AREA);
            t.events.push(Event::ColorFlush {
                addr: 0,
                bytes: 4 * past as u32,
            });
            t.stats.pixels_flushed += past;
            t.stats.color_bytes_flushed += 4 * past;
        }),
        ("prims_binned", None, |log, past| {
            let frame = &mut log.frames[1];
            let g = &mut frame.geo.stats;
            g.prims_from_clipping = g.prims_binned - g.prims_in;
            g.prims_culled = 0;
            g.prims_binned += past;
            let prims = &mut frame.geo.drawcalls[0].prims;
            let prim = prims[0].clone();
            g.prim_tile_pairs += past * prim.overlapped_tiles.len() as u64;
            prims.extend((0..past).map(|_| prim.clone()));
        }),
    ];
    for (counter, tile, edit) in rows {
        let mut at = log.clone();
        edit(&mut at, 0);
        assert_eq!(decoded(&relog::encode(&at)), at, "{counter} at its bound");
        let mut past = log.clone();
        edit(&mut past, 1);
        let expected = RelogError::BadCounter {
            frame: 1,
            tile,
            counter,
        };
        let (whole, streamed) = errors(&relog::encode(&past));
        assert_eq!(whole, expected, "{counter} past its bound");
        assert_eq!(streamed, expected, "{counter} past its bound");
    }
}

#[test]
fn every_built_in_scene_implies_the_counters_it_does_not_store() {
    // Stage A's own counters against the decoder's derivation, over every
    // suite and vector scene at two tile sizes and both binnings.
    let aliases = re_workloads::ALIASES
        .iter()
        .chain(&re_workloads::source::VECTOR_ALIASES);
    for alias in aliases {
        for tile_size in [16, 32] {
            for binning in [BinningMode::BoundingBox, BinningMode::ExactCoverage] {
                let cfg = GpuConfig {
                    width: 96,
                    height: 64,
                    tile_size,
                    binning,
                };
                let mut scene = re_workloads::source::builtin_scene(alias).expect("built in");
                let log = render_scene(scene.as_mut(), cfg, 4);
                let label = format!("{alias} tile {tile_size} {binning:?}");
                let back =
                    relog::decode(&relog::encode(&log)).unwrap_or_else(|e| panic!("{label}: {e}"));
                for (f, (a, b)) in back.frames.iter().zip(&log.frames).enumerate() {
                    assert_eq!(a.geo.stats, b.geo.stats, "{label} frame {f}");
                    for (t, (x, y)) in a.tiles.iter().zip(&b.tiles).enumerate() {
                        assert_eq!(x.stats, y.stats, "{label} frame {f} tile {t}");
                    }
                }
                assert!(back == log, "{label}");
            }
        }
    }
}

#[test]
fn a_retired_revision_is_rejected_by_its_magic() {
    let mut bytes = relog::encode(&textured_log());
    assert_eq!(&bytes[..8], b"RELOG005");
    for old in [b'2', b'3', b'4'] {
        bytes[7] = old;
        let (whole, streamed) = errors(&bytes);
        assert_eq!(whole, RelogError::BadMagic);
        assert_eq!(streamed, RelogError::BadMagic);
    }
}

#[test]
fn degenerate_header_configurations_are_rejected() {
    let base = GpuConfig {
        width: 64,
        height: 32,
        tile_size: 16,
        ..Default::default()
    };
    let zero_width = GpuConfig { width: 0, ..base };
    let zero_height = GpuConfig { height: 0, ..base };
    let zero_tile = GpuConfig {
        tile_size: 0,
        ..base
    };
    // u32::MAX² tiles per frame: more than a u32 counts.
    let huge = GpuConfig {
        width: u32::MAX,
        height: u32::MAX,
        tile_size: 1,
        ..base
    };
    for config in [zero_width, zero_height, zero_tile, huge] {
        let log = RenderLog {
            name: "degenerate".to_owned(),
            config,
            frames: Vec::new(),
        };
        let (whole, streamed) = errors(&relog::encode(&log));
        assert_eq!(whole, RelogError::BadConfig, "{config:?}");
        assert_eq!(streamed, RelogError::BadConfig, "{config:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_logs_roundtrip_losslessly(
        seed in any::<u64>(),
        frames in 0usize..4,
        tiles in 1usize..5,
    ) {
        let log = arbitrary_log(seed, frames, tiles);
        let bytes = relog::encode(&log);
        let back = relog::decode(&bytes).expect("decode");
        prop_assert_eq!(&back, &log);
        // Byte-stable canonical form.
        prop_assert_eq!(relog::encode(&back), bytes);
    }

    #[test]
    fn evaluation_from_decoded_logs_is_bit_identical(
        sig_bits in 1u32..=32,
        distance in 1usize..=3,
        frames in 2usize..5,
    ) {
        // A *real* render this time: evaluation semantics only make sense
        // on consistent logs.
        let cfg = GpuConfig { width: 64, height: 64, tile_size: 16, ..Default::default() };
        let log = render_scene(&mut Wob(2), cfg, frames);
        let opts = SimOptions {
            gpu: cfg,
            sig_bits,
            compare_distance: distance,
            ..SimOptions::default()
        };
        let direct = re_core::evaluate(&log, &opts);
        let bytes = relog::encode(&log);
        let decoded = relog::decode(&bytes).expect("decode");
        prop_assert_eq!(re_core::evaluate(&decoded, &opts), direct);
    }

    #[test]
    fn decode_and_streaming_reader_agree_on_hostile_bytes(
        seed in any::<u64>(),
        frames in 0usize..4,
        tiles in 1usize..5,
        lzss in any::<bool>(),
        flip in any::<bool>(),
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let log = arbitrary_log(seed, frames, tiles);
        let compression = if lzss { Compression::Lzss } else { Compression::None };
        let mut bytes = relog::encode_with(&log, compression);
        let at = (at % bytes.len() as u64) as usize;
        if flip {
            bytes[at] ^= mask;
        } else {
            bytes.truncate(at);
        }
        let whole = relog::decode(&bytes);
        let streamed = RelogReader::new(bytes.as_slice()).and_then(RelogReader::into_log);
        match (whole, streamed) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => {
                let b = *b
                    .into_inner()
                    .expect("wrapped RelogError")
                    .downcast::<RelogError>()
                    .expect("a RelogError");
                prop_assert_eq!(a, b);
            }
            // A stream has no end to check, so only the in-memory entry
            // point sees bytes after the last frame a corrupt header
            // declares.
            (Err(a), Ok(_)) => prop_assert_eq!(
                a,
                RelogError::Truncated { context: "stream (trailing bytes)" }
            ),
            (Ok(_), Err(b)) => prop_assert!(false, "only the stream failed: {}", b),
        }
    }
}
