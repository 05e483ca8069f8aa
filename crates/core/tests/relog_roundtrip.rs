//! Round-trip property of the `.relog` codec: `decode(encode(log)) == log`
//! for arbitrary [`RenderLog`]s — not just ones a well-behaved render
//! produces. The generator below fills every field (events of every kind,
//! texel runs, fragment-hash columns, stats counters, recorded geometry,
//! flags) from a seeded stream, so the property covers extreme values (0,
//! `u64::MAX` addresses, `u32::MAX` runs, empty and non-empty vectors) the
//! renderer itself would never emit. Only what the reader checks is kept
//! consistent: a tile's hash count is its `fragments_shaded`, its run
//! counts sum to its `texel_fetches`, and every overlapped tile lies in
//! the frame.
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
//! texel unit no render uses, or a tile whose hash column or texel runs
//! disagree with its counters, and headers with degenerate
//! configurations, are errors too.

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

/// Fetches the texel runs among `events` hold.
fn texel_fetches(events: &[Event]) -> u64 {
    events
        .iter()
        .map(|e| match *e {
            Event::Texel { count, .. } => u64::from(count),
            _ => 0,
        })
        .sum()
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
    /// Recorded geometry whose primitives overlap tiles of a `tiles`-tile
    /// frame, as the reader requires; every other field is arbitrary.
    fn geometry(&mut self, tiles: usize) -> FrameGeometry {
        FrameGeometry {
            drawcalls: (0..self.below(3))
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
                .collect(),
            stats: self.geometry_stats(),
        }
    }
    fn geometry_stats(&mut self) -> GeometryStats {
        GeometryStats {
            vertices_fetched: self.wild(),
            vertices_shaded: self.wild(),
            vs_instr_slots: self.wild(),
            prims_in: self.wild(),
            prims_culled: self.wild(),
            prims_from_clipping: self.wild(),
            prims_binned: self.wild(),
            prim_tile_pairs: self.wild(),
            param_bytes_written: self.wild(),
            vertex_bytes_fetched: self.wild(),
        }
    }
    fn tile_stats(&mut self) -> TileStats {
        TileStats {
            prims_processed: self.wild(),
            param_bytes_read: self.wild(),
            fragments_rasterized: self.wild(),
            attr_interpolations: self.wild(),
            early_z_killed: self.wild(),
            fragments_shaded: self.wild(),
            fs_instr_slots: self.wild(),
            texel_fetches: self.wild(),
            blend_ops: self.wild(),
            depth_accesses: self.wild(),
            pixels_flushed: self.wild(),
            color_bytes_flushed: self.wild(),
        }
    }
    /// A tile whose hash column and texel runs agree with its counters,
    /// as the reader requires; every other field is arbitrary.
    fn tile(&mut self) -> TileLog {
        let events = self.events(16);
        let hashes: Vec<u32> = (0..self.below(24)).map(|_| self.u32()).collect();
        let mut stats = self.tile_stats();
        stats.fragments_shaded = hashes.len() as u64;
        stats.texel_fetches = texel_fetches(&events);
        TileLog {
            events,
            hashes,
            stats,
            color_id: self.u32(),
            te_sig: self.u32(),
            color_bytes: self.wild(),
        }
    }
    fn frame(&mut self, tiles: usize) -> FrameLog {
        FrameLog {
            re_unsafe: self.below(2) == 1,
            geo: self.geometry(tiles),
            geo_events: self.events(12),
            tiles: (0..tiles).map(|_| self.tile()).collect(),
        }
    }
}

/// An arbitrary log: the geometry/tile structure need not be mutually
/// consistent — the codec must carry it regardless. Only the tile count
/// follows the configuration, because the reader checks it: each frame
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
        frames: (0..frames).map(|_| s.frame(tiles)).collect(),
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
    // The last tile in the frame is a valid one.
    let mut last = log.clone();
    last.frames[2].geo.drawcalls[0].prims[0]
        .overlapped_tiles
        .push(7);
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
    let tile = &mut log.frames[1].tiles[3];
    tile.events.extend([
        Event::ColorFlush {
            addr: u64::MAX - 64,
            bytes: 64,
        },
        Event::Texel {
            unit: 0,
            count: 3,
            addr: u64::MAX,
        },
    ]);
    tile.stats.texel_fetches += 3;
    log.frames[1].geo_events.push(Event::VertexFetch {
        addr: u64::MAX - 10,
        bytes: 10,
    });
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
    let tile = &log.frames[1].tiles[2];
    let (shaded, fetched) = (tile.stats.fragments_shaded, tile.stats.texel_fetches);

    // A run of no fetches, with the tile's count kept consistent.
    let mut empty = log.clone();
    if let Event::Texel { count, .. } = first_run(&mut empty) {
        let n = u64::from(std::mem::replace(count, 0));
        empty.frames[1].tiles[2].stats.texel_fetches -= n;
    }
    // A fifth texture unit.
    let mut unit = log.clone();
    if let Event::Texel { unit: u, .. } = first_run(&mut unit) {
        *u = TEXEL_UNITS;
    }
    // One hash too many.
    let mut hashes = log.clone();
    hashes.frames[1].tiles[2].hashes.push(7);
    // One fetch more in a run than the tile counts.
    let mut fetches = log.clone();
    if let Event::Texel { count, .. } = first_run(&mut fetches) {
        *count += 1;
    }

    for (forged, expected) in [
        (empty, RelogError::EmptyTexelRun),
        (unit, RelogError::BadTexelUnit { unit: TEXEL_UNITS }),
        (
            hashes,
            RelogError::BadHashCount {
                frame: 1,
                tile: 2,
                expected: shaded,
                found: shaded + 1,
            },
        ),
        (
            fetches,
            RelogError::BadTexelFetches {
                frame: 1,
                tile: 2,
                expected: fetched,
                found: fetched + 1,
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

#[test]
fn a_retired_revision_is_rejected_by_its_magic() {
    let mut bytes = relog::encode(&textured_log());
    assert_eq!(&bytes[..8], b"RELOG004");
    for old in [b'2', b'3'] {
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
