//! Round-trip property of the `.relog` codec: `decode(encode(log)) == log`
//! for arbitrary [`RenderLog`]s — not just ones a well-behaved render
//! produces. The generator below fills every field (events of every kind,
//! stats counters, shaded vertices, bins, flags) from a seeded stream, so
//! the property covers extreme values (0, `u64::MAX` addresses, empty and
//! non-empty vectors) the renderer itself would never emit.
//!
//! A second property pins the reason the codec exists: a report evaluated
//! from a decoded log is bit-identical to one evaluated from the in-memory
//! original.
//!
//! A third pins the one frame-record reader behind both entry points: on
//! truncated or bit-flipped streams, [`relog::decode`] and
//! [`RelogReader::into_log`] agree (same log or same error) and never
//! panic. Forged frames with valid CRCs but the wrong tile count, and
//! headers with degenerate configurations, are errors too.

use proptest::prelude::*;
use re_core::relog::{self, Compression, RelogError, RelogReader};
use re_core::render::{FrameLog, RenderLog, TileLog};
use re_core::{render_scene, Scene, SimOptions};
use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
use re_gpu::geometry::{AssembledPrim, DrawcallMeta, GeometryOutput, ShadedVertex};
use re_gpu::stats::{GeometryStats, TileStats};
use re_gpu::{BinningMode, Event, GpuConfig};
use re_math::{Mat4, Rect, Vec4};

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
    fn f32(&mut self) -> f32 {
        // Arbitrary bit patterns, finite-or-not: the codec must preserve
        // them verbatim (NaN payloads included — compare by bits below,
        // PartialEq would reject NaN == NaN).
        f32::from_bits(self.u32())
    }
    /// A finite f32 (for fields compared with PartialEq).
    fn finite_f32(&mut self) -> f32 {
        (self.below(2_000_001) as f32 - 1_000_000.0) / 64.0
    }
    fn vec4(&mut self) -> Vec4 {
        Vec4::new(
            self.finite_f32(),
            self.finite_f32(),
            self.finite_f32(),
            self.finite_f32(),
        )
    }
    fn event(&mut self) -> Event {
        match self.below(6) {
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
                unit: self.u64() as u8,
                addr: self.wild(),
            },
            4 => {
                let (addr, bytes) = self.extent();
                Event::ColorFlush { addr, bytes }
            }
            _ => Event::FragShaded {
                tile: self.u32(),
                drawcall: self.u32(),
                hash: self.u32(),
            },
        }
    }
    fn events(&mut self, max: u64) -> Vec<Event> {
        (0..self.below(max + 1)).map(|_| self.event()).collect()
    }
    fn vertex(&mut self) -> ShadedVertex {
        ShadedVertex {
            clip: self.vec4(),
            screen: [self.finite_f32(), self.finite_f32(), self.finite_f32()],
            inv_w: self.finite_f32(),
            varyings: (0..self.below(4)).map(|_| self.vec4()).collect(),
        }
    }
    fn prim(&mut self) -> AssembledPrim {
        AssembledPrim {
            drawcall: self.u32(),
            verts: [self.vertex(), self.vertex(), self.vertex()],
            bbox: {
                let (x0, y0) = (self.u32() as i32, self.u32() as i32);
                Rect {
                    x0,
                    y0,
                    x1: x0.saturating_add(self.below(1 << 12) as i32),
                    y1: y0.saturating_add(self.below(1 << 12) as i32),
                }
            },
            param_addr: self.wild(),
            param_bytes: (0..self.below(64)).map(|_| self.u64() as u8).collect(),
            overlapped_tiles: (0..self.below(8)).map(|_| self.u32()).collect(),
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
    fn frame(&mut self, tiles: usize) -> FrameLog {
        FrameLog {
            re_unsafe: self.below(2) == 1,
            geo: GeometryOutput {
                drawcalls: (0..self.below(3))
                    .map(|_| DrawcallMeta {
                        constants_bytes: (0..self.below(48)).map(|_| self.u64() as u8).collect(),
                        prim_indices: (0..self.below(4)).map(|_| self.u32()).collect(),
                    })
                    .collect(),
                prims: (0..self.below(4)).map(|_| self.prim()).collect(),
                bins: (0..self.below(5))
                    .map(|_| (0..self.below(4)).map(|_| self.u32()).collect())
                    .collect(),
                stats: self.geometry_stats(),
            },
            geo_events: self.events(12),
            tiles: (0..tiles)
                .map(|_| TileLog {
                    events: self.events(16),
                    stats: self.tile_stats(),
                    color_id: self.u32(),
                    te_sig: self.u32(),
                    color_bytes: self.wild(),
                })
                .collect(),
        }
    }
}

/// An arbitrary log: the geometry/tile structure need not be mutually
/// consistent — the codec must carry it regardless. Only the tile count
/// follows the configuration, because the reader checks it: each frame
/// holds `tiles` tiles (at least one), a row of `tile_size` tiles whose
/// last one may be partial.
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
    log.frames[1].tiles[3].events.extend([
        Event::ColorFlush {
            addr: u64::MAX - 64,
            bytes: 64,
        },
        Event::Texel {
            unit: 0,
            addr: u64::MAX,
        },
    ]);
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
    fn nan_bit_patterns_survive_the_roundtrip(seed in any::<u64>()) {
        // PartialEq can't see NaN equality, so check raw f32 bit patterns
        // separately on a log whose floats are arbitrary bits.
        let mut s = Stream(seed);
        let mut log = arbitrary_log(seed, 1, 1);
        if let Some(p) = log.frames[0].geo.prims.first_mut() {
            for v in &mut p.verts {
                v.clip = Vec4::new(s.f32(), s.f32(), s.f32(), s.f32());
            }
        }
        let back = relog::decode(&relog::encode(&log)).expect("decode");
        for (a, b) in log.frames[0].geo.prims.iter().zip(&back.frames[0].geo.prims) {
            for (va, vb) in a.verts.iter().zip(&b.verts) {
                prop_assert_eq!(va.clip.to_le_bytes(), vb.clip.to_le_bytes());
            }
        }
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
            // Compare re-encodings: PartialEq would reject NaN == NaN.
            (Ok(a), Ok(b)) => prop_assert_eq!(relog::encode(&a), relog::encode(&b)),
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
