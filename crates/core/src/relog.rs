//! The `.relog` binary format: lossless on-disk [`RenderLog`]s.
//!
//! A [`RenderLog`] is the Stage A artifact — everything
//! [`crate::passes::evaluate`] needs, recorded once per render key. This
//! module gives it a versioned, dependency-free on-disk form so a resumed,
//! killed, or sharded sweep can *skip Stage A entirely*: the sweep engine
//! caches one `.relog` per render key next to the `.retrace` trace cache
//! and replays it instead of re-rasterizing (see `re_sweep`'s
//! `RenderLogCache`).
//!
//! A frame records the Signature Unit's inputs in the order it folds them
//! ([`FrameGeometry`]), not the rasterizer's shaded vertices, bounding
//! boxes or bins: RE signs a tile's inputs before rasterization.
//!
//! Layout (all integers little-endian; full byte-level spec in
//! `docs/FORMATS.md`):
//!
//! ```text
//! magic        "RELOG005"                                   8 bytes
//! fingerprint  u64   FNV-1a over name/config/frame count (see
//!                    [`log_fingerprint`]) — stale-artifact detection
//! name         len u16 + UTF-8
//! config       width u32, height u32, tile_size u32, binning u8
//! frames       count u32, then per frame a framed record:
//!                flags u8 (0 = stored, 1 = LZSS),
//!                raw_len u64, stored_len u64,
//!                stored_crc u32 (CRC32 of the *stored* bytes)
//!                payload (raw or LZSS-compressed):
//!                  re_unsafe u8
//!                  recorded geometry (per drawcall: constants, then
//!                  per primitive: attributes, overlapped tiles; the
//!                  2 stored geometry counters)
//!                  geometry events, per-tile records (events,
//!                  fragment-hash column, the 4 stored tile counters,
//!                  color identity)
//! ```
//!
//! Events are fixed-width records, one per cache-visible access: a texel
//! record is a run of `count` fetches of one unit within one 64-byte line
//! (see [`re_gpu::access`]). A tile's fragment hashes are a `u32` column
//! beside its events.
//!
//! A frame record may be LZSS-compressed (std-only codec in
//! `crate::lzss`) and declares both its raw and stored sizes, with the
//! CRC over the stored bytes so integrity is checked *before* the
//! decompressor runs on the data. [`encode`] stores every frame plain;
//! compression is opt-in via [`encode_with`].
//!
//! Four independent integrity layers, one per failure mode:
//!
//! * **version** — the magic names the format revision; any layout change
//!   bumps it, and an old reader rejects a new file (and vice versa)
//!   instead of misparsing it;
//! * **identity** — the [`log_fingerprint`] ties the artifact to the
//!   render key that produced it (a renamed or hand-moved file is *stale*,
//!   not corrupt, and is detected before any frame is read);
//! * **integrity** — every frame record carries a CRC32 of its stored
//!   bytes, checked as the record is read for decoding, so torn writes and
//!   bit rot are caught frame-by-frame without hashing the whole file up
//!   front;
//! * **shape** — the header's configuration must have non-zero dimensions,
//!   and every frame record must hold exactly the tiles that configuration
//!   divides the screen into, so a forged record with valid CRCs fails its
//!   decode ([`RelogError::BadTileCount`]) instead of Stage B; likewise no
//!   access event's byte range `[addr, addr + bytes)` may wrap past the end
//!   of the 64-bit address space ([`RelogError::BadExtent`]), no texel run
//!   may be empty ([`RelogError::EmptyTexelRun`]) or name a texture unit a
//!   render never uses ([`RelogError::BadTexelUnit`]), no primitive may
//!   overlap a tile outside the frame ([`RelogError::BadOverlappedTile`]),
//!   and no counter may exceed the bound Stage A's code sets on it
//!   ([`RelogError::BadCounter`]; see [Counters](#counters)).
//!
//! # Counters
//!
//! A record stores a [`TileStats`] or [`GeometryStats`] counter only when
//! the record does not imply it: a tile stores `attr_interpolations`,
//! `early_z_killed`, `fs_instr_slots` and `depth_accesses`, a frame
//! `vs_instr_slots` and `prims_from_clipping`. The decoder derives the
//! rest from the record's events, hash columns and primitives, as Stage A
//! counts them, so they cannot disagree with the record, and holds the
//! stored ones to bounds read off Stage A's code (`docs/FORMATS.md`
//! tabulates both).
//!
//! Encoding is canonical (a pure function of the log), so
//! encode → decode → encode is byte-stable, and decode(encode(x)) == x for
//! every field.
//!
//! # Streaming
//!
//! [`RelogReader`] decodes one [`FrameLog`] at a time from any
//! [`io::Read`], so a consumer holds at most one frame's events in memory
//! regardless of log length. The sweep engine decodes a cached log whole,
//! once per render key ([`RelogReader::into_log`]), and shares it among
//! the key's cells. [`decode`] runs the same reader over an in-memory
//! stream.

use std::io::{self, Read};
use std::path::Path;

use re_crc::Crc32;
use re_gpu::access::TEXEL_UNITS;
use re_gpu::stats::{GeometryStats, TileStats};
use re_gpu::{BinningMode, Event, GpuConfig};

use crate::render::{DrawcallGeometry, FrameGeometry, FrameLog, PrimGeometry, RenderLog, TileLog};

/// Format magic; the trailing digits are the format revision.
pub const MAGIC: &[u8; 8] = b"RELOG005";

/// Per-frame payload compression for [`encode_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Every frame stored plain ([`encode`]'s output).
    #[default]
    None,
    /// LZSS-compressed frames. Each frame stores whichever of {raw,
    /// compressed} is smaller, so compression never grows a record past
    /// its framing overhead.
    Lzss,
}

/// Errors produced when parsing a `.relog` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelogError {
    /// The stream does not start with a known `RELOG…` magic (wrong file
    /// type *or* wrong format revision — the version lives in the magic).
    BadMagic,
    /// The stream ended before a complete record.
    Truncated {
        /// What was being read.
        context: &'static str,
    },
    /// An enum tag (event kind, binning mode) was invalid.
    BadTag {
        /// What was being read.
        context: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// The workload name was not valid UTF-8.
    BadString,
    /// A frame record's payload failed its CRC32 (torn write, bit rot).
    BadChecksum {
        /// Zero-based index of the corrupt frame record.
        frame: u32,
    },
    /// A frame record's stored bytes passed their CRC but did not
    /// decompress to exactly the declared raw length (malformed or
    /// mislabeled compression).
    BadCompression {
        /// Zero-based index of the undecodable frame record.
        frame: u32,
    },
    /// The header's render configuration has a zero width, height or tile
    /// size, or more tiles per frame than a `u32` counts.
    BadConfig,
    /// An access event's byte range `[addr, addr + bytes)` wraps past the
    /// end of the 64-bit address space.
    BadExtent {
        /// What was being read.
        context: &'static str,
    },
    /// A frame record holds a different number of tiles than the header's
    /// render configuration divides the screen into.
    BadTileCount {
        /// Zero-based index of the frame record.
        frame: u32,
        /// Tiles per frame under the header's configuration.
        expected: u32,
        /// Tiles the frame record declares.
        found: u32,
    },
    /// A texel run counts zero fetches.
    EmptyTexelRun,
    /// A texel event names a texture unit at or above
    /// [`TEXEL_UNITS`].
    BadTexelUnit {
        /// The offending unit.
        unit: u8,
    },
    /// A tile's or a frame's counter exceeds the bound Stage A's code
    /// sets on it (see the module docs' *Counters*).
    BadCounter {
        /// Zero-based index of the frame record.
        frame: u32,
        /// Tile id within the frame, or `None` for a geometry counter.
        tile: Option<u32>,
        /// The [`TileStats`] or [`GeometryStats`] field out of bounds.
        counter: &'static str,
    },
    /// A primitive of a frame record's geometry overlaps a tile id at or
    /// above the tile count of the header's configuration.
    BadOverlappedTile {
        /// Zero-based index of the frame record.
        frame: u32,
        /// The offending tile id.
        tile: u32,
        /// Tiles per frame under the header's configuration.
        tile_count: u32,
    },
}

impl std::fmt::Display for RelogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelogError::BadMagic => write!(f, "not a RELOG005 stream"),
            RelogError::Truncated { context } => write!(f, "truncated while reading {context}"),
            RelogError::BadTag { context, value } => {
                write!(f, "invalid tag {value:#04x} while reading {context}")
            }
            RelogError::BadString => write!(f, "invalid UTF-8 in workload name"),
            RelogError::BadChecksum { frame } => {
                write!(f, "frame record {frame} failed its checksum")
            }
            RelogError::BadCompression { frame } => {
                write!(f, "frame record {frame} failed to decompress")
            }
            RelogError::BadConfig => write!(f, "header has a degenerate render configuration"),
            RelogError::BadExtent { context } => {
                write!(f, "{context} address range wraps past the address space")
            }
            RelogError::BadTileCount {
                frame,
                expected,
                found,
            } => write!(
                f,
                "frame record {frame} has {found} tiles; its header's configuration has {expected}"
            ),
            RelogError::EmptyTexelRun => write!(f, "a texel run counts no fetches"),
            RelogError::BadTexelUnit { unit } => {
                write!(
                    f,
                    "texel event names texture unit {unit} (of {TEXEL_UNITS})"
                )
            }
            RelogError::BadCounter {
                frame,
                tile: Some(tile),
                counter,
            } => write!(
                f,
                "frame record {frame} tile {tile}'s {counter} exceeds its bound"
            ),
            RelogError::BadCounter {
                frame,
                tile: None,
                counter,
            } => write!(f, "frame record {frame}'s {counter} exceeds its bound"),
            RelogError::BadOverlappedTile {
                frame,
                tile,
                tile_count,
            } => write!(
                f,
                "frame record {frame} has a primitive overlapping tile {tile} of {tile_count}"
            ),
        }
    }
}

impl std::error::Error for RelogError {}

impl From<RelogError> for io::Error {
    fn from(e: RelogError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// The identity fingerprint a `.relog` header carries: FNV-1a over the
/// workload name, the render configuration and the frame count — every
/// input that determines a log's contents. Two logs with different
/// fingerprints were rendered from different render keys, so a cache hit
/// requires an exact match.
pub fn log_fingerprint(name: &str, config: GpuConfig, frames: usize) -> u64 {
    let text = format!(
        "name={name}\nscreen={}x{}\ntile={}\nbinning={}\nframes={frames}\n",
        config.width,
        config.height,
        config.tile_size,
        binning_tag(config.binning),
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn binning_tag(mode: BinningMode) -> u8 {
    match mode {
        BinningMode::BoundingBox => 0,
        BinningMode::ExactCoverage => 1,
    }
}

fn binning_from_tag(value: u8) -> Result<BinningMode, RelogError> {
    match value {
        0 => Ok(BinningMode::BoundingBox),
        1 => Ok(BinningMode::ExactCoverage),
        value => Err(RelogError::BadTag {
            context: "binning mode",
            value,
        }),
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.out.extend_from_slice(b);
    }
    fn u32s(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }
    fn event(&mut self, e: &Event) {
        match *e {
            Event::VertexFetch { addr, bytes } => {
                self.u8(VERTEX_FETCH);
                self.u64(addr);
                self.u32(bytes);
            }
            Event::ParamWrite { addr, bytes } => {
                self.u8(PARAM_WRITE);
                self.u64(addr);
                self.u32(bytes);
            }
            Event::ParamRead { addr, bytes } => {
                self.u8(PARAM_READ);
                self.u64(addr);
                self.u32(bytes);
            }
            Event::Texel { unit, count, addr } => {
                self.u8(TEXEL);
                self.u8(unit);
                self.u32(count);
                self.u64(addr);
            }
            Event::ColorFlush { addr, bytes } => {
                self.u8(COLOR_FLUSH);
                self.u64(addr);
                self.u32(bytes);
            }
        }
    }
    fn events(&mut self, es: &[Event]) {
        self.u32(es.len() as u32);
        for e in es {
            self.event(e);
        }
    }
    /// The geometry counters the record does not imply.
    fn geometry_stats(&mut self, s: &GeometryStats) {
        self.u64(s.vs_instr_slots);
        self.u64(s.prims_from_clipping);
    }
    /// The tile counters the record does not imply.
    fn tile_stats(&mut self, s: &TileStats) {
        for v in [
            s.attr_interpolations,
            s.early_z_killed,
            s.fs_instr_slots,
            s.depth_accesses,
        ] {
            self.u64(v);
        }
    }
    fn geo(&mut self, g: &FrameGeometry) {
        self.u32(g.drawcalls.len() as u32);
        for dc in &g.drawcalls {
            self.bytes(&dc.constants_bytes);
            self.u32(dc.prims.len() as u32);
            for p in &dc.prims {
                self.bytes(&p.param_bytes);
                self.u32s(&p.overlapped_tiles);
            }
        }
        self.geometry_stats(&g.stats);
    }
}

/// Encodes one frame's payload (what the per-frame CRC covers).
fn encode_frame(frame: &FrameLog) -> Vec<u8> {
    let mut w = Writer {
        out: Vec::with_capacity(1 << 12),
    };
    w.u8(frame.re_unsafe as u8);
    w.geo(&frame.geo);
    w.events(&frame.geo_events);
    w.u32(frame.tiles.len() as u32);
    for t in &frame.tiles {
        w.events(&t.events);
        w.u32s(&t.hashes);
        w.tile_stats(&t.stats);
        w.u32(t.color_id);
        w.u32(t.te_sig);
    }
    w.out
}

/// Serializes a complete log (see the module docs for the layout).
///
/// # Panics
/// Panics on a workload name over 65 535 bytes, which no real render has
/// but the format could not represent faithfully (silently truncating a
/// length prefix would persist a self-inconsistent artifact, which is
/// strictly worse).
pub fn encode(log: &RenderLog) -> Vec<u8> {
    encode_with(log, Compression::None)
}

/// [`encode`] with a choice of per-frame compression:
/// [`Compression::Lzss`] stores each frame LZSS-compressed when that is
/// smaller (and plain when not); [`Compression::None`] stores every frame
/// plain.
///
/// Either way, decoding reproduces the [`RenderLog`] bit-for-bit — the
/// frame payload bytes under the framing are identical, so compression is
/// purely a storage/replay-bandwidth knob.
///
/// # Panics
/// As [`encode`].
pub fn encode_with(log: &RenderLog, compression: Compression) -> Vec<u8> {
    let mut w = Writer {
        out: Vec::with_capacity(1 << 16),
    };
    w.out.extend_from_slice(MAGIC);
    w.u64(log_fingerprint(&log.name, log.config, log.frames.len()));
    let name = log.name.as_bytes();
    assert!(
        name.len() <= u16::MAX as usize,
        "workload name too long to serialize ({} bytes, max {})",
        name.len(),
        u16::MAX
    );
    w.u16(name.len() as u16);
    w.out.extend_from_slice(name);
    w.u32(log.config.width);
    w.u32(log.config.height);
    w.u32(log.config.tile_size);
    w.u8(binning_tag(log.config.binning));
    w.u32(log.frames.len() as u32);
    for frame in &log.frames {
        let payload = encode_frame(frame);
        let packed = match compression {
            Compression::None => None,
            Compression::Lzss => Some(crate::lzss::compress(&payload)),
        };
        let (flags, stored) = match &packed {
            Some(packed) if packed.len() < payload.len() => (FRAME_LZSS, packed),
            _ => (FRAME_STORED, &payload),
        };
        w.u8(flags);
        w.u64(payload.len() as u64);
        w.u64(stored.len() as u64);
        w.u32(Crc32::digest(stored));
        w.out.extend_from_slice(stored);
    }
    w.out
}

/// Event tags, one per [`Event`] variant; they also index
/// [`EventTotals`].
const VERTEX_FETCH: u8 = 0;
const PARAM_WRITE: u8 = 1;
const PARAM_READ: u8 = 2;
const TEXEL: u8 = 3;
const COLOR_FLUSH: u8 = 4;

/// Frame flags: payload stored as-is.
const FRAME_STORED: u8 = 0;
/// Frame flags: payload LZSS-compressed ([`crate::lzss`]).
const FRAME_LZSS: u8 = 1;

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], RelogError> {
        // checked_add: a corrupt length field near usize::MAX must surface
        // as Truncated, not overflow the bounds arithmetic.
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(RelogError::Truncated { context })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self, context: &'static str) -> Result<u8, RelogError> {
        Ok(self.take(1, context)?[0])
    }
    fn u32(&mut self, context: &'static str) -> Result<u32, RelogError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("len 4"),
        ))
    }
    fn u64(&mut self, context: &'static str) -> Result<u64, RelogError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("len 8"),
        ))
    }
    fn byte_vec(&mut self, context: &'static str) -> Result<Vec<u8>, RelogError> {
        let n = self.u32(context)? as usize;
        Ok(self.take(n, context)?.to_vec())
    }
    fn u32s(&mut self, context: &'static str) -> Result<Vec<u32>, RelogError> {
        let n = self.u32(context)? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(self.u32(context)?);
        }
        Ok(out)
    }
    /// An access's address and byte count, whose range must not wrap past
    /// the end of the address space.
    fn extent(&mut self, context: &'static str) -> Result<(u64, u32), RelogError> {
        let addr = self.u64(context)?;
        let bytes = self.u32(context)?;
        if addr.checked_add(bytes as u64).is_none() {
            return Err(RelogError::BadExtent { context });
        }
        Ok((addr, bytes))
    }
    fn event(&mut self, totals: &mut EventTotals) -> Result<Event, RelogError> {
        let tag = self.u8("event tag")?;
        let (event, amount) = match tag {
            VERTEX_FETCH => {
                let (addr, bytes) = self.extent("vertex fetch")?;
                (Event::VertexFetch { addr, bytes }, bytes)
            }
            PARAM_WRITE => {
                let (addr, bytes) = self.extent("param write")?;
                (Event::ParamWrite { addr, bytes }, bytes)
            }
            PARAM_READ => {
                let (addr, bytes) = self.extent("param read")?;
                (Event::ParamRead { addr, bytes }, bytes)
            }
            TEXEL => {
                let unit = self.u8("texel event")?;
                let count = self.u32("texel event")?;
                let addr = self.u64("texel event")?;
                if unit >= TEXEL_UNITS {
                    return Err(RelogError::BadTexelUnit { unit });
                }
                if count == 0 {
                    return Err(RelogError::EmptyTexelRun);
                }
                (Event::Texel { unit, count, addr }, count)
            }
            COLOR_FLUSH => {
                let (addr, bytes) = self.extent("color flush")?;
                (Event::ColorFlush { addr, bytes }, bytes)
            }
            value => {
                return Err(RelogError::BadTag {
                    context: "event",
                    value,
                })
            }
        };
        totals.events[tag as usize] += 1;
        totals.amount[tag as usize] += u64::from(amount);
        Ok(event)
    }
    fn events(
        &mut self,
        context: &'static str,
        totals: &mut EventTotals,
    ) -> Result<Vec<Event>, RelogError> {
        let n = self.u32(context)? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(self.event(totals)?);
        }
        Ok(out)
    }
    /// The geometry counters the record stores;
    /// [`complete_geometry_stats`] derives the rest.
    fn geometry_stats(&mut self) -> Result<GeometryStats, RelogError> {
        let c = "geometry stats";
        Ok(GeometryStats {
            vs_instr_slots: self.u64(c)?,
            prims_from_clipping: self.u64(c)?,
            ..GeometryStats::default()
        })
    }
    /// The tile counters the record stores; [`complete_tile_stats`]
    /// derives the rest.
    fn tile_stats(&mut self) -> Result<TileStats, RelogError> {
        let c = "tile stats";
        Ok(TileStats {
            attr_interpolations: self.u64(c)?,
            early_z_killed: self.u64(c)?,
            fs_instr_slots: self.u64(c)?,
            depth_accesses: self.u64(c)?,
            ..TileStats::default()
        })
    }
    /// Frame record `frame`'s geometry, every overlapped tile of which
    /// must lie below `tile_count`.
    fn geo(&mut self, frame: u32, tile_count: u32) -> Result<FrameGeometry, RelogError> {
        let dc_count = self.u32("drawcall count")? as usize;
        let mut drawcalls = Vec::with_capacity(dc_count.min(1 << 16));
        for _ in 0..dc_count {
            let constants_bytes = self.byte_vec("constants bytes")?;
            let prim_count = self.u32("prim count")? as usize;
            let mut prims = Vec::with_capacity(prim_count.min(1 << 20));
            for _ in 0..prim_count {
                let param_bytes = self.byte_vec("param bytes")?;
                let overlapped_tiles = self.u32s("overlapped tiles")?;
                if let Some(&tile) = overlapped_tiles.iter().find(|&&t| t >= tile_count) {
                    return Err(RelogError::BadOverlappedTile {
                        frame,
                        tile,
                        tile_count,
                    });
                }
                prims.push(PrimGeometry {
                    param_bytes,
                    overlapped_tiles,
                });
            }
            drawcalls.push(DrawcallGeometry {
                constants_bytes,
                prims,
            });
        }
        Ok(FrameGeometry {
            drawcalls,
            stats: self.geometry_stats()?,
        })
    }
}

/// Instruction slots Stage A charges at most per shaded vertex or
/// fragment: a shader program's cost is a `u32`.
const MAX_SLOTS: u64 = u32::MAX as u64;
/// Interpolations per rasterized fragment at most: its depth and up to 255
/// varyings (a shader's varying count is a `u8`).
const MAX_INTERPOLATIONS: u64 = 256;
/// Depth accesses per rasterized fragment at most: a test and a write.
const MAX_DEPTH_ACCESSES: u64 = 2;
/// Triangles near-plane clipping adds to one input triangle at most: one
/// per clip plane, of two.
const MAX_CLIP_TRIANGLES: u64 = 2;

/// Per event kind, indexed by its tag: how many events a list holds and
/// the bytes (for texel runs, the fetches) they cover. The parser adds
/// each event as it reads it, so counting takes no pass of its own.
#[derive(Default)]
struct EventTotals {
    events: [u64; 5],
    amount: [u64; 5],
}

/// `Err(counter)` when `value` exceeds its `bound`.
fn within(counter: &'static str, value: u64, bound: u64) -> Result<(), &'static str> {
    if value <= bound {
        Ok(())
    } else {
        Err(counter)
    }
}

/// Completes a tile's counters from its record. `s` holds the four the
/// record stores; the totals `e` of the tile's events and its count of
/// `hashes` yield the rest as Stage A's rasterizer counts them. The
/// counters must then lie within the bounds the rasterizer sets on them
/// in a tile of at most `tile_area` pixels; `Err` names the one that
/// does not.
///
/// The bounds are what keeps Stage B's integer arithmetic in a `u64`.
/// Every decoded counter is at most a Stage A constant times a count the
/// record holds, or times the tile's area for fragments, so one recorded
/// event or hash adds at most 2^33 cycles to the sums of
/// `re_timing::pipeline` and [`crate::passes::Machine`]: a vertex fetch
/// 2^32 vertex-shader slots, a hash 2^32 fragment-shader slots over at
/// least four fragment processors (`re_timing::Caches::new` refuses
/// fewer), a primitive read `257 × tile_area + 4` (under 2^25 for tiles
/// up to 256×256). The memory terms add a configured latency per DRAM
/// request, as they always have, and `EnergyModel` sums `f64`s. So the
/// sums fit for any log of under 2^30 events and hashes.
fn complete_tile_stats(
    mut s: TileStats,
    e: &EventTotals,
    hashes: usize,
    tile_area: u64,
) -> Result<TileStats, &'static str> {
    s.prims_processed = e.events[PARAM_READ as usize];
    s.param_bytes_read = e.amount[PARAM_READ as usize];
    s.texel_fetches = e.amount[TEXEL as usize];
    s.color_bytes_flushed = e.amount[COLOR_FLUSH as usize];
    s.fragments_shaded = hashes as u64;
    s.blend_ops = s.fragments_shaded;
    s.pixels_flushed = s.color_bytes_flushed / 4;
    s.fragments_rasterized = s
        .fragments_shaded
        .checked_add(s.early_z_killed)
        .ok_or("fragments_rasterized")?;
    let rasterized = s.fragments_rasterized;
    within(
        "fragments_rasterized",
        rasterized,
        s.prims_processed.saturating_mul(tile_area),
    )?;
    within(
        "depth_accesses",
        s.depth_accesses,
        MAX_DEPTH_ACCESSES.saturating_mul(rasterized),
    )?;
    let interpolations = MAX_INTERPOLATIONS.saturating_mul(rasterized);
    within("attr_interpolations", s.attr_interpolations, interpolations)?;
    within(
        "fs_instr_slots",
        s.fs_instr_slots,
        MAX_SLOTS.saturating_mul(s.fragments_shaded),
    )?;
    within("pixels_flushed", s.pixels_flushed, tile_area)?;
    Ok(s)
}

/// Completes a frame's geometry counters from its record, as
/// [`complete_tile_stats`] does a tile's: `s` holds the two the record
/// stores, and the totals `e` of the frame's geometry events and its
/// recorded `drawcalls` yield the rest as Stage A's Geometry Pipeline
/// counts them. Every input triangle or clip-fan triangle is either
/// culled or binned.
fn complete_geometry_stats(
    mut s: GeometryStats,
    drawcalls: &[DrawcallGeometry],
    e: &EventTotals,
) -> Result<GeometryStats, &'static str> {
    s.vertices_fetched = e.events[VERTEX_FETCH as usize];
    s.vertex_bytes_fetched = e.amount[VERTEX_FETCH as usize];
    s.param_bytes_written = e.amount[PARAM_WRITE as usize];
    s.vertices_shaded = s.vertices_fetched;
    s.prims_in = s.vertices_fetched / 3;
    for prim in drawcalls.iter().flat_map(|dc| &dc.prims) {
        s.prims_binned += 1;
        s.prim_tile_pairs += prim.overlapped_tiles.len() as u64;
    }
    within(
        "vs_instr_slots",
        s.vs_instr_slots,
        MAX_SLOTS.saturating_mul(s.vertices_shaded),
    )?;
    let clipped = MAX_CLIP_TRIANGLES.saturating_mul(s.prims_in);
    within("prims_from_clipping", s.prims_from_clipping, clipped)?;
    within(
        "prims_binned",
        s.prims_binned,
        s.prims_in + s.prims_from_clipping,
    )?;
    s.prims_culled = s.prims_in + s.prims_from_clipping - s.prims_binned;
    Ok(s)
}

/// Decodes payload bytes (CRC already verified by the caller) of frame
/// record `frame`, which must hold `tile_count` tiles of at most
/// `tile_area` pixels each.
fn decode_frame(
    payload: &[u8],
    frame: u32,
    tile_count: u32,
    tile_area: u64,
) -> Result<FrameLog, RelogError> {
    let mut p = Parser {
        bytes: payload,
        pos: 0,
    };
    let re_unsafe = p.u8("re_unsafe flag")? != 0;
    let mut geo = p.geo(frame, tile_count)?;
    let mut totals = EventTotals::default();
    let geo_events = p.events("geometry events", &mut totals)?;
    let bad_counter = |tile| {
        move |counter| RelogError::BadCounter {
            frame,
            tile,
            counter,
        }
    };
    geo.stats =
        complete_geometry_stats(geo.stats, &geo.drawcalls, &totals).map_err(bad_counter(None))?;
    let found = p.u32("tile count")?;
    if found != tile_count {
        return Err(RelogError::BadTileCount {
            frame,
            expected: tile_count,
            found,
        });
    }
    let mut tiles = Vec::with_capacity((tile_count as usize).min(1 << 20));
    for tile in 0..tile_count {
        let mut totals = EventTotals::default();
        let events = p.events("tile events", &mut totals)?;
        let hashes = p.u32s("fragment hashes")?;
        let stats = complete_tile_stats(p.tile_stats()?, &totals, hashes.len(), tile_area)
            .map_err(bad_counter(Some(tile)))?;
        tiles.push(TileLog {
            events,
            hashes,
            stats,
            color_id: p.u32("color id")?,
            te_sig: p.u32("te signature")?,
        });
    }
    if p.pos != payload.len() {
        return Err(RelogError::Truncated {
            context: "frame payload (trailing bytes)",
        });
    }
    Ok(FrameLog {
        re_unsafe,
        geo,
        geo_events,
        tiles,
    })
}

/// The decoded fixed-size part of a `.relog` stream — enough to identify
/// the artifact without touching any frame record.
#[derive(Debug, Clone, PartialEq)]
pub struct RelogHeader {
    /// The [`log_fingerprint`] the writer recorded.
    pub fingerprint: u64,
    /// Workload name of the log.
    pub name: String,
    /// The render configuration of the log.
    pub config: GpuConfig,
    /// Number of frame records that follow.
    pub frame_count: u32,
}

/// Reports a source that ran dry as [`RelogError::Truncated`].
fn eof_as_truncated(e: io::Error, context: &'static str) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        RelogError::Truncated { context }.into()
    } else {
        e
    }
}

fn read_array<const N: usize, R: Read>(src: &mut R, context: &'static str) -> io::Result<[u8; N]> {
    let mut buf = [0; N];
    src.read_exact(&mut buf)
        .map_err(|e| eof_as_truncated(e, context))?;
    Ok(buf)
}

fn read_into<R: Read>(
    src: &mut R,
    buf: &mut Vec<u8>,
    n: usize,
    context: &'static str,
) -> io::Result<()> {
    // Grow in bounded steps: `n` comes from an untrusted length field, so a
    // corrupt value must fail as `Truncated` when the source runs dry, not
    // attempt a near-usize::MAX upfront allocation. `buf` is a reusable
    // scratch buffer — after the first few frames of a stream its capacity
    // stabilizes and reads stop allocating.
    const STEP: usize = 1 << 20;
    buf.clear();
    while buf.len() < n {
        let start = buf.len();
        buf.resize(start + (n - start).min(STEP), 0);
        src.read_exact(&mut buf[start..])
            .map_err(|e| eof_as_truncated(e, context))?;
    }
    Ok(())
}

/// Streaming `.relog` reader: decodes the header eagerly and then one
/// [`FrameLog`] per [`next_frame`](Self::next_frame) call, holding at most
/// one frame's payload in memory. Each frame record's CRC is checked as
/// the record is read, before its payload is decompressed or decoded.
///
/// The stored and decompressed payloads live in two reusable scratch
/// buffers, so steady-state frame iteration performs no per-frame payload
/// allocations — frames decode zero-copy out of the scratch.
#[derive(Debug)]
pub struct RelogReader<R> {
    src: R,
    header: RelogHeader,
    next: u32,
    /// Scratch: a frame's stored (possibly compressed) bytes.
    stored: Vec<u8>,
    /// Scratch: a compressed frame's decompressed payload.
    raw: Vec<u8>,
}

impl RelogReader<io::BufReader<std::fs::File>> {
    /// Opens `path` and reads its header.
    ///
    /// # Errors
    /// I/O errors; format errors as [`io::ErrorKind::InvalidData`]
    /// (wrapping the [`RelogError`]).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        RelogReader::new(io::BufReader::new(std::fs::File::open(path)?))
    }
}

impl<R: Read> RelogReader<R> {
    /// Wraps any byte source, reading and validating the header.
    ///
    /// # Errors
    /// I/O errors; format errors as [`io::ErrorKind::InvalidData`].
    pub fn new(mut src: R) -> io::Result<Self> {
        if &read_array::<8, _>(&mut src, "magic")? != MAGIC {
            return Err(RelogError::BadMagic.into());
        }
        // Fingerprint + name length, then the name and the fixed tail —
        // two reads because the name's length is only known after the
        // first one.
        let head: [u8; 10] = read_array(&mut src, "header")?;
        let name_len = u16::from_le_bytes([head[8], head[9]]) as usize;
        let mut bytes = head.to_vec();
        bytes.resize(head.len() + name_len + 4 + 4 + 4 + 1 + 4, 0);
        src.read_exact(&mut bytes[head.len()..])
            .map_err(|e| eof_as_truncated(e, "header"))?;
        let header = parse_header(&mut Parser {
            bytes: &bytes,
            pos: 0,
        })?;
        Ok(RelogReader {
            src,
            header,
            next: 0,
            stored: Vec::new(),
            raw: Vec::new(),
        })
    }

    /// The decoded header.
    pub fn header(&self) -> &RelogHeader {
        &self.header
    }

    /// The workload name.
    pub fn name(&self) -> &str {
        &self.header.name
    }

    /// The render configuration the log was recorded under.
    pub fn config(&self) -> GpuConfig {
        self.header.config
    }

    /// Reads one frame record's raw (CRC-verified, decompressed) payload
    /// into the scratch buffers and returns a view of it, or `None` past
    /// the last frame.
    fn next_payload(&mut self) -> io::Result<Option<&[u8]>> {
        if self.next == self.header.frame_count {
            return Ok(None);
        }
        let frame = self.next;
        let head: [u8; 1 + 8 + 8 + 4] = read_array(&mut self.src, "frame header")?;
        let flags = head[0];
        let raw_len = u64::from_le_bytes(head[1..9].try_into().expect("len 8"));
        let stored_len = u64::from_le_bytes(head[9..17].try_into().expect("len 8"));
        let crc = u32::from_le_bytes(head[17..21].try_into().expect("len 4"));
        read_into(
            &mut self.src,
            &mut self.stored,
            stored_len as usize,
            "frame payload",
        )?;
        // CRC first: the decompressor only ever sees integrity-checked
        // bytes, so any failure there is a format error, not bit rot.
        if Crc32::digest(&self.stored) != crc {
            return Err(RelogError::BadChecksum { frame }.into());
        }
        self.next += 1;
        match flags {
            FRAME_STORED => {
                if self.stored.len() as u64 != raw_len {
                    return Err(RelogError::BadCompression { frame }.into());
                }
                Ok(Some(&self.stored))
            }
            FRAME_LZSS => {
                crate::lzss::decompress_into(&self.stored, raw_len as usize, &mut self.raw)
                    .map_err(|_| RelogError::BadCompression { frame })?;
                Ok(Some(&self.raw))
            }
            value => Err(RelogError::BadTag {
                context: "frame compression flags",
                value,
            }
            .into()),
        }
    }

    /// Decodes the next frame, or `None` past the last one.
    ///
    /// # Errors
    /// I/O errors; checksum and format errors as
    /// [`io::ErrorKind::InvalidData`].
    pub fn next_frame(&mut self) -> io::Result<Option<FrameLog>> {
        let frame = self.next;
        // The header's configuration passed `parse_header`'s bounds, so
        // its tile count fits a `u32`.
        let config = self.header.config;
        let tile_count = config.tile_count();
        let tile_area = u64::from(config.tile_size).pow(2);
        match self.next_payload()? {
            None => Ok(None),
            Some(payload) => Ok(Some(decode_frame(payload, frame, tile_count, tile_area)?)),
        }
    }

    /// Decodes every remaining frame into a whole [`RenderLog`], one frame
    /// record at a time, so no buffer ever holds the whole stream.
    ///
    /// # Errors
    /// As [`next_frame`](Self::next_frame).
    pub fn into_log(mut self) -> io::Result<RenderLog> {
        let mut frames = Vec::new();
        while let Some(frame) = self.next_frame()? {
            frames.push(frame);
        }
        Ok(RenderLog {
            name: self.header.name,
            config: self.header.config,
            frames,
        })
    }
}

/// Parses the header fields (everything after the magic) out of a parser.
fn parse_header(p: &mut Parser<'_>) -> Result<RelogHeader, RelogError> {
    let fingerprint = p.u64("fingerprint")?;
    let name_len = p.take(2, "name length")?;
    let name_len = u16::from_le_bytes(name_len.try_into().expect("len 2")) as usize;
    let name_bytes = p.take(name_len, "workload name")?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| RelogError::BadString)?
        .to_owned();
    let config = GpuConfig {
        width: p.u32("config width")?,
        height: p.u32("config height")?,
        tile_size: p.u32("config tile size")?,
        binning: binning_from_tag(p.u8("binning mode")?)?,
    };
    if config.width == 0 || config.height == 0 || config.tile_size == 0 {
        return Err(RelogError::BadConfig);
    }
    let tiles = u64::from(config.tiles_x()) * u64::from(config.tiles_y());
    if tiles > u64::from(u32::MAX) {
        return Err(RelogError::BadConfig);
    }
    let frame_count = p.u32("frame count")?;
    Ok(RelogHeader {
        fingerprint,
        name,
        config,
        frame_count,
    })
}

/// Parses a complete in-memory `.relog` stream with the same reader as
/// [`RelogReader`].
///
/// # Errors
/// Any [`RelogError`]; trailing bytes after the last frame are rejected.
pub fn decode(bytes: &[u8]) -> Result<RenderLog, RelogError> {
    let mut rest = bytes;
    let log = RelogReader::new(&mut rest)
        .and_then(RelogReader::into_log)
        .map_err(|e| match e.into_inner().map(|e| e.downcast()) {
            Some(Ok(e)) => *e,
            // A byte slice only fails by running dry, which the reader
            // already reports as a `RelogError`.
            _ => RelogError::Truncated { context: "stream" },
        })?;
    if !rest.is_empty() {
        return Err(RelogError::Truncated {
            context: "stream (trailing bytes)",
        });
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::render_scene;
    use crate::sim::Scene;
    use crate::SimOptions;
    use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
    use re_math::{Mat4, Vec4};

    fn cfg() -> GpuConfig {
        GpuConfig {
            width: 64,
            height: 64,
            tile_size: 16,
            ..Default::default()
        }
    }

    struct Tri;
    impl Scene for Tri {
        fn frame(&mut self, i: usize) -> FrameDesc {
            let step = i as f32 * 0.04;
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
            frame.re_unsafe = i == 1;
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
    fn rendered_log_roundtrips_exactly() {
        let log = render_scene(&mut Tri, cfg(), 3);
        let bytes = encode(&log);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, log);
        // Canonical encoding: encode ∘ decode is byte-stable.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn streaming_reader_matches_full_decode() {
        let log = render_scene(&mut Tri, cfg(), 3);
        let bytes = encode(&log);
        let mut r = RelogReader::new(bytes.as_slice()).expect("header");
        assert_eq!(r.name(), "tri");
        assert_eq!(r.config(), cfg());
        assert_eq!(r.header().frame_count, 3);
        assert_eq!(
            r.header().fingerprint,
            log_fingerprint("tri", cfg(), 3),
            "writer stamps the canonical fingerprint"
        );
        let mut frames = Vec::new();
        while let Some(f) = r.next_frame().expect("frame") {
            frames.push(f);
        }
        assert_eq!(frames, log.frames);
        assert!(r.next_frame().expect("past end").is_none());
    }

    #[test]
    fn evaluating_a_decoded_log_is_bit_identical() {
        let log = render_scene(&mut Tri, cfg(), 4);
        let opts = SimOptions {
            gpu: cfg(),
            ..SimOptions::default()
        };
        let direct = crate::evaluate(&log, &opts);
        let decoded = decode(&encode(&log)).expect("decode");
        assert_eq!(crate::evaluate(&decoded, &opts), direct);
    }

    #[test]
    fn corrupt_payload_fails_its_frame_checksum() {
        let log = render_scene(&mut Tri, cfg(), 2);
        let mut bytes = encode(&log);
        // Flip a byte near the end (inside the last frame's payload).
        let n = bytes.len();
        bytes[n - 3] ^= 0xFF;
        assert_eq!(
            decode(&bytes),
            Err(RelogError::BadChecksum { frame: 1 }),
            "payload corruption must be caught by the frame CRC"
        );
    }

    #[test]
    fn truncation_and_bad_magic_are_rejected() {
        let log = render_scene(&mut Tri, cfg(), 2);
        let bytes = encode(&log);
        for cut in [1usize, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must error");
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode(&bad), Err(RelogError::BadMagic));
        // A future revision (different magic digits) is rejected, not
        // misparsed.
        let mut vnext = bytes.clone();
        vnext[7] = b'6';
        assert_eq!(decode(&vnext), Err(RelogError::BadMagic));
        // So are the retired revisions: an old cache file is a miss, not
        // a misparse.
        for old in [b'1', b'2', b'3', b'4'] {
            let mut vold = bytes.clone();
            vold[7] = old;
            assert_eq!(decode(&vold), Err(RelogError::BadMagic));
        }
        // Trailing garbage is an error, not silently ignored.
        let mut long = bytes;
        long.push(0);
        assert!(matches!(decode(&long), Err(RelogError::Truncated { .. })));
    }

    /// Offset of frame 0's record in a `Tri` log's stream.
    const FRAME0: usize = 8 + 8 + 2 + "tri".len() + 13 + 4;

    /// The error the streaming reader reports for `bytes`.
    fn stream_error(bytes: &[u8]) -> RelogError {
        let err = RelogReader::new(bytes)
            .and_then(RelogReader::into_log)
            .expect_err("stream must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        *err.into_inner()
            .expect("wrapped RelogError")
            .downcast::<RelogError>()
            .expect("a RelogError")
    }

    #[test]
    fn corrupt_length_fields_error_instead_of_panicking() {
        // A bit flip landing in a frame's raw_len or stored_len must
        // surface as a clean error (no giant allocation, no overflow
        // panic), the same one through the in-memory and the streaming
        // entry point, for a stored and for an LZSS frame record.
        let log = render_scene(&mut Tri, cfg(), 2);
        for compression in [Compression::None, Compression::Lzss] {
            let bytes = encode_with(&log, compression);
            let flags = match compression {
                Compression::None => FRAME_STORED,
                Compression::Lzss => FRAME_LZSS,
            };
            assert_eq!(bytes[FRAME0], flags, "frame 0 of {compression:?}");
            let raw_len = FRAME0 + 1..FRAME0 + 9;
            let stored_len = FRAME0 + 9..FRAME0 + 17;
            for (field, want) in [
                (raw_len, RelogError::BadCompression { frame: 0 }),
                (
                    stored_len,
                    RelogError::Truncated {
                        context: "frame payload",
                    },
                ),
            ] {
                let mut bad = bytes.clone();
                bad[field.clone()].copy_from_slice(&u64::MAX.to_le_bytes());
                assert_eq!(decode(&bad), Err(want.clone()), "{compression:?} {field:?}");
                assert_eq!(stream_error(&bad), want, "{compression:?} {field:?}");
            }
        }
    }

    #[test]
    fn fingerprint_sees_every_identity_input() {
        let base = log_fingerprint("tri", cfg(), 3);
        assert_eq!(base, log_fingerprint("tri", cfg(), 3));
        assert_ne!(base, log_fingerprint("ccs", cfg(), 3));
        assert_ne!(base, log_fingerprint("tri", cfg(), 4));
        for other in [
            GpuConfig {
                width: 128,
                ..cfg()
            },
            GpuConfig {
                height: 128,
                ..cfg()
            },
            GpuConfig {
                tile_size: 32,
                ..cfg()
            },
            GpuConfig {
                binning: BinningMode::ExactCoverage,
                ..cfg()
            },
        ] {
            assert_ne!(base, log_fingerprint("tri", other, 3));
        }
    }

    #[test]
    fn compressed_encoding_roundtrips_exactly() {
        let log = render_scene(&mut Tri, cfg(), 3);
        let plain = encode(&log);
        let packed = encode_with(&log, Compression::Lzss);
        assert_eq!(&packed[..8], MAGIC);
        assert_eq!(&plain[..8], MAGIC, "one framing for both settings");
        assert_eq!(plain[FRAME0], FRAME_STORED);
        assert!(
            packed.len() < plain.len(),
            "relog payloads are highly compressible ({} vs {} bytes)",
            packed.len(),
            plain.len()
        );
        assert_eq!(decode(&packed).expect("decode packed"), log);
        assert_eq!(encode_with(&log, Compression::None), plain);
    }

    #[test]
    fn compressed_stream_replays_identically_to_plain() {
        let log = render_scene(&mut Tri, cfg(), 4);
        let opts = SimOptions {
            gpu: cfg(),
            ..SimOptions::default()
        };
        let direct = crate::evaluate(&log, &opts);
        let packed = encode_with(&log, Compression::Lzss);
        let r = RelogReader::new(packed.as_slice()).expect("header");
        assert_eq!(r.header().frame_count, 4);
        assert_eq!(
            r.header().fingerprint,
            log_fingerprint("tri", cfg(), 4),
            "fingerprint is framing-independent"
        );
        assert_eq!(
            crate::evaluate(&decode(&packed).expect("decode"), &opts),
            direct
        );
        let v = RelogReader::new(packed.as_slice()).expect("header");
        assert_eq!(v.into_log().expect("compressed frames decode"), log);
    }

    #[test]
    fn corrupt_compressed_records_fail_cleanly() {
        let log = render_scene(&mut Tri, cfg(), 2);
        let bytes = encode_with(&log, Compression::Lzss);
        let header = FRAME0;

        // A flipped stored byte is caught by the CRC before the
        // decompressor ever runs.
        let mut torn = bytes.clone();
        let n = torn.len();
        torn[n - 3] ^= 0xFF;
        assert_eq!(torn[header], FRAME_LZSS, "frame 0 should be compressed");
        assert!(matches!(decode(&torn), Err(RelogError::BadChecksum { .. })));

        // An unknown flags byte is a tag error (CRC covers only the
        // payload, so the framing must defend itself).
        let mut flagged = bytes.clone();
        flagged[header] = 0x7F;
        assert_eq!(
            decode(&flagged),
            Err(RelogError::BadTag {
                context: "frame compression flags",
                value: 0x7F,
            })
        );

        // A stored record whose raw_len disagrees with its stored bytes
        // is BadCompression: CRC passes, framing lies.
        let mut lying = bytes.clone();
        lying[header] = FRAME_STORED;
        assert_eq!(decode(&lying), Err(RelogError::BadCompression { frame: 0 }));

        // Truncation anywhere errors on both decode paths.
        for cut in [header + 1, header + 10, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must error");
            let r = RelogReader::new(&bytes[..cut]).expect("header parses");
            assert!(r.into_log().is_err(), "stream cut at {cut} must error");
        }
    }

    #[test]
    fn file_roundtrip_and_verify() {
        let log = render_scene(&mut Tri, cfg(), 2);
        let path = std::env::temp_dir().join(format!("re_relog_test_{}.relog", std::process::id()));
        for compression in [Compression::None, Compression::Lzss] {
            std::fs::write(&path, encode_with(&log, compression)).expect("write");
            let r = RelogReader::open(&path).expect("open");
            assert_eq!(r.into_log().expect("decode"), log, "{compression:?}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
