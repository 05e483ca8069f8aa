//! The memory hierarchy in its two stages: the Table I caches turn every
//! recorded pipeline access ([`re_gpu::Event`]) into a DRAM-bound request
//! stream ([`Caches`]), and [`Dram`] services that stream.
//!
//! Routing (paper Fig. 4):
//!
//! * vertex fetches → Vertex Cache → L2 → DRAM (`Vertices`)
//! * texel fetches → per-processor Texture Cache → L2 → DRAM (`Texels`)
//! * Parameter Buffer reads → Tile Cache → DRAM (`PrimitiveReads`)
//! * Parameter Buffer writes → write-combined straight to DRAM
//!   (`PrimitiveWrites`; the stream has no reuse)
//! * Color Buffer flushes → write-combined straight to DRAM (`Colors`)
//!
//! No cache reads what DRAM returns, so the stages split cleanly at any
//! **epoch** — the tile or pipeline phase a driver samples to compute
//! stall cycles ([`MemorySystem::take_epoch`]). [`MemorySystem`] runs both
//! stages per epoch. A [`DramStream`] keeps a whole replay's requests,
//! epoch by epoch with each epoch's cache-side counters, so a consumer
//! that differs only in which requests reach DRAM (Transaction
//! Elimination drops color flushes) services it on a fresh [`Dram`]
//! without replaying the caches.

use re_gpu::Event;

use crate::cache::{Access, Cache};
use crate::config::TimingConfig;
use crate::dram::{Dram, DramRequest, DramStats, TrafficClass};

/// Memory activity since the previous [`MemorySystem::take_epoch`] call.
///
/// The caches count the misses and the parameter-write and color bytes;
/// [`Dram::service`] fills in the latency sums and busy cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemEpoch {
    /// Vertex-cache line misses.
    pub vertex_misses: u64,
    /// Texture-cache line misses (requests to L2).
    pub tex_misses: u64,
    /// L2 line misses on the texture/vertex path (requests to DRAM).
    pub l2_misses: u64,
    /// Tile-cache line misses (Parameter Buffer reads from DRAM).
    pub tile_misses: u64,
    /// Sum of DRAM latencies returned on the texel path.
    pub texel_latency_sum: u64,
    /// Sum of DRAM latencies returned on the Parameter-Buffer read path.
    pub prim_read_latency_sum: u64,
    /// Sum of DRAM latencies returned on the vertex path.
    pub vertex_latency_sum: u64,
    /// Bytes written to the Parameter Buffer.
    pub param_write_bytes: u64,
    /// Bytes of colors flushed.
    pub color_bytes: u64,
    /// DRAM channel-occupancy cycles generated in this epoch.
    pub dram_busy_cycles: u64,
}

/// The cache stage: the Vertex, Texture (one per fragment processor), Tile
/// and L2 caches, which turn accesses into DRAM-bound requests.
#[derive(Debug)]
pub struct Caches {
    config: TimingConfig,
    vertex_cache: Cache,
    texture_caches: Vec<Cache>,
    tile_cache: Cache,
    l2: Cache,
    epoch: MemEpoch,
}

impl Caches {
    /// Cold caches under a timing configuration.
    pub fn new(config: TimingConfig) -> Self {
        Caches {
            config,
            vertex_cache: Cache::new(config.vertex_cache),
            texture_caches: (0..config.num_fragment_processors)
                .map(|_| Cache::new(config.texture_cache))
                .collect(),
            tile_cache: Cache::new(config.tile_cache),
            l2: Cache::new(config.l2_cache),
            epoch: MemEpoch::default(),
        }
    }

    /// Cumulative accesses of each SRAM structure, as
    /// `(size_bytes, accesses)` pairs — input for the energy model.
    pub fn sram_accesses(&self) -> Vec<(u32, u64)> {
        let mut v = vec![
            (
                self.config.vertex_cache.size_bytes,
                self.vertex_cache.accesses(),
            ),
            (
                self.config.tile_cache.size_bytes,
                self.tile_cache.accesses(),
            ),
            (self.config.l2_cache.size_bytes, self.l2.accesses()),
        ];
        for t in &self.texture_caches {
            v.push((self.config.texture_cache.size_bytes, t.accesses()));
        }
        v
    }

    /// Returns and clears the cache-side epoch counters; the latency sums
    /// and busy cycles are zero.
    pub fn take_epoch(&mut self) -> MemEpoch {
        std::mem::take(&mut self.epoch)
    }

    fn line_bytes(&self) -> u64 {
        self.config.l2_cache.line_bytes as u64
    }

    /// Replays a recorded access stream, in order, through the caches and
    /// hands each request that reaches DRAM to `out`. `include_flush`
    /// gates the [`Event::ColorFlush`] events (Transaction Elimination);
    /// [`Event::FragShaded`] probes touch no memory.
    pub fn replay(
        &mut self,
        events: &[Event],
        include_flush: bool,
        out: &mut impl FnMut(DramRequest),
    ) {
        for e in events {
            match *e {
                Event::VertexFetch { addr, bytes } => self.vertex_fetch(addr, bytes, out),
                Event::ParamWrite { addr, bytes } => self.param_write(addr, bytes, out),
                Event::ParamRead { addr, bytes } => self.param_read(addr, bytes, out),
                Event::Texel { unit, addr } => self.texel_fetch(unit, addr, out),
                Event::ColorFlush { addr, bytes } => {
                    if include_flush {
                        self.color_flush(addr, bytes, out);
                    }
                }
                Event::FragShaded { .. } => {}
            }
        }
    }

    fn vertex_fetch(&mut self, addr: u64, bytes: u32, out: &mut impl FnMut(DramRequest)) {
        let lb = self.line_bytes();
        if bytes == 0 {
            return;
        }
        let first = addr / lb;
        let last = (addr + (bytes as u64 - 1)) / lb;
        for line in first..=last {
            if self.vertex_cache.access(line * lb) == Access::Miss {
                self.epoch.vertex_misses += 1;
                if self.l2.access(line * lb) == Access::Miss {
                    self.epoch.l2_misses += 1;
                    out(DramRequest {
                        class: TrafficClass::Vertices,
                        addr: line * lb,
                        bytes: lb as u32,
                    });
                }
            }
        }
    }

    fn param_write(&mut self, addr: u64, bytes: u32, out: &mut impl FnMut(DramRequest)) {
        self.epoch.param_write_bytes += bytes as u64;
        // The PLB rewrites the Parameter Buffer every frame; stale lines in
        // the Tile Cache must not survive (write-invalidate coherence).
        self.tile_cache.invalidate_range(addr, bytes);
        out(DramRequest {
            class: TrafficClass::PrimitiveWrites,
            addr,
            bytes,
        });
    }

    fn param_read(&mut self, addr: u64, bytes: u32, out: &mut impl FnMut(DramRequest)) {
        let lb = self.line_bytes();
        if bytes == 0 {
            return;
        }
        let first = addr / lb;
        let last = (addr + (bytes as u64 - 1)) / lb;
        for line in first..=last {
            if self.tile_cache.access(line * lb) == Access::Miss {
                self.epoch.tile_misses += 1;
                out(DramRequest {
                    class: TrafficClass::PrimitiveReads,
                    addr: line * lb,
                    bytes: lb as u32,
                });
            }
        }
    }

    fn texel_fetch(&mut self, unit: u8, addr: u64, out: &mut impl FnMut(DramRequest)) {
        let lb = self.line_bytes();
        let line_addr = addr / lb * lb;
        let unit = (unit as usize) % self.texture_caches.len();
        if self.texture_caches[unit].access(line_addr) == Access::Miss {
            self.epoch.tex_misses += 1;
            if self.l2.access(line_addr) == Access::Miss {
                self.epoch.l2_misses += 1;
                out(DramRequest {
                    class: TrafficClass::Texels,
                    addr: line_addr,
                    bytes: lb as u32,
                });
            }
        }
    }

    fn color_flush(&mut self, addr: u64, bytes: u32, out: &mut impl FnMut(DramRequest)) {
        self.epoch.color_bytes += bytes as u64;
        out(DramRequest {
            class: TrafficClass::Colors,
            addr,
            bytes,
        });
    }
}

/// Requests per block of a [`DramStream`] (64 KiB). A stream grows a
/// block at a time, never copying what it holds, and the blocks one
/// stream frees are the size the next one allocates.
const STREAM_BLOCK: usize = 4096;

/// A whole replay's DRAM-bound request stream, epoch by epoch, each epoch
/// with its cache-side counters ([`Caches::take_epoch`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStream {
    /// The requests in recording order, [`STREAM_BLOCK`] to a block (the
    /// last one partly filled).
    blocks: Vec<Vec<DramRequest>>,
    /// Each epoch's end (a request count) and its cache-side counters.
    epochs: Vec<(usize, MemEpoch)>,
}

impl DramStream {
    /// Replays `events` (color flushes included) through `caches` as one
    /// epoch, and appends its requests and cache-side counters.
    pub fn record(&mut self, caches: &mut Caches, events: &[Event]) {
        let blocks = &mut self.blocks;
        caches.replay(events, true, &mut |request| match blocks.last_mut() {
            Some(block) if block.len() < STREAM_BLOCK => block.push(request),
            _ => {
                let mut block = Vec::with_capacity(STREAM_BLOCK);
                block.push(request);
                blocks.push(block);
            }
        });
        self.epochs.push((self.len(), caches.take_epoch()));
    }

    /// Requests recorded so far.
    fn len(&self) -> usize {
        self.blocks.last().map_or(0, |last| {
            (self.blocks.len() - 1) * STREAM_BLOCK + last.len()
        })
    }

    /// Epochs recorded so far.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// Epoch `i`'s requests, in recording order, and its cache-side
    /// counters.
    ///
    /// # Panics
    /// Panics if fewer than `i + 1` epochs were recorded.
    pub fn epoch(&self, i: usize) -> (impl Iterator<Item = &DramRequest> + '_, MemEpoch) {
        let (end, epoch) = self.epochs[i];
        let start = if i == 0 { 0 } else { self.epochs[i - 1].0 };
        // The epoch's part of each block it spans.
        let first = start / STREAM_BLOCK;
        let blocks = &self.blocks[first..end.div_ceil(STREAM_BLOCK)];
        let requests = (first..).zip(blocks).flat_map(move |(b, block)| {
            let base = b * STREAM_BLOCK;
            &block[start.saturating_sub(base)..(end - base).min(block.len())]
        });
        (requests, epoch)
    }
}

/// The complete memory system: the cache stage and DRAM, run one epoch at
/// a time. DRAM services each request as the caches send it.
#[derive(Debug)]
pub struct MemorySystem {
    caches: Caches,
    dram: Dram,
    /// The current epoch's DRAM-side counters: its latency sums and busy
    /// cycles.
    serviced: MemEpoch,
}

impl MemorySystem {
    /// Builds the hierarchy from a timing configuration.
    pub fn new(config: TimingConfig) -> Self {
        MemorySystem {
            caches: Caches::new(config),
            dram: Dram::new(config),
            serviced: MemEpoch::default(),
        }
    }

    /// The timing configuration this system was built from.
    pub fn config(&self) -> &TimingConfig {
        &self.caches.config
    }

    /// Cumulative DRAM statistics (traffic classes, bursts, row behaviour).
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Cumulative accesses of each SRAM structure, as
    /// `(size_bytes, accesses)` pairs — input for the energy model.
    pub fn sram_accesses(&self) -> Vec<(u32, u64)> {
        self.caches.sram_accesses()
    }

    /// Returns and clears the epoch counters of both stages (call at
    /// tile/phase boundaries).
    pub fn take_epoch(&mut self) -> MemEpoch {
        let serviced = std::mem::take(&mut self.serviced);
        MemEpoch {
            texel_latency_sum: serviced.texel_latency_sum,
            prim_read_latency_sum: serviced.prim_read_latency_sum,
            vertex_latency_sum: serviced.vertex_latency_sum,
            dram_busy_cycles: serviced.dram_busy_cycles,
            ..self.caches.take_epoch()
        }
    }

    /// Replays a recorded access stream, in order, through the caches, and
    /// DRAM services the requests that reach it. `include_flush` gates the
    /// [`Event::ColorFlush`] events (Transaction Elimination);
    /// [`Event::FragShaded`] probes touch no memory.
    pub fn replay(&mut self, events: &[Event], include_flush: bool) {
        let (dram, serviced) = (&mut self.dram, &mut self.serviced);
        self.caches.replay(events, include_flush, &mut |request| {
            dram.service(std::iter::once(&request), serviced)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_gpu::access::{FB_BASE, PARAM_BASE, TEX_BASE, VB_BASE};

    fn sys() -> MemorySystem {
        MemorySystem::new(TimingConfig::mali450())
    }

    #[test]
    fn cold_texel_miss_reaches_dram() {
        let mut m = sys();
        m.replay(
            &[Event::Texel {
                unit: 0,
                addr: TEX_BASE,
            }],
            true,
        );
        let e = m.take_epoch();
        assert_eq!(e.tex_misses, 1);
        assert_eq!(e.l2_misses, 1);
        assert!(e.texel_latency_sum >= 50);
        assert_eq!(m.dram_stats().class_bytes(TrafficClass::Texels), 64);
    }

    #[test]
    fn warm_texel_hits_are_free_of_dram() {
        let mut m = sys();
        m.replay(
            &[Event::Texel {
                unit: 0,
                addr: TEX_BASE,
            }],
            true,
        );
        m.take_epoch();
        m.replay(
            &[Event::Texel {
                unit: 0,
                addr: TEX_BASE + 4,
            }],
            true,
        ); // same line
        let e = m.take_epoch();
        assert_eq!(e.tex_misses, 0);
        assert_eq!(e.dram_busy_cycles, 0);
    }

    #[test]
    fn texture_units_have_private_caches() {
        let mut m = sys();
        m.replay(
            &[Event::Texel {
                unit: 0,
                addr: TEX_BASE,
            }],
            true,
        );
        m.take_epoch();
        m.replay(
            &[Event::Texel {
                unit: 1,
                addr: TEX_BASE,
            }],
            true,
        ); // other unit: cold, but L2 hit
        let e = m.take_epoch();
        assert_eq!(e.tex_misses, 1);
        assert_eq!(e.l2_misses, 0, "L2 absorbs the second unit's miss");
    }

    #[test]
    fn param_write_is_pure_dram_traffic() {
        let mut m = sys();
        m.replay(
            &[Event::ParamWrite {
                addr: PARAM_BASE,
                bytes: 144,
            }],
            true,
        );
        let e = m.take_epoch();
        assert_eq!(e.param_write_bytes, 144);
        assert!(m.dram_stats().class_bytes(TrafficClass::PrimitiveWrites) >= 144);
        assert_eq!(e.tile_misses, 0);
    }

    #[test]
    fn param_read_goes_through_tile_cache() {
        let mut m = sys();
        m.replay(
            &[Event::ParamRead {
                addr: PARAM_BASE,
                bytes: 144,
            }],
            true,
        ); // 3 lines cold
        let e = m.take_epoch();
        assert_eq!(e.tile_misses, 3);
        m.replay(
            &[Event::ParamRead {
                addr: PARAM_BASE,
                bytes: 144,
            }],
            true,
        ); // warm
        let e = m.take_epoch();
        assert_eq!(e.tile_misses, 0);
    }

    #[test]
    fn param_write_invalidates_tile_cache() {
        // Next frame's PLB rewrite must not leave stale hits behind.
        let mut m = sys();
        m.replay(
            &[Event::ParamRead {
                addr: PARAM_BASE,
                bytes: 64,
            }],
            true,
        );
        m.take_epoch();
        m.replay(
            &[Event::ParamWrite {
                addr: PARAM_BASE,
                bytes: 64,
            }],
            true,
        );
        m.replay(
            &[Event::ParamRead {
                addr: PARAM_BASE,
                bytes: 64,
            }],
            true,
        );
        let e = m.take_epoch();
        assert_eq!(e.tile_misses, 1, "rewritten line must re-miss");
    }

    #[test]
    fn color_flush_counts_bytes_and_busy_cycles() {
        let mut m = sys();
        m.replay(
            &[Event::ColorFlush {
                addr: FB_BASE,
                bytes: 64,
            }],
            true,
        );
        let e = m.take_epoch();
        assert_eq!(e.color_bytes, 64);
        assert_eq!(e.dram_busy_cycles, 64 / 4 + 2);
        assert_eq!(m.dram_stats().class_bytes(TrafficClass::Colors), 64);
    }

    #[test]
    fn vertex_fetch_path() {
        let mut m = sys();
        m.replay(
            &[Event::VertexFetch {
                addr: VB_BASE,
                bytes: 96,
            }],
            true,
        );
        let e = m.take_epoch();
        assert!(e.vertex_misses >= 2, "96 B spans ≥2 lines");
        assert!(e.vertex_latency_sum > 0);
    }

    #[test]
    fn epoch_resets_after_take() {
        let mut m = sys();
        m.replay(
            &[Event::ColorFlush {
                addr: FB_BASE,
                bytes: 64,
            }],
            true,
        );
        let _ = m.take_epoch();
        let e = m.take_epoch();
        assert_eq!(e, MemEpoch::default());
    }

    /// One access of each kind, in the order Stage A records them.
    fn sample() -> Vec<Event> {
        vec![
            Event::VertexFetch {
                addr: VB_BASE,
                bytes: 48,
            },
            Event::ParamWrite {
                addr: PARAM_BASE,
                bytes: 96,
            },
            Event::ParamRead {
                addr: PARAM_BASE,
                bytes: 96,
            },
            Event::Texel {
                unit: 2,
                addr: TEX_BASE,
            },
            Event::ColorFlush {
                addr: FB_BASE,
                bytes: 64,
            },
            Event::FragShaded {
                tile: 3,
                drawcall: 1,
                hash: 0xABCD,
            },
        ]
    }

    #[test]
    fn replay_reproduces_traffic() {
        let mut m = sys();
        m.replay(&sample(), true);
        let e = m.take_epoch();
        assert_eq!(e.vertex_misses, 1, "48 B in one line");
        assert_eq!(e.tile_misses, 2, "96 B over two lines, written first");
        assert_eq!(e.tex_misses, 1);
        assert_eq!(e.l2_misses, 2, "vertex and texel paths");
        assert_eq!(e.param_write_bytes, 96);
        assert_eq!(e.color_bytes, 64);
        for class in TrafficClass::ALL {
            assert!(m.dram_stats().class_bytes(class) > 0, "{class:?}");
        }
    }

    #[test]
    fn replay_can_filter_flush() {
        let (mut with, mut without) = (sys(), sys());
        with.replay(&sample(), true);
        without.replay(&sample(), false);
        let (e_with, e_without) = (with.take_epoch(), without.take_epoch());
        assert_eq!(e_without.color_bytes, 0);
        assert_eq!(e_with.color_bytes, 64);
        let misses = |e: &MemEpoch| (e.vertex_misses, e.tex_misses, e.l2_misses, e.tile_misses);
        assert_eq!(
            misses(&e_with),
            misses(&e_without),
            "cache behaviour untouched"
        );
        for class in TrafficClass::ALL {
            let (w, wo) = (
                with.dram_stats().class_bytes(class),
                without.dram_stats().class_bytes(class),
            );
            match class {
                TrafficClass::Colors => assert_eq!((w, wo), (64, 0)),
                _ => assert_eq!(w, wo, "{class:?} untouched"),
            }
        }
    }

    /// `sample()` moved `offset` bytes up every address space.
    fn shifted(offset: u64) -> Vec<Event> {
        sample()
            .into_iter()
            .map(|e| match e {
                Event::VertexFetch { addr, bytes } => Event::VertexFetch {
                    addr: addr + offset,
                    bytes,
                },
                Event::ParamWrite { addr, bytes } => Event::ParamWrite {
                    addr: addr + offset,
                    bytes,
                },
                Event::ParamRead { addr, bytes } => Event::ParamRead {
                    addr: addr + offset,
                    bytes,
                },
                Event::Texel { unit, addr } => Event::Texel {
                    unit,
                    addr: addr + offset,
                },
                Event::ColorFlush { addr, bytes } => Event::ColorFlush {
                    addr: addr + offset,
                    bytes,
                },
                e => e,
            })
            .collect()
    }

    /// Epochs that miss cold, hit warm, and reopen DRAM rows.
    fn epochs() -> Vec<Vec<Event>> {
        [0, 64, 0, 4096, 64, 0].into_iter().map(shifted).collect()
    }

    #[test]
    fn a_recorded_stream_serviced_on_a_fresh_dram_reproduces_the_replay() {
        let (mut m, mut caches) = (sys(), Caches::new(TimingConfig::mali450()));
        let mut stream = DramStream::default();
        let mut replayed = Vec::new();
        for events in epochs() {
            m.replay(&events, true);
            replayed.push(m.take_epoch());
            stream.record(&mut caches, &events);
        }
        let mut dram = Dram::new(TimingConfig::mali450());
        let serviced: Vec<MemEpoch> = (0..stream.epoch_count())
            .map(|i| {
                let (requests, mut epoch) = stream.epoch(i);
                dram.service(requests, &mut epoch);
                epoch
            })
            .collect();
        assert_eq!(
            serviced, replayed,
            "every epoch's counters and latency sums"
        );
        assert_eq!(dram.stats(), m.dram_stats());
        assert_eq!(caches.sram_accesses(), m.sram_accesses());
    }

    #[test]
    fn epochs_that_span_stream_blocks_keep_their_requests_in_order() {
        // Cold texels on distinct lines: every event is one DRAM request,
        // so 3000-event epochs cross block boundaries, and an empty epoch
        // sits between them.
        let texels = |from: u64, n: u64| -> Vec<Event> {
            (from..from + n)
                .map(|line| Event::Texel {
                    unit: (line % 4) as u8,
                    addr: TEX_BASE + line * 64,
                })
                .collect()
        };
        let epochs = [
            texels(0, 3000),
            Vec::new(),
            texels(3000, 3000),
            texels(6000, 3000),
        ];
        let mut caches = Caches::new(TimingConfig::mali450());
        let mut stream = DramStream::default();
        for events in &epochs {
            stream.record(&mut caches, events);
        }
        let addrs: Vec<Vec<u64>> = (0..stream.epoch_count())
            .map(|i| stream.epoch(i).0.map(|r| r.addr).collect())
            .collect();
        let want: Vec<Vec<u64>> = epochs
            .iter()
            .map(|events| {
                events
                    .iter()
                    .map(|e| match *e {
                        Event::Texel { addr, .. } => addr,
                        _ => unreachable!(),
                    })
                    .collect()
            })
            .collect();
        assert!(want.iter().map(Vec::len).sum::<usize>() > 2 * STREAM_BLOCK);
        assert_eq!(addrs, want);
    }

    #[test]
    fn dropping_an_epochs_colors_equals_replaying_it_without_flush() {
        let mut m = sys();
        let mut stream = DramStream::default();
        let mut caches = Caches::new(TimingConfig::mali450());
        let mut replayed = Vec::new();
        for (i, events) in epochs().into_iter().enumerate() {
            m.replay(&events, i % 2 == 0);
            replayed.push(m.take_epoch());
            stream.record(&mut caches, &events);
        }
        let mut dram = Dram::new(TimingConfig::mali450());
        let serviced: Vec<MemEpoch> = (0..stream.epoch_count())
            .map(|i| {
                let (requests, mut epoch) = stream.epoch(i);
                if i % 2 == 0 {
                    dram.service(requests, &mut epoch);
                } else {
                    epoch.color_bytes = 0;
                    let kept = requests.filter(|r| r.class != TrafficClass::Colors);
                    dram.service(kept, &mut epoch);
                }
                epoch
            })
            .collect();
        assert_eq!(serviced, replayed);
        assert_eq!(dram.stats(), m.dram_stats());
    }

    #[test]
    fn sram_access_report_covers_all_structures() {
        let m = sys();
        // vertex + tile + L2 + 4 texture caches.
        assert_eq!(m.sram_accesses().len(), 7);
    }
}
