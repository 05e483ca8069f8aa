//! The memory hierarchy in its two stages: the Table I caches turn every
//! recorded pipeline access ([`re_gpu::Event`]) into a DRAM-bound request
//! stream ([`Caches`]), and [`Dram`] services that stream.
//!
//! Routing (paper Fig. 4):
//!
//! * vertex fetches → Vertex Cache → L2 → DRAM (`Vertices`)
//! * texel fetches → per-processor Texture Cache → L2 → DRAM (`Texels`);
//!   a run of `count` fetches within one line is probed once, and its
//!   other `count − 1` fetches are hits in that unit's Texture Cache
//! * Parameter Buffer reads → Tile Cache → DRAM (`PrimitiveReads`)
//! * Parameter Buffer writes → write-combined straight to DRAM
//!   (`PrimitiveWrites`; the stream has no reuse)
//! * Color Buffer flushes → write-combined straight to DRAM (`Colors`)
//!
//! No cache reads what DRAM returns, so the stages split cleanly at any
//! **epoch** — the tile or pipeline phase a driver samples to compute
//! stall cycles. [`Caches::replay`] turns one epoch's events into its
//! requests and cache-side counters, and [`Dram::service`] fills in the
//! rest. A [`DramStream`] keeps a whole replay's epochs, so a consumer
//! that differs only in which requests reach DRAM (Transaction
//! Elimination drops color flushes) services it on a fresh [`Dram`]
//! without replaying the caches.
//!
//! [`Dram`]: crate::dram::Dram
//! [`Dram::service`]: crate::dram::Dram::service

use re_gpu::access::{TEXEL_RUN_BYTES, TEXEL_UNITS};
use re_gpu::Event;

use crate::cache::{Access, Cache};
use crate::config::TimingConfig;
use crate::dram::{DramRequest, TrafficClass};

/// Memory activity of one epoch.
///
/// The caches count the misses and the parameter-write bytes
/// ([`Caches::replay`]); [`Dram::service`](crate::dram::Dram::service)
/// fills in the latency sums and busy cycles.
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
    /// The current epoch's requests, reused from epoch to epoch.
    requests: Vec<DramRequest>,
}

impl Caches {
    /// Cold caches under a timing configuration.
    ///
    /// # Panics
    /// Panics if `config` breaks the texel-run contract: a texel run
    /// replays as one probe plus `count − 1` hits, which is exact only if
    /// no other unit shares the run's texture cache (at least
    /// [`TEXEL_UNITS`] fragment processors) and no cache line boundary
    /// splits the run's line (texture and L2 lines a multiple of
    /// [`TEXEL_RUN_BYTES`]).
    pub fn new(config: TimingConfig) -> Self {
        assert!(
            config.num_fragment_processors >= u32::from(TEXEL_UNITS),
            "timing config has {} fragment processors; texel runs need one texture cache per \
             recorded unit ({TEXEL_UNITS})",
            config.num_fragment_processors
        );
        for (name, cache) in [("texture", config.texture_cache), ("L2", config.l2_cache)] {
            assert!(
                u64::from(cache.line_bytes).is_multiple_of(TEXEL_RUN_BYTES),
                "{name} cache line of {} bytes is not a multiple of the {TEXEL_RUN_BYTES}-byte \
                 texel run line",
                cache.line_bytes
            );
        }
        Caches {
            config,
            vertex_cache: Cache::new(config.vertex_cache),
            texture_caches: (0..config.num_fragment_processors)
                .map(|_| Cache::new(config.texture_cache))
                .collect(),
            tile_cache: Cache::new(config.tile_cache),
            l2: Cache::new(config.l2_cache),
            epoch: MemEpoch::default(),
            requests: Vec::new(),
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

    fn line_bytes(&self) -> u64 {
        self.config.l2_cache.line_bytes as u64
    }

    /// `log2` of the L2 line size: the granularity every cached path
    /// splits its accesses at.
    fn line_shift(&self) -> u32 {
        self.config.l2_cache.line_bytes.trailing_zeros()
    }

    /// Replays one epoch's recorded access stream, in order, through the
    /// caches. Returns the requests that reach DRAM, in order, and the
    /// epoch's cache-side counters (its latency sums and busy cycles are
    /// zero until DRAM services the requests).
    pub fn replay(&mut self, events: &[Event]) -> (&[DramRequest], MemEpoch) {
        self.requests.clear();
        for e in events {
            match *e {
                Event::VertexFetch { addr, bytes } => self.vertex_fetch(addr, bytes),
                Event::ParamWrite { addr, bytes } => self.param_write(addr, bytes),
                Event::ParamRead { addr, bytes } => self.param_read(addr, bytes),
                Event::Texel { unit, count, addr } => self.texel_fetch(unit, count, addr),
                Event::ColorFlush { addr, bytes } => self.color_flush(addr, bytes),
            }
        }
        (&self.requests, std::mem::take(&mut self.epoch))
    }

    fn vertex_fetch(&mut self, addr: u64, bytes: u32) {
        let (lb, shift) = (self.line_bytes(), self.line_shift());
        if bytes == 0 {
            return;
        }
        let first = addr >> shift;
        let last = (addr + (bytes as u64 - 1)) >> shift;
        for line in first..=last {
            let line_addr = line << shift;
            if self.vertex_cache.access(line_addr) == Access::Miss {
                self.epoch.vertex_misses += 1;
                if self.l2.access(line_addr) == Access::Miss {
                    self.epoch.l2_misses += 1;
                    self.requests.push(DramRequest {
                        class: TrafficClass::Vertices,
                        addr: line_addr,
                        bytes: lb as u32,
                    });
                }
            }
        }
    }

    fn param_write(&mut self, addr: u64, bytes: u32) {
        self.epoch.param_write_bytes += bytes as u64;
        // The PLB rewrites the Parameter Buffer every frame; stale lines in
        // the Tile Cache must not survive (write-invalidate coherence).
        self.tile_cache.invalidate_range(addr, bytes);
        self.requests.push(DramRequest {
            class: TrafficClass::PrimitiveWrites,
            addr,
            bytes,
        });
    }

    fn param_read(&mut self, addr: u64, bytes: u32) {
        let (lb, shift) = (self.line_bytes(), self.line_shift());
        if bytes == 0 {
            return;
        }
        let first = addr >> shift;
        let last = (addr + (bytes as u64 - 1)) >> shift;
        for line in first..=last {
            let line_addr = line << shift;
            if self.tile_cache.access(line_addr) == Access::Miss {
                self.epoch.tile_misses += 1;
                self.requests.push(DramRequest {
                    class: TrafficClass::PrimitiveReads,
                    addr: line_addr,
                    bytes: lb as u32,
                });
            }
        }
    }

    /// A run of `count` fetches within one line: the first probes the
    /// unit's Texture Cache (and L2 on a miss); the rest hit the line it
    /// left most recent, touching nothing else.
    fn texel_fetch(&mut self, unit: u8, count: u32, addr: u64) {
        let lb = self.line_bytes();
        let line_addr = addr & !(lb - 1);
        let cache = &mut self.texture_caches[usize::from(unit)];
        let first = cache.access(line_addr);
        cache.add_hits(u64::from(count.saturating_sub(1)));
        if first == Access::Miss {
            self.epoch.tex_misses += 1;
            if self.l2.access(line_addr) == Access::Miss {
                self.epoch.l2_misses += 1;
                self.requests.push(DramRequest {
                    class: TrafficClass::Texels,
                    addr: line_addr,
                    bytes: lb as u32,
                });
            }
        }
    }

    fn color_flush(&mut self, addr: u64, bytes: u32) {
        self.requests.push(DramRequest {
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
/// with its cache-side counters ([`Caches::replay`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStream {
    /// The requests in recording order, [`STREAM_BLOCK`] to a block (the
    /// last one partly filled).
    blocks: Vec<Vec<DramRequest>>,
    /// Each epoch's end (a request count) and its cache-side counters.
    epochs: Vec<(usize, MemEpoch)>,
}

impl DramStream {
    /// Appends one epoch: its requests, in order, and its cache-side
    /// counters.
    pub fn push(&mut self, mut requests: &[DramRequest], epoch: MemEpoch) {
        while !requests.is_empty() {
            if self.blocks.last().is_none_or(|b| b.len() == STREAM_BLOCK) {
                self.blocks.push(Vec::with_capacity(STREAM_BLOCK));
            }
            let block = self.blocks.last_mut().expect("a block with room");
            let n = requests.len().min(STREAM_BLOCK - block.len());
            block.extend_from_slice(&requests[..n]);
            requests = &requests[n..];
        }
        self.epochs.push((self.len(), epoch));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::Dram;
    use re_gpu::access::{FB_BASE, PARAM_BASE, TEX_BASE, VB_BASE};

    /// Cold caches and a DRAM that services each request as the caches
    /// emit it: every event is replayed alone and its requests serviced
    /// before the next event reaches the caches.
    struct Live {
        caches: Caches,
        dram: Dram,
    }

    impl Live {
        fn new() -> Self {
            Live {
                caches: Caches::new(TimingConfig::mali450()),
                dram: Dram::new(TimingConfig::mali450()),
            }
        }

        /// Replays `events` as one epoch and returns its counters.
        fn replay(&mut self, events: &[Event]) -> MemEpoch {
            let mut sum = MemEpoch::default();
            for e in events {
                let (requests, mut epoch) = self.caches.replay(std::slice::from_ref(e));
                self.dram.service(requests, &mut epoch);
                sum.vertex_misses += epoch.vertex_misses;
                sum.tex_misses += epoch.tex_misses;
                sum.l2_misses += epoch.l2_misses;
                sum.tile_misses += epoch.tile_misses;
                sum.texel_latency_sum += epoch.texel_latency_sum;
                sum.prim_read_latency_sum += epoch.prim_read_latency_sum;
                sum.vertex_latency_sum += epoch.vertex_latency_sum;
                sum.param_write_bytes += epoch.param_write_bytes;
                sum.dram_busy_cycles += epoch.dram_busy_cycles;
            }
            sum
        }

        fn dram_stats(&self) -> &crate::dram::DramStats {
            self.dram.stats()
        }
    }

    /// Bytes of the `Colors` requests cold caches send to DRAM replaying
    /// `events` as one epoch.
    fn color_request_bytes(events: &[Event]) -> u64 {
        let mut caches = Caches::new(TimingConfig::mali450());
        let (requests, _) = caches.replay(events);
        requests
            .iter()
            .filter(|r| r.class == TrafficClass::Colors)
            .map(|r| u64::from(r.bytes))
            .sum()
    }

    fn texel(unit: u8, addr: u64) -> Event {
        Event::Texel {
            unit,
            count: 1,
            addr,
        }
    }

    #[test]
    fn cold_texel_miss_reaches_dram() {
        let mut m = Live::new();
        let e = m.replay(&[texel(0, TEX_BASE)]);
        assert_eq!(e.tex_misses, 1);
        assert_eq!(e.l2_misses, 1);
        assert!(e.texel_latency_sum >= 50);
        assert_eq!(m.dram_stats().class_bytes(TrafficClass::Texels), 64);
    }

    #[test]
    fn warm_texel_hits_are_free_of_dram() {
        let mut m = Live::new();
        m.replay(&[texel(0, TEX_BASE)]);
        let e = m.replay(&[texel(0, TEX_BASE + 4)]); // same line
        assert_eq!(e.tex_misses, 0);
        assert_eq!(e.dram_busy_cycles, 0);
    }

    #[test]
    fn texture_units_have_private_caches() {
        let mut m = Live::new();
        m.replay(&[texel(0, TEX_BASE)]);
        // other unit: cold, but L2 hit
        let e = m.replay(&[texel(1, TEX_BASE)]);
        assert_eq!(e.tex_misses, 1);
        assert_eq!(e.l2_misses, 0, "L2 absorbs the second unit's miss");
    }

    #[test]
    fn param_write_is_pure_dram_traffic() {
        let mut m = Live::new();
        let e = m.replay(&[Event::ParamWrite {
            addr: PARAM_BASE,
            bytes: 144,
        }]);
        assert_eq!(e.param_write_bytes, 144);
        assert!(m.dram_stats().class_bytes(TrafficClass::PrimitiveWrites) >= 144);
        assert_eq!(e.tile_misses, 0);
    }

    #[test]
    fn param_read_goes_through_tile_cache() {
        let mut m = Live::new();
        let read = [Event::ParamRead {
            addr: PARAM_BASE,
            bytes: 144,
        }];
        let e = m.replay(&read); // 3 lines cold
        assert_eq!(e.tile_misses, 3);
        let e = m.replay(&read); // warm
        assert_eq!(e.tile_misses, 0);
    }

    #[test]
    fn param_write_invalidates_tile_cache() {
        // Next frame's PLB rewrite must not leave stale hits behind.
        let mut m = Live::new();
        m.replay(&[Event::ParamRead {
            addr: PARAM_BASE,
            bytes: 64,
        }]);
        let e = m.replay(&[
            Event::ParamWrite {
                addr: PARAM_BASE,
                bytes: 64,
            },
            Event::ParamRead {
                addr: PARAM_BASE,
                bytes: 64,
            },
        ]);
        assert_eq!(e.tile_misses, 1, "rewritten line must re-miss");
    }

    #[test]
    fn color_flush_counts_bytes_and_busy_cycles() {
        let mut m = Live::new();
        let flush = [Event::ColorFlush {
            addr: FB_BASE,
            bytes: 64,
        }];
        let e = m.replay(&flush);
        assert_eq!(color_request_bytes(&flush), 64);
        assert_eq!(e.dram_busy_cycles, 64 / 4 + 2);
        assert_eq!(m.dram_stats().class_bytes(TrafficClass::Colors), 64);
    }

    #[test]
    fn vertex_fetch_path() {
        let mut m = Live::new();
        let e = m.replay(&[Event::VertexFetch {
            addr: VB_BASE,
            bytes: 96,
        }]);
        assert!(e.vertex_misses >= 2, "96 B spans ≥2 lines");
        assert!(e.vertex_latency_sum > 0);
    }

    #[test]
    fn epoch_resets_after_replay() {
        let mut caches = Caches::new(TimingConfig::mali450());
        caches.replay(&[Event::ColorFlush {
            addr: FB_BASE,
            bytes: 64,
        }]);
        let (requests, epoch) = caches.replay(&[]);
        assert!(requests.is_empty());
        assert_eq!(epoch, MemEpoch::default());
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
            texel(2, TEX_BASE),
            Event::ColorFlush {
                addr: FB_BASE,
                bytes: 64,
            },
        ]
    }

    /// `events` with its Color Buffer flushes removed.
    fn without_flushes(events: &[Event]) -> Vec<Event> {
        events
            .iter()
            .filter(|e| !matches!(e, Event::ColorFlush { .. }))
            .copied()
            .collect()
    }

    #[test]
    fn replay_reproduces_traffic() {
        let mut m = Live::new();
        let e = m.replay(&sample());
        assert_eq!(e.vertex_misses, 1, "48 B in one line");
        assert_eq!(e.tile_misses, 2, "96 B over two lines, written first");
        assert_eq!(e.tex_misses, 1);
        assert_eq!(e.l2_misses, 2, "vertex and texel paths");
        assert_eq!(e.param_write_bytes, 96);
        assert_eq!(color_request_bytes(&sample()), 64);
        for class in TrafficClass::ALL {
            assert!(m.dram_stats().class_bytes(class) > 0, "{class:?}");
        }
    }

    #[test]
    fn flushes_touch_no_cache() {
        let (mut with, mut without) = (Live::new(), Live::new());
        let e_with = with.replay(&sample());
        let e_without = without.replay(&without_flushes(&sample()));
        assert_eq!(color_request_bytes(&without_flushes(&sample())), 0);
        assert_eq!(color_request_bytes(&sample()), 64);
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
                Event::Texel { unit, count, addr } => Event::Texel {
                    unit,
                    count,
                    addr: addr + offset,
                },
                Event::ColorFlush { addr, bytes } => Event::ColorFlush {
                    addr: addr + offset,
                    bytes,
                },
            })
            .collect()
    }

    /// Epochs that miss cold, hit warm, and reopen DRAM rows.
    fn epochs() -> Vec<Vec<Event>> {
        [0, 64, 0, 4096, 64, 0].into_iter().map(shifted).collect()
    }

    /// Replays `events` through `caches` as one epoch and appends it to
    /// `stream`.
    fn record(stream: &mut DramStream, caches: &mut Caches, events: &[Event]) {
        let (requests, epoch) = caches.replay(events);
        stream.push(requests, epoch);
    }

    #[test]
    fn a_recorded_stream_serviced_on_a_fresh_dram_reproduces_the_replay() {
        let (mut m, mut caches) = (Live::new(), Caches::new(TimingConfig::mali450()));
        let mut stream = DramStream::default();
        let mut replayed = Vec::new();
        for events in epochs() {
            replayed.push(m.replay(&events));
            record(&mut stream, &mut caches, &events);
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
        assert_eq!(caches.sram_accesses(), m.caches.sram_accesses());
    }

    #[test]
    fn epochs_that_span_stream_blocks_keep_their_requests_in_order() {
        // Cold texels on distinct lines: every event is one DRAM request,
        // so 3000-event epochs cross block boundaries, and an empty epoch
        // sits between them.
        let texels = |from: u64, n: u64| -> Vec<Event> {
            (from..from + n)
                .map(|line| texel((line % 4) as u8, TEX_BASE + line * 64))
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
            record(&mut stream, &mut caches, events);
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
        let mut m = Live::new();
        let mut stream = DramStream::default();
        let mut caches = Caches::new(TimingConfig::mali450());
        let mut replayed = Vec::new();
        for (i, events) in epochs().into_iter().enumerate() {
            replayed.push(if i % 2 == 0 {
                m.replay(&events)
            } else {
                m.replay(&without_flushes(&events))
            });
            record(&mut stream, &mut caches, &events);
        }
        let mut dram = Dram::new(TimingConfig::mali450());
        let serviced: Vec<MemEpoch> = (0..stream.epoch_count())
            .map(|i| {
                let (requests, mut epoch) = stream.epoch(i);
                if i % 2 == 0 {
                    dram.service(requests, &mut epoch);
                } else {
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
        let caches = Caches::new(TimingConfig::mali450());
        // vertex + tile + L2 + 4 texture caches.
        assert_eq!(caches.sram_accesses().len(), 7);
    }
}
