//! Texel runs are an exact reduction of the access stream.
//!
//! Stage A folds a texel fetch into the same unit's previous fetch in the
//! tile when both hit one 64-byte line (`re_gpu::raster::TexelRuns`), and
//! the caches probe a run once and count its other fetches as hits. For
//! random access streams, replaying every fetch as its own event and
//! replaying the folded stream must give identical per-epoch counters,
//! DRAM statistics and SRAM access counts, at every L2 capacity.

use proptest::prelude::*;
use re_gpu::access::{FB_BASE, PARAM_BASE, TEX_BASE, VB_BASE};
use re_gpu::raster::TexelRuns;
use re_gpu::Event;
use re_timing::dram::DramStats;
use re_timing::{MemEpoch, MemorySystem, TimingConfig};

/// Deterministic value stream (splitmix64).
struct Stream(u64);

impl Stream {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.u64() % n.max(1)
    }
}

/// One recorded access before folding: a single texel fetch, or any other
/// event.
#[derive(Debug, Clone, Copy)]
enum Access {
    Texel { unit: u8, addr: u64 },
    Other(Event),
}

/// An epoch (a tile, or a frame's geometry) of random accesses. Texels
/// mostly stay near the unit's last fetch, so runs form, and sometimes
/// jump across a region larger than a texture cache, so lines are
/// evicted between runs. The other kinds share L2 with the texels.
fn epoch(s: &mut Stream, len: u64, tex_span: u64) -> Vec<Access> {
    let mut last = [TEX_BASE; 4];
    (0..s.below(len + 1))
        .map(|_| match s.below(8) {
            0 => Access::Other(Event::VertexFetch {
                addr: VB_BASE + s.below(1 << 16),
                bytes: 1 + s.below(128) as u32,
            }),
            1 => Access::Other(Event::ParamWrite {
                addr: PARAM_BASE + s.below(1 << 14),
                bytes: 1 + s.below(160) as u32,
            }),
            2 => Access::Other(Event::ParamRead {
                addr: PARAM_BASE + s.below(1 << 14),
                bytes: 1 + s.below(160) as u32,
            }),
            3 => Access::Other(Event::ColorFlush {
                addr: FB_BASE + s.below(1 << 16),
                bytes: 64,
            }),
            _ => {
                let unit = s.below(4) as u8;
                let addr = if s.below(4) == 0 {
                    TEX_BASE + s.below(tex_span)
                } else {
                    last[unit as usize] + s.below(96)
                };
                last[unit as usize] = addr & !3;
                Access::Texel { unit, addr }
            }
        })
        .collect()
}

/// Every fetch its own event.
fn expanded(accesses: &[Access]) -> Vec<Event> {
    accesses
        .iter()
        .map(|a| match *a {
            Access::Texel { unit, addr } => Event::Texel {
                unit,
                count: 1,
                addr,
            },
            Access::Other(e) => e,
        })
        .collect()
}

/// Fetches folded into runs, the way Stage A records a tile.
fn folded(accesses: &[Access]) -> Vec<Event> {
    let mut runs = TexelRuns::default();
    let mut events = Vec::new();
    for a in accesses {
        match *a {
            Access::Texel { unit, addr } => runs.fetch(&mut events, unit, addr),
            Access::Other(e) => events.push(e),
        }
    }
    events
}

/// What a replay of `epochs` reports: each epoch's counters, the DRAM
/// statistics and the SRAM access counts.
fn replay(
    timing: TimingConfig,
    epochs: &[Vec<Event>],
) -> (Vec<MemEpoch>, DramStats, Vec<(u32, u64)>) {
    let mut m = MemorySystem::new(timing);
    let per_epoch = epochs
        .iter()
        .map(|events| {
            m.replay(events, true);
            m.take_epoch()
        })
        .collect();
    (per_epoch, *m.dram_stats(), m.sram_accesses())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn folded_and_expanded_streams_replay_identically(
        seed in any::<u64>(),
        epochs in 1u64..12,
        len in 1u64..400,
    ) {
        let mut s = Stream(seed);
        let tex_span = [1 << 12, 1 << 16, 1 << 20][s.below(3) as usize];
        let accesses: Vec<Vec<Access>> =
            (0..epochs).map(|_| epoch(&mut s, len, tex_span)).collect();
        let expanded: Vec<Vec<Event>> = accesses.iter().map(|a| expanded(a)).collect();
        let folded: Vec<Vec<Event>> = accesses.iter().map(|a| folded(a)).collect();
        for l2_kb in [64u32, 256] {
            let mut timing = TimingConfig::mali450();
            timing.l2_cache.size_bytes = l2_kb << 10;
            prop_assert_eq!(replay(timing, &folded), replay(timing, &expanded), "L2 {} KiB", l2_kb);
        }
    }
}

#[test]
fn a_run_probes_once_and_counts_its_repeats_as_hits() {
    let accesses: Vec<Access> = (0..16)
        .map(|i| Access::Texel {
            unit: 2,
            addr: TEX_BASE + 4 * i,
        })
        .collect();
    let events = folded(&accesses);
    assert_eq!(
        events,
        [Event::Texel {
            unit: 2,
            count: 16,
            addr: TEX_BASE
        }]
    );
    let (epochs, _, sram) = replay(TimingConfig::mali450(), &[events]);
    assert_eq!(epochs[0].tex_misses, 1);
    // vertex, tile, L2, then texture caches 0..4: unit 2 saw 16 accesses,
    // L2 the one miss.
    assert_eq!(sram[2].1, 1);
    assert_eq!(sram[3 + 2].1, 16);
}
