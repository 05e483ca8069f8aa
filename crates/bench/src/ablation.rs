//! Ablation studies for the design choices DESIGN.md calls out: hash
//! function quality, OT-queue depth, Compute-unit subblock width, tile
//! size, and single vs double buffering.
//!
//! The configuration-space studies (tile size, binning, buffering) are
//! expressed as `re-sweep` experiment grids and fan out across the worker
//! pool; only the studies that probe hardware internals directly (hash
//! quality, OT depth, subblock width) still drive the units by hand.

use std::collections::HashMap;

use re_core::FrameGeometry;
use re_crc::hashalt::all_hashers;
use re_gpu::{Gpu, GpuConfig};
use re_sweep::{axis, CellOutcome, ExperimentGrid, SweepOptions};

/// Runs `grid` in-memory on all hardware workers, quietly.
fn sweep(grid: &ExperimentGrid) -> Vec<CellOutcome> {
    re_sweep::run_grid(
        grid,
        &SweepOptions {
            quiet: true,
            ..SweepOptions::default()
        },
    )
    .expect("in-memory ablation sweep cannot hit store I/O")
    .outcomes
}

/// Quarter-resolution base grid shared by the ablation studies.
fn ablation_grid(scenes: &[&str], frames: usize) -> ExperimentGrid {
    let mut g = ExperimentGrid::default().with_scenes(scenes);
    g.frames = frames;
    g.width = 400;
    g.height = 256;
    g
}

fn skipped_pct(o: &CellOutcome) -> f64 {
    let r = &o.report.re;
    100.0 * r.tiles_skipped as f64 / (r.tiles_skipped + r.tiles_rendered) as f64
}

fn hdr(title: &str) {
    println!();
    println!("----------------------------------------------------------------");
    println!("{title}");
    println!("----------------------------------------------------------------");
}

/// Captures the per-tile input streams (Fig. 6 layout) of `frames` frames
/// of one benchmark, as lists of blocks.
fn capture_tile_streams(alias: &str, frames: usize, cfg: GpuConfig) -> Vec<Vec<Vec<u8>>> {
    let mut bench = re_workloads::by_alias(alias).expect("known alias");
    let mut gpu = Gpu::new(cfg);
    bench.scene.init(gpu.textures_mut());
    let mut streams = Vec::new();
    for f in 0..frames {
        let frame = bench.scene.frame(f);
        let geo = FrameGeometry::record(&gpu.run_geometry(&frame, &mut Vec::new()));
        let tc = cfg.tile_count() as usize;
        let mut per_tile: Vec<Vec<Vec<u8>>> = vec![Vec::new(); tc];
        for dc in &geo.drawcalls {
            let mut touched = vec![false; tc];
            for prim in &dc.prims {
                for &t in &prim.overlapped_tiles {
                    let t = t as usize;
                    if !touched[t] {
                        touched[t] = true;
                        per_tile[t].push(dc.constants_bytes.clone());
                    }
                    per_tile[t].push(prim.param_bytes.clone());
                }
            }
        }
        streams.extend(per_tile);
    }
    streams
}

/// 128-bit content fingerprint used to distinguish genuinely different
/// streams when counting digest collisions (two independent FNV-64 chains).
fn fingerprint(blocks: &[Vec<u8>]) -> u128 {
    let mut a = 0xcbf2_9ce4_8422_2325u64;
    let mut b = 0x9e37_79b9_7f4a_7c15u64;
    for blk in blocks {
        for &byte in blk {
            a = (a ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
            b = (b ^ byte as u64)
                .wrapping_mul(0xff51_afd7_ed55_8ccd)
                .rotate_left(17);
        }
        a = a.wrapping_add(0x517c_c1b7_2722_0a95); // block boundary
        b ^= blk.len() as u64;
    }
    ((a as u128) << 64) | b as u128
}

/// Hash-quality study (§III-B / §V): collision counts per scheme on real
/// tile-input streams.
pub fn hashes(frames: usize, cfg: GpuConfig) {
    hdr("Ablation: signature function quality (collisions on tile-input streams)");
    let mut streams = Vec::new();
    for alias in ["ccs", "mst", "tib"] {
        streams.extend(capture_tile_streams(alias, frames, cfg));
    }
    // Drop empty streams (tiles with no geometry hash to the same value by
    // definition and are legitimately identical).
    streams.retain(|s| !s.is_empty());
    println!(
        "streams: {} (non-empty tile inputs from ccs, mst, tib)",
        streams.len()
    );
    println!("{:<10} {:>14} {:>12}", "scheme", "distinct", "collisions");
    for hasher in all_hashers().iter_mut() {
        let mut seen: HashMap<u32, Vec<u128>> = HashMap::new();
        let mut collisions = 0u64;
        for s in &streams {
            hasher.reset();
            for b in s {
                hasher.absorb(b);
            }
            let d = hasher.digest();
            let fp = fingerprint(s);
            let entry = seen.entry(d).or_default();
            if !entry.contains(&fp) {
                if !entry.is_empty() {
                    collisions += 1;
                }
                entry.push(fp);
            }
        }
        println!(
            "{:<10} {:>14} {:>12}",
            hasher.name(),
            seen.len(),
            collisions
        );
    }
    println!("(paper: CRC32 outperforms XOR-based schemes; zero CRC collisions observed)");
}

/// OT-queue depth study: geometry stall cycles vs queue depth.
pub fn ot_depth(frames: usize, cfg: GpuConfig) {
    hdr("Ablation: OT queue depth vs geometry stalls (ccs)");
    let mut bench = re_workloads::by_alias("ccs").expect("ccs exists");
    let mut gpu = Gpu::new(cfg);
    bench.scene.init(gpu.textures_mut());
    let geos: Vec<_> = (0..frames)
        .map(|f| {
            let frame = bench.scene.frame(f);
            FrameGeometry::record(&gpu.run_geometry(&frame, &mut Vec::new()))
        })
        .collect();
    println!(
        "{:>6} {:>14} {:>18}",
        "depth", "stall cycles", "max occupancy"
    );
    for depth in [2usize, 4, 8, 16, 32, 64] {
        let mut su = re_core::SignatureUnit::new(depth);
        let mut stalls = 0u64;
        let mut occ = 0u32;
        for g in &geos {
            let out = su.process_frame(g, cfg.tile_count());
            stalls += out.stats.stall_cycles;
            occ = occ.max(out.stats.max_queue_occupancy);
        }
        println!("{:>6} {:>14} {:>18}", depth, stalls, occ);
    }
    println!("(paper uses 16 entries; overflow stalls average 0.64% of geometry)");
}

/// Compute-unit subblock width study (§III-G): *measured* signing cycles
/// (running the hardware-unit model over the captured blocks) vs LUT
/// storage.
pub fn subblock(frames: usize, cfg: GpuConfig) {
    use re_crc::units::ComputeCrcUnit;
    hdr("Ablation: Compute CRC subblock width (measured cycles vs LUT storage)");
    let streams = capture_tile_streams("ccs", frames, cfg);
    println!(
        "{:>9} {:>16} {:>14}",
        "width(B)", "signing cycles", "LUT storage"
    );
    for width in [4usize, 8, 16, 32] {
        let mut unit = ComputeCrcUnit::with_width(width);
        for s in &streams {
            for b in s {
                unit.sign_block(b);
            }
        }
        // The Accumulate unit carries one more Shift subunit (4 KB).
        let storage_kb = (unit.storage_bytes() + 4 * 1024) / 1024;
        println!("{:>9} {:>16} {:>13}K", width, unit.cycles(), storage_kb);
    }
    println!("(paper picks 8 B: 8 cycles per average constants block, 18 per primitive)");
}

/// Tile-size study: redundancy detected and RE speedup vs tile edge.
pub fn tile_size(frames: usize) {
    hdr("Ablation: tile size vs detected redundancy and speedup (ccs, ter)");
    println!(
        "{:<6} {:>6} {:>12} {:>10}",
        "bench", "tile", "skipped(%)", "speedup"
    );
    let grid = ablation_grid(&["ccs", "ter"], frames).with_axis(axis::TILE_SIZE, vec![8, 16, 32]);
    for o in sweep(&grid) {
        println!(
            "{:<6} {:>6} {:>12.1} {:>9.2}x",
            o.cell.scene(),
            o.cell.point.tile_size(),
            skipped_pct(&o),
            o.report.baseline.total_cycles() as f64 / o.report.re.total_cycles() as f64
        );
    }
    println!("(smaller tiles isolate motion better but multiply signature work)");
}

/// Binning-mode study: bounding-box vs exact-coverage binning — pairs,
/// Parameter Buffer traffic and detected redundancy.
pub fn binning(frames: usize) {
    hdr("Ablation: bounding-box vs exact-coverage binning");
    println!(
        "{:<6} {:<12} {:>12} {:>14} {:>12}",
        "bench", "mode", "pairs", "param bytes", "skipped(%)"
    );
    let grid = ablation_grid(&["ccs", "mst"], frames).with_parsed(axis::BINNING, "bbox,exact");
    for o in sweep(&grid) {
        println!(
            "{:<6} {:<12} {:>12} {:>14} {:>12.1}",
            o.cell.scene(),
            re_sweep::binning_name(o.cell.point.binning()),
            o.report.su_stats.ot_pushes,
            o.report
                .baseline
                .dram
                .class_bytes(re_timing::TrafficClass::PrimitiveWrites),
            skipped_pct(&o),
        );
    }
    println!("(exact binning trims bbox-only pairs; redundancy detection is unaffected)");
}

/// Buffering study: compare distance 1 (single-buffered) vs 2 (double).
pub fn buffering(frames: usize) {
    hdr("Ablation: single vs double buffering (compare distance 1 vs 2)");
    println!("{:<6} {:>10} {:>14}", "bench", "distance", "skipped(%)");
    let grid =
        ablation_grid(&["ccs", "abi", "ter"], frames).with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
    for o in sweep(&grid) {
        println!(
            "{:<6} {:>10} {:>14.1}",
            o.cell.scene(),
            o.cell.point.compare_distance(),
            skipped_pct(&o)
        );
    }
    println!("(double buffering compares 2 frames back; §IV-C)");
}

/// Signature-width study (new with the sweep subsystem): Signature Buffer
/// storage vs collision (false-positive) exposure as the stored CRC is
/// truncated.
pub fn sig_width(frames: usize) {
    hdr("Ablation: signature width vs storage and collisions (ccs, tib)");
    println!(
        "{:<6} {:>6} {:>12} {:>12} {:>14}",
        "bench", "bits", "skipped(%)", "collisions", "sigbuf bytes"
    );
    let grid =
        ablation_grid(&["ccs", "tib"], frames).with_axis(axis::SIG_BITS, vec![8, 16, 24, 32]);
    for o in sweep(&grid) {
        // Ask the hardware model itself, so this column always matches what
        // the simulator charges energy for.
        let sim = o.cell.point.sim_options();
        let sigbuf = re_core::SignatureBuffer::with_sig_bits(
            sim.gpu.tile_count(),
            sim.compare_distance,
            sim.sig_bits,
        )
        .storage_bytes();
        println!(
            "{:<6} {:>6} {:>12.1} {:>12} {:>14}",
            o.cell.scene(),
            o.cell.point.sig_bits(),
            skipped_pct(&o),
            o.report.false_positives,
            sigbuf,
        );
    }
    println!("(narrow signatures shrink the Signature Buffer but admit CRC collisions)");
}

/// Memoization-capacity study (new with the axis registry): the ISCA'14
/// baseline's fragment-reuse rate vs LUT capacity, via the `memo_kb` axis.
/// The entire sweep-side footprint of this axis is its registry
/// definition — this study only selects values for it.
pub fn memo_capacity(frames: usize) {
    hdr("Ablation: fragment-memoization LUT capacity (ISCA'14 baseline)");
    println!(
        "{:<6} {:>8} {:>10} {:>12} {:>12}",
        "bench", "LUT KiB", "entries", "reused(%)", "shaded(%)"
    );
    let grid = ablation_grid(&["ccs", "ter"], frames).with_axis(axis::MEMO_KB, vec![1, 4, 16, 64]);
    for o in sweep(&grid) {
        let memo = &o.report.memo;
        let kb = o.cell.point.get(axis::MEMO_KB);
        println!(
            "{:<6} {:>8} {:>10} {:>12.1} {:>12.1}",
            o.cell.scene(),
            kb,
            kb as usize * 1024 / re_core::memo::MEMO_ENTRY_BYTES,
            100.0 * (1.0 - memo.shaded_fraction()),
            100.0 * memo.shaded_fraction(),
        );
    }
    println!("(the paper's enlarged 16 KiB LUT is the Fig. 16 comparison point)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_block_boundaries() {
        // Same bytes, different block split → different streams.
        let a = vec![vec![1u8, 2, 3], vec![4u8]];
        let b = vec![vec![1u8, 2], vec![3u8, 4]];
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a));
    }

    #[test]
    fn capture_streams_nonempty_for_real_scene() {
        let cfg = GpuConfig {
            width: 128,
            height: 64,
            tile_size: 16,
            ..Default::default()
        };
        let s = capture_tile_streams("ccs", 2, cfg);
        assert_eq!(s.len(), 2 * cfg.tile_count() as usize);
        assert!(s.iter().any(|t| !t.is_empty()));
    }
}
