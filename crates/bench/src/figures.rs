//! Printers that regenerate every table and figure of the paper from a
//! suite run. Each printer emits the same rows/series the paper plots;
//! `EXPERIMENTS.md` records the comparison against the published numbers.

use re_timing::{TimingConfig, TrafficClass};

use crate::harness::{mean, SuiteResult};

fn hdr(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Table I — the simulated GPU parameters.
pub fn table1() {
    let c = TimingConfig::mali450();
    hdr("Table I: GPU Simulation Parameters");
    println!(
        "Tech specs            : {} MHz, {} V, 32 nm",
        c.clock_hz / 1_000_000,
        c.voltage
    );
    println!("Screen resolution     : 1196x768 (default harness)");
    println!("Tile size             : 16x16 pixels");
    println!(
        "Main memory           : latency {}-{} cycles, {} bytes/cycle, dual-channel LPDDR3",
        c.dram_latency_min, c.dram_latency_max, c.dram_bytes_per_cycle
    );
    println!(
        "Queues                : vertex/triangle/tile {} entries, fragment {} entries",
        c.queue_entries, c.fragment_queue_entries
    );
    let pc = |g: re_timing::config::CacheGeometry| {
        format!(
            "{} KB, {}-way, {} B lines, {} cycle(s)",
            g.size_bytes / 1024,
            g.ways,
            g.line_bytes,
            g.latency
        )
    };
    println!("Vertex cache          : {}", pc(c.vertex_cache));
    println!("Texture caches (4x)   : {}", pc(c.texture_cache));
    println!("Tile cache            : {}", pc(c.tile_cache));
    println!("L2 cache              : {}", pc(c.l2_cache));
    println!(
        "Color/Depth buffers   : {} KB / {} KB on-chip",
        c.color_buffer_bytes / 1024,
        c.depth_buffer_bytes / 1024
    );
    println!("Vertex processors     : {}", c.num_vertex_processors);
    println!("Fragment processors   : {}", c.num_fragment_processors);
    println!(
        "Rasterizer            : {} attributes/cycle",
        c.raster_attrs_per_cycle
    );
    println!(
        "OT queue (RE)         : {} entries",
        re_core::SimOptions::default().ot_queue_entries
    );
}

/// Table II — the benchmark suite.
pub fn table2(results: &[SuiteResult]) {
    hdr("Table II: Benchmark suite");
    println!(
        "{:<6} {:<22} {:<22} {:<4}",
        "alias", "stands for", "genre", "type"
    );
    for r in results {
        println!(
            "{:<6} {:<22} {:<22} {:<4}",
            r.alias,
            r.stands_for,
            r.genre,
            if r.is_3d { "3D" } else { "2D" }
        );
    }
}

/// Fig. 1 proxy — average simulated power and GPU load per benchmark
/// (assuming a 60 fps vsync'd wall clock).
pub fn fig1(results: &[SuiteResult]) {
    hdr("Fig. 1 (proxy): average power (mW) and normalized GPU load (%)");
    println!("{:<6} {:>12} {:>12}", "bench", "power(mW)", "load(%)");
    let clock = TimingConfig::mali450().clock_hz as f64;
    for r in results {
        let wall_s = r.report.frames as f64 / 60.0;
        let power_mw = r.report.baseline.energy.total_pj() * 1e-12 / wall_s * 1e3;
        let budget = clock / 60.0 * r.report.frames as f64;
        let load = 100.0 * r.report.baseline.total_cycles() as f64 / budget;
        println!(
            "{:<6} {:>12.1} {:>12.1}",
            r.alias,
            power_mw,
            load.min(100.0)
        );
    }
    println!("(paper: simple games drive power comparable to a GPU stress test)");
}

/// Fig. 2 — percentage of tiles with the same color as the preceding frame.
pub fn fig2(results: &[SuiteResult]) {
    hdr("Fig. 2: % tiles producing the same color as the preceding frame");
    println!("{:<6} {:>10}", "bench", "equal(%)");
    for r in results {
        println!("{:<6} {:>10.1}", r.alias, r.report.equal_tiles_pct_dist1());
    }
    let avg = mean(results.iter().map(|r| r.report.equal_tiles_pct_dist1()));
    println!("{:<6} {:>10.1}", "AVG", avg);
}

/// Fig. 14a — execution cycles of RE normalized to baseline, split into
/// geometry and raster cycles.
pub fn fig14a(results: &[SuiteResult]) {
    hdr("Fig. 14a: normalized execution cycles (Base vs RE)");
    println!(
        "{:<6} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "bench", "base.geom", "base.rast", "re.geom", "re.rast", "re.total", "speedup"
    );
    let mut ratios = Vec::new();
    for r in results {
        let b = &r.report.baseline;
        let e = &r.report.re;
        let bt = b.total_cycles() as f64;
        let ratio = e.total_cycles() as f64 / bt;
        ratios.push(ratio);
        println!(
            "{:<6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>9.3} {:>8.2}x",
            r.alias,
            b.geometry_cycles as f64 / bt,
            b.raster_cycles as f64 / bt,
            e.geometry_cycles as f64 / bt,
            e.raster_cycles as f64 / bt,
            ratio,
            1.0 / ratio,
        );
    }
    let avg = mean(ratios.iter().copied());
    println!("{:<6} {:>53.3} {:>8.2}x", "AVG", avg, 1.0 / avg);
    println!("(paper: 42% average cycle reduction, 1.74x speedup, up to 86% on cde)");
}

/// Fig. 14b — energy of RE normalized to baseline, split GPU vs memory.
pub fn fig14b(results: &[SuiteResult]) {
    hdr("Fig. 14b: normalized energy (Base vs RE), GPU vs main memory");
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "bench", "base.gpu", "base.mem", "re.gpu", "re.mem", "re.total"
    );
    let mut ratios = Vec::new();
    let mut gpu_ratios = Vec::new();
    let mut mem_ratios = Vec::new();
    for r in results {
        let b = &r.report.baseline.energy;
        let e = &r.report.re.energy;
        let bt = b.total_pj();
        ratios.push(e.total_pj() / bt);
        gpu_ratios.push(e.gpu_pj() / b.gpu_pj());
        mem_ratios.push(e.memory_pj() / b.memory_pj());
        println!(
            "{:<6} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            r.alias,
            b.gpu_pj() / bt,
            b.memory_pj() / bt,
            e.gpu_pj() / bt,
            e.memory_pj() / bt,
            e.total_pj() / bt,
        );
    }
    println!(
        "{:<6} total {:.3} | gpu-only {:.3} | mem-only {:.3}",
        "AVG",
        mean(ratios),
        mean(gpu_ratios),
        mean(mem_ratios)
    );
    println!("(paper: 43% average energy reduction; 38% GPU, 48% memory)");
}

/// Fig. 15a — tile classification.
pub fn fig15a(results: &[SuiteResult]) {
    hdr("Fig. 15a: tile classification (%, across neighboring frames)");
    println!(
        "{:<6} {:>14} {:>16} {:>16} {:>12}",
        "bench", "eqCol+eqIn", "eqCol+diffIn", "diffCol+diffIn", "collisions"
    );
    let mut a = Vec::new();
    let mut b = Vec::new();
    let mut c = Vec::new();
    for r in results {
        let k = &r.report.classes;
        a.push(k.pct(k.eq_color_eq_input));
        b.push(k.pct(k.eq_color_diff_input));
        c.push(k.pct(k.diff_color_diff_input));
        println!(
            "{:<6} {:>14.1} {:>16.1} {:>16.1} {:>12}",
            r.alias,
            k.pct(k.eq_color_eq_input),
            k.pct(k.eq_color_diff_input),
            k.pct(k.diff_color_diff_input),
            k.diff_color_eq_input,
        );
    }
    println!(
        "{:<6} {:>14.1} {:>16.1} {:>16.1}",
        "AVG",
        mean(a),
        mean(b),
        mean(c)
    );
    println!("(paper: 50% eq/eq, 12% eq/diff, 38% diff/diff, zero collisions)");
}

/// Fig. 15b — raster-pipeline main-memory traffic normalized to baseline.
pub fn fig15b(results: &[SuiteResult]) {
    hdr("Fig. 15b: raster DRAM traffic normalized to baseline (colors/texels/prims)");
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9}",
        "bench", "colors", "texels", "prims", "total"
    );
    let raster_bytes = |d: &re_timing::dram::DramStats| {
        d.class_bytes(TrafficClass::Colors)
            + d.class_bytes(TrafficClass::Texels)
            + d.class_bytes(TrafficClass::PrimitiveReads)
    };
    let mut totals = Vec::new();
    for r in results {
        let bd = &r.report.baseline.dram;
        let ed = &r.report.re.dram;
        let bt = raster_bytes(bd) as f64;
        let row = |cl: TrafficClass| ed.class_bytes(cl) as f64 / bt;
        totals.push(raster_bytes(ed) as f64 / bt);
        println!(
            "{:<6} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            r.alias,
            row(TrafficClass::Colors),
            row(TrafficClass::Texels),
            row(TrafficClass::PrimitiveReads),
            raster_bytes(ed) as f64 / bt,
        );
    }
    println!("{:<6} {:>39.3}", "AVG", mean(totals));
    println!("(paper: 48% average raster-traffic reduction)");
}

/// Fig. 16 — fragments shaded under RE and under PFR memoization,
/// normalized to baseline.
pub fn fig16(results: &[SuiteResult]) {
    hdr("Fig. 16: fragments shaded, normalized to baseline (RE vs memoization)");
    println!("{:<6} {:>9} {:>9}", "bench", "RE", "memo");
    let mut re_r = Vec::new();
    let mut memo_r = Vec::new();
    for r in results {
        let base = r.report.baseline.fragments_shaded.max(1) as f64;
        let re = r.report.re.fragments_shaded as f64 / base;
        let memo = r.report.memo.fragments_shaded as f64 / base;
        re_r.push(re);
        memo_r.push(memo);
        println!("{:<6} {:>9.3} {:>9.3}", r.alias, re, memo);
    }
    println!("{:<6} {:>9.3} {:>9.3}", "AVG", mean(re_r), mean(memo_r));
    println!("(paper: RE reuses ~2x the fragments of memoization except on hop)");
}

/// Fig. 17a — execution cycles: TE vs RE, normalized to baseline.
pub fn fig17a(results: &[SuiteResult]) {
    hdr("Fig. 17a: normalized execution cycles (TE vs RE)");
    println!("{:<6} {:>9} {:>9}", "bench", "TE", "RE");
    let mut te_r = Vec::new();
    let mut re_r = Vec::new();
    for r in results {
        let bt = r.report.baseline.total_cycles() as f64;
        let te = r.report.te.total_cycles() as f64 / bt;
        let re = r.report.re.total_cycles() as f64 / bt;
        te_r.push(te);
        re_r.push(re);
        println!("{:<6} {:>9.3} {:>9.3}", r.alias, te, re);
    }
    println!("{:<6} {:>9.3} {:>9.3}", "AVG", mean(te_r), mean(re_r));
}

/// Fig. 17b — energy: TE vs RE, normalized to baseline.
pub fn fig17b(results: &[SuiteResult]) {
    hdr("Fig. 17b: normalized energy (TE vs RE)");
    println!("{:<6} {:>9} {:>9}", "bench", "TE", "RE");
    let mut te_r = Vec::new();
    let mut re_r = Vec::new();
    for r in results {
        let bt = r.report.baseline.energy.total_pj();
        let te = r.report.te.energy.total_pj() / bt;
        let re = r.report.re.energy.total_pj() / bt;
        te_r.push(te);
        re_r.push(re);
        println!("{:<6} {:>9.3} {:>9.3}", r.alias, te, re);
    }
    println!("{:<6} {:>9.3} {:>9.3}", "AVG", mean(te_r), mean(re_r));
    println!("(paper: TE saves 9% energy on average, RE 43%)");
}

/// §III-G — Signature Unit latencies for the canonical block sizes.
pub fn sigcycles() {
    use re_crc::units::ComputeCrcUnit;
    hdr("\u{a7}III-G: Compute CRC unit latencies");
    let mut u = ComputeCrcUnit::new();
    for (what, bytes, expect) in [
        ("average constants block (16 values, 64 B)", 64usize, 8u64),
        ("one attribute (3 verts x vec4, 48 B)", 48, 6),
        ("average primitive (3 attributes, 144 B)", 144, 18),
    ] {
        u.reset_cycles();
        u.sign_block(&vec![0xA5u8; bytes]);
        println!("{what:<46} : {:>3} cycles (paper: {expect})", u.cycles());
    }
    println!("LUT storage: 8 x 1 KB (Sign) + 4 KB + 4 KB (Shift units) = 16 KB");
}

/// Per-frame phase curves (paper §V's three behaviour categories): skip
/// ratio per frame for a static, a phased and a continuous workload.
pub fn phases(results: &[SuiteResult]) {
    hdr("Per-frame phase behaviour: tiles skipped per frame (%)");
    let interesting = ["ccs", "abi", "mst"];
    for alias in interesting {
        let Some(r) = results.iter().find(|r| r.alias == alias) else {
            continue;
        };
        let tiles = r.report.tile_count as f64;
        print!("{:<4}:", alias);
        for s in &r.report.per_frame {
            let pct = 100.0 * s.tiles_skipped as f64 / tiles;
            // Compact sparkline-style bucket per frame (0-9).
            print!("{}", (pct / 10.01) as u32);
        }
        println!();
    }
    println!("(one digit per frame: 9 = >90% of tiles skipped, 0 = <10%)");
    println!("(ccs: flat high; abi: aim/flight phases; mst: flat zero)");
}

/// Summary of the headline claims plus overhead/false-positive accounting.
pub fn summary(results: &[SuiteResult]) {
    hdr("Headline summary");
    // The paper's "1.74x average speedup" corresponds to the mean
    // normalized execution time (42% reduction), not the mean of
    // per-benchmark speedups (which over-weights the best cases).
    let ratios: Vec<f64> = results
        .iter()
        .map(|r| r.report.re.total_cycles() as f64 / r.report.baseline.total_cycles() as f64)
        .collect();
    let cyc_red: Vec<f64> = results
        .iter()
        .map(|r| 1.0 - r.report.re.total_cycles() as f64 / r.report.baseline.total_cycles() as f64)
        .collect();
    let energy_red: Vec<f64> = results
        .iter()
        .map(|r| 1.0 - r.report.re.energy.total_pj() / r.report.baseline.energy.total_pj())
        .collect();
    let skipped: Vec<f64> = results
        .iter()
        .map(|r| {
            100.0 * r.report.re.tiles_skipped as f64
                / (r.report.re.tiles_skipped + r.report.re.tiles_rendered) as f64
        })
        .collect();
    let fp: u64 = results.iter().map(|r| r.report.false_positives).sum();
    let stall_pct: Vec<f64> = results
        .iter()
        .map(|r| {
            100.0 * r.report.su_stats.stall_cycles as f64
                / r.report.baseline.geometry_cycles.max(1) as f64
        })
        .collect();
    let stall_total_pct: Vec<f64> = results
        .iter()
        .map(|r| {
            100.0 * r.report.su_stats.stall_cycles as f64
                / r.report.baseline.total_cycles().max(1) as f64
        })
        .collect();
    println!(
        "average speedup             : {:.2}x (paper 1.74x)",
        1.0 / mean(ratios)
    );
    println!(
        "max cycle reduction         : {:.0}% (paper 86%, cde)",
        100.0 * cyc_red.iter().cloned().fold(0.0, f64::max)
    );
    println!(
        "average energy reduction    : {:.0}% (paper 43%)",
        100.0 * mean(energy_red)
    );
    println!(
        "average tiles skipped       : {:.0}% (paper 50%)",
        mean(skipped)
    );
    println!("CRC32 false positives       : {fp} (paper 0)");
    println!(
        "avg signature stall overhead: {:.2}% of geometry, {:.3}% of total (paper: 0.64% of geometry)",
        mean(stall_pct),
        mean(stall_total_pct)
    );
}
