//! Equivalence of the staged (render/evaluate) simulator with the seed's
//! monolithic loop.
//!
//! `reference_run` below is a line-for-line port of the pre-split
//! `Simulator::run`: one loop that renders and evaluates every technique
//! tile by tile, with ground truth taken from live framebuffer compares.
//! It is the independent oracle for Stage B's one path: `Simulator::run`
//! is `render_scene` followed by `evaluate`, which computes every
//! section of `evaluate_shared` over a fresh table. The property: for
//! random scenes and random option points across every evaluation axis
//! (signature width, compare distance, refresh period, compare cost,
//! OT-queue depth, L2 capacity and memo capacity), `Simulator::run`
//! produces `RunReport`s **bit-identical** (PartialEq covers every counter
//! and f64 energy total) to the reference.

use proptest::prelude::*;
use re_core::memo::MemoLut;
use re_core::passes::Machine;
use re_core::redundancy::{classify, ColorHistory, TileClassCounts};
use re_core::sim::FrameSample;
use re_core::{
    FragmentMemo, RunReport, Scene, SignatureBuffer, SignatureUnit, SignatureUnitStats, SimOptions,
    Simulator, TransactionElimination,
};
use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
use re_gpu::texture::TextureStore;
use re_gpu::{Event, Gpu, GpuConfig, TileRecord};
use re_math::{Mat4, Vec4};
use re_timing::Caches;

/// `events` with every texel run expanded into `count` single fetches of
/// its line, one event each, as the seed recorded them: the memory
/// replays below then check that the staged path's one probe plus
/// `count − 1` hits per run is exact. (Which fetches may share a run is
/// pinned by `crates/timing/tests/texel_runs.rs`.)
fn unfolded(events: &[Event]) -> Vec<Event> {
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        match *e {
            Event::Texel { unit, count, addr } => out.extend((0..count).map(|_| Event::Texel {
                unit,
                count: 1,
                addr,
            })),
            e => out.push(e),
        }
    }
    out
}

/// The seed simulator's monolithic loop, kept verbatim as the reference
/// semantics for the staged architecture.
fn reference_run(scene: &mut dyn Scene, opts: SimOptions, frames: usize) -> RunReport {
    let tcfg = opts.timing;
    let mut gpu = Gpu::new(opts.gpu);
    let tile_count = gpu.tile_count();
    let distance = opts.compare_distance;

    scene.init(gpu.textures_mut());

    let mut base = Machine::new(tcfg);
    let mut rem = Machine::new(tcfg);
    let mut tem = Machine::new(tcfg);
    let mut base_caches = Caches::new(tcfg);
    let mut re_caches = Caches::new(tcfg);
    let mut te_caches = Caches::new(tcfg);

    let mut su = SignatureUnit::new(tcfg.ot_queue_entries as usize);
    let mut su_stats = SignatureUnitStats::default();
    let mut sig_buffer = SignatureBuffer::with_sig_bits(tile_count, distance, opts.sig_bits);
    let mut te = TransactionElimination::new(tile_count, distance);
    let mut memo = FragmentMemo::with_lut(MemoLut::with_kb(opts.memo_kb));

    let mut history = ColorHistory::new(distance.max(1));
    let mut classes = TileClassCounts::default();
    let mut equal_tiles_dist1 = 0u64;
    let mut classified_dist1 = 0u64;
    let mut false_positives = 0u64;
    let mut re_frames_disabled = 0u64;
    let mut re_disabled_for = 0usize;

    let mut events: Vec<Event> = Vec::new();
    let mut per_frame: Vec<FrameSample> = Vec::with_capacity(frames);

    for f in 0..frames {
        let frame_skip_mark = rem.tiles_skipped;
        let frame_base_raster_mark = base.raster_cycles;
        let frame_re_raster_mark = rem.raster_cycles;
        let frame = scene.frame(f);
        if frame.re_unsafe {
            re_disabled_for = re_disabled_for.max(distance + 1);
        }
        let refresh_frame = opts
            .refresh_period
            .is_some_and(|p| p > 0 && f > 0 && f.is_multiple_of(p));
        let re_enabled = re_disabled_for == 0 && !refresh_frame;
        if !re_enabled {
            re_frames_disabled += 1;
        }

        events.clear();
        let geo = gpu.run_geometry(&frame, &mut events);
        for (m, caches) in [
            (&mut base, &mut base_caches),
            (&mut rem, &mut re_caches),
            (&mut tem, &mut te_caches),
        ] {
            let (requests, epoch) = caches.replay(&events);
            m.charge_geometry(&geo.stats, requests, epoch);
        }

        let sigs = su.process_frame(&geo, tile_count);
        rem.geometry_cycles += sigs.stats.stall_cycles;
        su_stats.merge(&sigs.stats);

        let mut frame_hashes: Vec<Vec<u32>> = vec![Vec::new(); tile_count as usize];
        for t in 0..tile_count {
            let mut record = TileRecord::default();
            let tstats = gpu.rasterize_tile(&frame, &geo, t, &mut record);
            frame_hashes[t as usize] = record.hashes;
            let events = unfolded(&record.events);

            let (requests, epoch) = base_caches.replay(&events);
            base.charge_tile(&tstats, requests, epoch, true);

            let rect = opts.gpu.tile_rect(t);
            let colors_eq_cmp =
                history.tile_equals(&opts.gpu, gpu.framebuffer().back(), t, distance);
            let colors_eq_d1 = history.tile_equals(&opts.gpu, gpu.framebuffer().back(), t, 1);
            if let Some(eq) = colors_eq_d1 {
                classified_dist1 += 1;
                if eq {
                    equal_tiles_dist1 += 1;
                }
            }

            let inputs_eq = sig_buffer.matches(&sigs.sigs, t);
            rem.raster_cycles += tcfg.sig_compare_cycles;
            if re_enabled && inputs_eq {
                rem.tiles_skipped += 1;
                if colors_eq_cmp == Some(false) {
                    false_positives += 1;
                }
            } else {
                let (requests, epoch) = re_caches.replay(&events);
                rem.charge_tile(&tstats, requests, epoch, true);
            }

            if let Some(ceq) = colors_eq_cmp {
                classify(&mut classes, ceq, inputs_eq);
            }

            let tile_colors = gpu.framebuffer().back().read_rect(rect);
            let te_skip_flush = te.tile_rendered(t, &tile_colors);
            // The reference elides TE's flush itself, as the seed did, by
            // replaying the tile without its color flush: it checks the
            // staged path's flush flag instead of relying on it.
            let te_events: Vec<Event> = events
                .iter()
                .filter(|e| !(te_skip_flush && matches!(e, Event::ColorFlush { .. })))
                .copied()
                .collect();
            let (requests, epoch) = te_caches.replay(&te_events);
            let mut te_tstats = tstats;
            if te_skip_flush {
                te_tstats.color_bytes_flushed = 0;
            }
            tem.charge_tile(&te_tstats, requests, epoch, true);
        }

        per_frame.push(FrameSample {
            tiles_skipped: (rem.tiles_skipped - frame_skip_mark) as u32,
            baseline_raster_cycles: base.raster_cycles - frame_base_raster_mark,
            re_raster_cycles: rem.raster_cycles - frame_re_raster_mark,
        });
        history.push(gpu.framebuffer().back());
        sig_buffer.push(sigs.sigs);
        te.end_frame();
        memo.push_frame(frame_hashes);
        gpu.end_frame();
        re_disabled_for = re_disabled_for.saturating_sub(1);
    }
    memo.finish();

    let sigbuf_bytes = sig_buffer.storage_bytes() as u32;
    rem.energy.add_sram(
        sigbuf_bytes,
        su_stats.sig_buffer_accesses + sig_buffer.compare_reads,
    );
    rem.energy.add_sram(1024, su_stats.lut_accesses);
    rem.energy
        .add_sram(tile_count.div_ceil(8).max(1), su_stats.bitmap_accesses);
    rem.energy.add_sram(64, su_stats.ot_pushes * 2);
    tem.energy
        .add_sram(te.storage_bytes() as u32, te.stats.sig_buffer_accesses);
    tem.energy.add_sram(1024, te.stats.lut_accesses);

    let te_stats = te.stats;
    RunReport {
        name: scene.name().to_owned(),
        frames,
        tile_count,
        baseline: base.finish(base_caches.sram_accesses()),
        re: rem.finish(re_caches.sram_accesses()),
        te: tem.finish(te_caches.sram_accesses()),
        memo: memo.stats,
        classes,
        equal_tiles_dist1,
        classified_dist1,
        false_positives,
        su_stats,
        te_stats,
        re_frames_disabled,
        per_frame,
    }
}

/// A randomized scene: a textured quad plus flat triangles, some animated
/// by a per-triangle period (0 = static), with an optional periodically
/// `re_unsafe` frame.
#[derive(Debug, Clone)]
struct RandomScene {
    tris: Vec<([f32; 6], u32, [f32; 4])>,
    unsafe_every: u32,
    texture: Option<re_gpu::texture::TextureId>,
}

impl Scene for RandomScene {
    fn init(&mut self, textures: &mut TextureStore) {
        self.texture = Some(textures.upload_with(16, 16, |x, y| {
            re_math::Color::new((x * 16) as u8, (y * 16) as u8, 90, 255)
        }));
    }

    fn frame(&mut self, index: usize) -> FrameDesc {
        let mut frame = FrameDesc::new();
        // A static textured quad keeps texel traffic in every stream.
        let tex = self.texture.expect("init before frame");
        let quad = [
            (-0.8f32, -0.8f32, 0.0f32, 0.0f32),
            (0.4, -0.8, 1.0, 0.0),
            (0.4, 0.4, 1.0, 1.0),
            (-0.8, -0.8, 0.0, 0.0),
            (0.4, 0.4, 1.0, 1.0),
            (-0.8, 0.4, 0.0, 1.0),
        ];
        frame.drawcalls.push(DrawCall {
            state: PipelineState::sprite_2d(tex),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices: quad
                .iter()
                .map(|&(x, y, u, v)| {
                    Vertex::new(vec![
                        Vec4::new(x, y, 0.2, 1.0),
                        Vec4::splat(1.0),
                        Vec4::new(u, v, 0.0, 0.0),
                    ])
                })
                .collect(),
        });
        let mut vertices = Vec::new();
        for (pos, period, color) in &self.tris {
            let shift = if *period == 0 {
                0.0
            } else {
                0.07 * ((index as u32 / period) as f32)
            };
            let c = Vec4::new(color[0], color[1], color[2], color[3]);
            for k in 0..3 {
                vertices.push(Vertex::new(vec![
                    Vec4::new(pos[2 * k] + shift, pos[2 * k + 1], 0.0, 1.0),
                    c,
                ]));
            }
        }
        frame.drawcalls.push(DrawCall {
            state: PipelineState::flat_2d(),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices,
        });
        frame.re_unsafe = self.unsafe_every > 0 && (index as u32).is_multiple_of(self.unsafe_every);
        frame
    }

    fn name(&self) -> &str {
        "random"
    }
}

fn arb_tri() -> impl Strategy<Value = ([f32; 6], u32, [f32; 4])> {
    (
        proptest::array::uniform6(-1.0f32..1.0),
        0u32..4,
        proptest::array::uniform4(0.0f32..1.0),
    )
}

/// Builds the option point from raw draws (the vendored proptest has no
/// `prop_oneof`/`prop_map`, so mapping happens in the test body): tile
/// size, signature width, compare distance, refresh period, compare cost,
/// OT-queue depth, L2 capacity and memo capacity, in that order.
fn opts_from(picks: [usize; 8]) -> SimOptions {
    let [tile_pick, sig_pick, compare_distance, refresh_pick, sig_compare_pick, ot_pick, l2_pick, memo_pick] =
        picks;
    let mut opts = SimOptions {
        gpu: GpuConfig {
            width: 48,
            height: 32,
            tile_size: [8u32, 16][tile_pick % 2],
            ..Default::default()
        },
        compare_distance,
        refresh_period: [None, Some(2), Some(4)][refresh_pick % 3],
        sig_bits: [4u32, 8, 32][sig_pick % 3],
        memo_kb: [1u32, 4, 16][memo_pick % 3],
        ..SimOptions::default()
    };
    opts.timing.sig_compare_cycles = [1u64, 4, 9][sig_compare_pick % 3];
    opts.timing.ot_queue_entries = [2u32, 16][ot_pick % 2];
    opts.timing.set_l2_kb([8u32, 64, 256][l2_pick % 3]);
    opts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The simulator reproduces the monolithic reference bit for bit
    /// across random configs.
    #[test]
    fn staged_paths_match_monolithic_reference(
        tris in proptest::collection::vec(arb_tri(), 1..5),
        unsafe_pick in 0usize..3,
        tile_pick in 0usize..2,
        sig_pick in 0usize..3,
        compare_distance in 1usize..4,
        refresh_pick in 0usize..3,
        sig_compare_pick in 0usize..3,
        ot_pick in 0usize..2,
        l2_pick in 0usize..3,
        memo_pick in 0usize..3,
        frames in 4usize..8,
    ) {
        let opts = opts_from([
            tile_pick,
            sig_pick,
            compare_distance,
            refresh_pick,
            sig_compare_pick,
            ot_pick,
            l2_pick,
            memo_pick,
        ]);
        let unsafe_every = [0u32, 0, 5][unsafe_pick % 3];
        let scene = RandomScene { tris, unsafe_every, texture: None };

        let reference = reference_run(&mut scene.clone(), opts, frames);
        let staged = Simulator::new(opts).run(&mut scene.clone(), frames);
        prop_assert_eq!(&staged, &reference);
    }
}
