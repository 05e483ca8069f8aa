//! Shared-section evaluation against each cell evaluated alone.
//!
//! Random logs and random cell sets — exact duplicates included — over
//! every option a section key reads: signature width, compare distance,
//! refresh period, memo capacity, L2 size, OT-queue depth and
//! signature-compare cost. Evaluating the cells in a random order through
//! one `SectionTable` must give every cell a report equal to
//! `evaluate(log, opts)` (the same sections over a fresh table), per-frame
//! series included, while computing each distinct section exactly once,
//! as the evaluator itself reports. So sharing never changes a report.
//! That the sections compute the right report is the job of the
//! independent oracle, `reference_run` in `staged_equivalence.rs`. RE's
//! replay is one section per distinct memory machine (`timing`) and skip
//! bitmap, whatever the cells' OT-queue depths and compare costs; the
//! bitmaps here come from a reference of RE's decision rule built on the
//! public `SignatureUnit` and `SignatureBuffer`.

use proptest::prelude::*;
use re_core::{
    evaluate, evaluate_shared, render_scene, RenderLog, Scene, SectionTable, SignatureBuffer,
    SignatureUnit, SimOptions,
};
use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
use re_gpu::GpuConfig;
use re_math::{Mat4, Vec4};

/// Flat triangles, each stepping right every `period` frames (0 = static),
/// with every `unsafe_every`-th frame marked `re_unsafe` (0 = never).
struct Triangles {
    tris: Vec<([f32; 6], u32)>,
    unsafe_every: u32,
}

impl Scene for Triangles {
    fn frame(&mut self, index: usize) -> FrameDesc {
        let mut vertices = Vec::new();
        for (k, (pos, period)) in self.tris.iter().enumerate() {
            let shift = if *period == 0 {
                0.0
            } else {
                0.1 * (index as u32 / period) as f32
            };
            let shade = 0.2 + 0.2 * k as f32;
            for v in 0..3 {
                vertices.push(Vertex::new(vec![
                    Vec4::new(pos[2 * v] + shift, pos[2 * v + 1], 0.0, 1.0),
                    Vec4::new(shade, 0.5, 1.0 - shade, 1.0),
                ]));
            }
        }
        let mut frame = FrameDesc::new();
        frame.drawcalls.push(DrawCall {
            state: PipelineState::flat_2d(),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices,
        });
        frame.re_unsafe = self.unsafe_every > 0 && (index as u32).is_multiple_of(self.unsafe_every);
        frame
    }
}

/// One cell's options from raw draws: `a` picks the signature width,
/// compare distance, refresh period and memo capacity, `b` the L2 size,
/// OT-queue depth and signature-compare cost.
fn cell_options(gpu: GpuConfig, a: [usize; 4], b: [usize; 3]) -> SimOptions {
    let mut opts = SimOptions {
        gpu,
        sig_bits: [4, 8, 16, 32][a[0] % 4],
        compare_distance: 1 + a[1] % 3,
        refresh_period: [None, Some(2), Some(3)][a[2] % 3],
        memo_kb: [4, 16][a[3] % 2],
        ot_queue_entries: [2, 16][b[1] % 2],
        sig_compare_cycles: [1, 4][b[2] % 2],
        ..SimOptions::default()
    };
    opts.timing.set_l2_kb([64, 256][b[0] % 2]);
    opts
}

/// RE's skip verdicts under `opts`, tile by tile in frame order: a tile
/// is skipped when its signature matches the one `compare_distance` frames
/// back in the stored bits, unless a global-state change in the last
/// `compare_distance + 1` frames or a refresh frame disables RE.
fn reference_skips(log: &RenderLog, opts: &SimOptions) -> Vec<bool> {
    let tiles = log.tile_count();
    let distance = opts.compare_distance;
    let mut unit = SignatureUnit::new(opts.ot_queue_entries as usize);
    let mut buffer = SignatureBuffer::with_sig_bits(tiles, distance, opts.sig_bits);
    let mut disabled_for = 0;
    let mut skips = Vec::new();
    for (index, frame) in log.frames.iter().enumerate() {
        if frame.re_unsafe {
            disabled_for = distance + 1;
        }
        let refresh = opts
            .refresh_period
            .is_some_and(|p| index > 0 && index % p == 0);
        let enabled = disabled_for == 0 && !refresh;
        let sigs = unit.process_frame(&frame.geo, tiles).sigs;
        for t in 0..tiles {
            let matched = buffer.matches(&sigs, t);
            skips.push(enabled && matched);
        }
        buffer.push(sigs);
        disabled_for = disabled_for.saturating_sub(1);
    }
    skips
}

/// How many distinct values `items` holds.
fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> usize {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen.len()
}

/// The pass executions sharing should cost for `cells` over `log`: one per
/// distinct section. RE's decision section (with the redundancy
/// classifier) reads the OT-queue depth, compare distance, signature
/// width and refresh period; its replay reads the memory machine and the
/// skip verdicts. No section reads the compare cost.
fn distinct_pass_executions(log: &RenderLog, cells: &[SimOptions]) -> usize {
    let baseline = distinct(cells.iter().map(|c| c.timing));
    let te = distinct(cells.iter().map(|c| (c.timing, c.compare_distance)));
    let memo = distinct(cells.iter().map(|c| c.memo_kb));
    let decision = distinct(cells.iter().map(|c| {
        (
            c.ot_queue_entries,
            c.compare_distance,
            c.sig_bits,
            c.refresh_period,
        )
    }));
    let replay = distinct(cells.iter().map(|c| (c.timing, reference_skips(log, c))));
    baseline + te + memo + decision + replay
}

/// Evaluates `cells` in order through one table, checking every report
/// against `evaluate`; returns the pass executions.
fn run_shared(log: &RenderLog, cells: &[SimOptions]) -> usize {
    let table = SectionTable::new();
    let mut executed = 0;
    for opts in cells {
        let shared = evaluate_shared(log, opts, &table);
        assert_eq!(shared.report, evaluate(log, opts));
        executed += shared.pass_executions;
    }
    executed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shared_sections_match_evaluate(
        tris in proptest::collection::vec((proptest::array::uniform6(-1.0f32..1.0), 0u32..4), 1..4),
        unsafe_pick in 0usize..3,
        tile_pick in 0usize..2,
        frames in 3usize..7,
        picks in proptest::collection::vec(
            (proptest::array::uniform4(0usize..12), proptest::array::uniform3(0usize..12)),
            1..10,
        ),
        dup_pick in 0usize..16,
        order_seed in 0u64..1 << 32,
    ) {
        let gpu = GpuConfig {
            width: 48,
            height: 32,
            tile_size: [8, 16][tile_pick],
            ..GpuConfig::default()
        };
        let mut scene = Triangles { tris, unsafe_every: [0, 0, 3][unsafe_pick] };
        let log = render_scene(&mut scene, gpu, frames);
        let mut cells: Vec<SimOptions> =
            picks.iter().map(|&(a, b)| cell_options(gpu, a, b)).collect();
        // At least one exact duplicate.
        cells.push(cells[dup_pick % cells.len()]);
        // A seeded Fisher–Yates shuffle of the evaluation order.
        let mut order: Vec<usize> = (0..cells.len()).collect();
        let mut state = order_seed;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }

        let table = SectionTable::new();
        let mut executed = 0;
        for &i in &order {
            let shared = evaluate_shared(&log, &cells[i], &table);
            prop_assert_eq!(&shared.report, &evaluate(&log, &cells[i]));
            executed += shared.pass_executions;
        }
        prop_assert_eq!(executed, distinct_pass_executions(&log, &cells));
    }
}

/// A triangle crossing a 48×32 screen in 16-pixel tiles, moving every
/// other frame.
fn stepping_log(frames: usize) -> RenderLog {
    let gpu = GpuConfig {
        width: 48,
        height: 32,
        tile_size: 16,
        ..GpuConfig::default()
    };
    let mut scene = Triangles {
        tris: vec![([-0.9, -0.9, 0.9, -0.9, 0.0, 0.9], 2)],
        unsafe_every: 0,
    };
    render_scene(&mut scene, gpu, frames)
}

/// The eval-heavy grid's shape on one log: 4 signature widths × 2 compare
/// distances run 1 baseline + 2 TE + 1 memo + 8 RE decisions (each with
/// its redundancy classifier) + 2 RE replays = 14 passes. Every width
/// agrees on the verdicts at a distance, so each distance replays once.
/// Evaluating each cell alone runs 8 × 5 = 40.
#[test]
fn four_widths_by_two_distances_run_fourteen_passes() {
    let log = stepping_log(4);
    let mut cells = Vec::new();
    for sig_bits in [8, 16, 24, 32] {
        for compare_distance in [1, 2] {
            cells.push(SimOptions {
                gpu: log.config,
                sig_bits,
                compare_distance,
                ..SimOptions::default()
            });
        }
    }
    assert_eq!(distinct_pass_executions(&log, &cells), 14);
    assert_eq!(run_shared(&log, &cells), 14);
}

/// At compare distance 1, signature widths 16, 24 and 32 see no
/// collision on this log, so they agree on every verdict and share one
/// replay. A 1-bit signature
/// collides, skips tiles the wider ones render, and gets a replay of its
/// own: 1 baseline + 1 TE + 1 memo + 4 decisions + 2 replays = 9 passes.
#[test]
fn collision_free_widths_share_one_replay() {
    let log = stepping_log(6);
    let cells: Vec<SimOptions> = [16, 24, 32, 1]
        .into_iter()
        .map(|sig_bits| SimOptions {
            gpu: log.config,
            sig_bits,
            compare_distance: 1,
            ..SimOptions::default()
        })
        .collect();
    let reports: Vec<_> = cells.iter().map(|opts| evaluate(&log, opts)).collect();
    assert!(reports[0].re.tiles_skipped > 0);
    for report in &reports[..3] {
        assert_eq!(report.false_positives, 0);
        assert_eq!(report.per_frame, reports[0].per_frame, "same verdicts");
    }
    assert!(reports[3].false_positives > 0, "1-bit signatures collide");
    assert!(reports[3].re.tiles_skipped > reports[0].re.tiles_skipped);
    assert_eq!(run_shared(&log, &cells), 9);
}

/// The timing-axis grid's shape on one log at compare distance 1: 4
/// OT-queue depths × 2 compare costs run 1 baseline + 1 TE + 1 memo + 4 RE decisions + 1 RE
/// replay = 8 passes. Neither parameter touches the memory machine, and
/// the signatures (so the skip verdicts) do not depend on the OT-queue
/// depth, so every cell shares one replay; each cell adds its own compare
/// cycles at assembly. Keying the machine sections by both parameters
/// would run 8 baselines, 8 TEs and 8 replays: 29 passes.
#[test]
fn four_ot_depths_by_two_compare_costs_run_eight_passes() {
    let log = stepping_log(6);
    let mut cells = Vec::new();
    for ot_queue_entries in [4, 8, 16, 32] {
        for sig_compare_cycles in [2, 4] {
            cells.push(SimOptions {
                gpu: log.config,
                compare_distance: 1,
                ot_queue_entries,
                sig_compare_cycles,
                ..SimOptions::default()
            });
        }
    }
    let skips: Vec<Vec<bool>> = cells.iter().map(|c| reference_skips(&log, c)).collect();
    assert!(skips.iter().all(|s| *s == skips[0]), "one skip bitmap");
    assert!(skips[0].contains(&true));
    let reports: Vec<_> = cells.iter().map(|opts| evaluate(&log, opts)).collect();
    let tiles = u64::from(log.tile_count()) * log.frames.len() as u64;
    for pair in reports.chunks(2) {
        assert_eq!(
            pair[1].re.raster_cycles - pair[0].re.raster_cycles,
            2 * tiles
        );
        assert_eq!(pair[0].baseline, pair[1].baseline);
    }
    assert_eq!(distinct_pass_executions(&log, &cells), 8);
    assert_eq!(run_shared(&log, &cells), 8);
}
