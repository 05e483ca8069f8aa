//! Shared-section evaluation against plain `evaluate`.
//!
//! Random logs and random cell sets — exact duplicates included — over
//! every option a section key reads: signature width, compare distance,
//! refresh period, memo capacity, L2 size, OT-queue depth and
//! signature-compare cost. Evaluating the cells in a random order through
//! one `SectionTable` must give every cell a report equal to
//! `evaluate(log, opts)`, per-frame series included, while computing each
//! distinct section exactly once, as the evaluator itself reports.

use proptest::prelude::*;
use re_core::{
    evaluate, evaluate_shared, render_scene, Scene, SectionKey, SectionTable, SimOptions,
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
        ..SimOptions::default()
    };
    opts.timing.set_l2_kb([64, 256][b[0] % 2]);
    opts.timing.set_ot_depth([2, 16][b[1] % 2]);
    opts.timing.sig_compare_cycles = [1, 4][b[2] % 2];
    opts
}

/// The pass executions sharing should cost for `cells`: one per distinct
/// section, two for an RE section (RE and redundancy).
fn distinct_pass_executions(cells: &[SimOptions]) -> usize {
    let mut seen: Vec<SectionKey> = Vec::new();
    for key in cells.iter().flat_map(SectionKey::for_options) {
        if !seen.contains(&key) {
            seen.push(key);
        }
    }
    seen.iter()
        .map(|key| match key {
            SectionKey::Re { .. } => 2,
            _ => 1,
        })
        .sum()
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
        prop_assert_eq!(executed, distinct_pass_executions(&cells));
    }
}

/// The eval-heavy grid's shape on one log: 4 signature widths × 2 compare
/// distances run 1 baseline + 2 TE + 1 memo + 8 RE + 8 redundancy = 20
/// passes, where evaluating each cell alone runs 8 × 5 = 40.
#[test]
fn four_widths_by_two_distances_run_twenty_passes() {
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
    let log = render_scene(&mut scene, gpu, 4);
    let table = SectionTable::new();
    let mut executed = 0;
    for sig_bits in [8, 16, 24, 32] {
        for compare_distance in [1, 2] {
            let opts = SimOptions {
                gpu,
                sig_bits,
                compare_distance,
                ..SimOptions::default()
            };
            let shared = evaluate_shared(&log, &opts, &table);
            assert_eq!(shared.report, evaluate(&log, &opts));
            executed += shared.pass_executions;
        }
    }
    assert_eq!(executed, 20);
}
