//! The staged TE section against the lockstep `TePass`.
//!
//! `TePass::section` computes Transaction Elimination from the baseline
//! section's DRAM-bound stream: it probes no cache and services the
//! stream on a fresh DRAM, minus the flushes it elides. The lockstep
//! `TePass` replays the whole cache hierarchy tile by tile. For random
//! logs, every compare distance from 1 to 3 and two L2 sizes, the two
//! must agree bit for bit on `te` (cycles, DRAM statistics and every
//! `f64` energy total) and on `te_stats`.

use proptest::prelude::*;
use re_core::passes::{BaselinePass, TePass};
use re_core::{render_scene, Evaluation, RenderLog, Scene, SimOptions};
use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
use re_gpu::texture::{TextureId, TextureStore};
use re_gpu::GpuConfig;
use re_math::{Color, Mat4, Vec4};

/// A static textured quad (texel traffic in every tile it covers) under
/// flat triangles, each stepping right every `period` frames (0 = static).
#[derive(Debug, Clone)]
struct Stepping {
    tris: Vec<([f32; 6], u32)>,
    texture: Option<TextureId>,
}

impl Scene for Stepping {
    fn init(&mut self, textures: &mut TextureStore) {
        self.texture = Some(textures.upload_with(16, 16, |x, y| {
            Color::new((x * 16) as u8, (y * 16) as u8, 90, 255)
        }));
    }

    fn frame(&mut self, index: usize) -> FrameDesc {
        let mut frame = FrameDesc::new();
        let quad = [
            (-0.8f32, -0.8f32, 0.0f32, 0.0f32),
            (0.4, -0.8, 1.0, 0.0),
            (0.4, 0.4, 1.0, 1.0),
            (-0.8, -0.8, 0.0, 0.0),
            (0.4, 0.4, 1.0, 1.0),
            (-0.8, 0.4, 0.0, 1.0),
        ];
        frame.drawcalls.push(DrawCall {
            state: PipelineState::sprite_2d(self.texture.expect("init before frame")),
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
        frame.drawcalls.push(DrawCall {
            state: PipelineState::flat_2d(),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices,
        });
        frame
    }
}

/// The lockstep `TePass` alone over `log`: its report's `te` and
/// `te_stats`.
fn lockstep(log: &RenderLog, opts: SimOptions) -> (re_core::TechniqueReport, re_core::te::TeStats) {
    let tile_count = log.tile_count();
    let pass = Box::new(TePass::new(&opts, tile_count));
    let mut eval = Evaluation::with_passes(opts, tile_count, vec![pass]);
    for frame in &log.frames {
        eval.push_frame(frame);
    }
    let report = eval.finish(&log.name);
    (report.te, report.te_stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn staged_te_equals_the_lockstep_pass(
        tris in proptest::collection::vec((proptest::array::uniform6(-1.0f32..1.0), 0u32..4), 1..4),
        tile_pick in 0usize..2,
        frames in 3usize..7,
    ) {
        let gpu = GpuConfig {
            width: 48,
            height: 32,
            tile_size: [8, 16][tile_pick],
            ..GpuConfig::default()
        };
        let log = render_scene(&mut Stepping { tris, texture: None }, gpu, frames);
        for l2_kb in [64, 256] {
            let mut opts = SimOptions { gpu, ..SimOptions::default() };
            opts.timing.set_l2_kb(l2_kb);
            let baseline = BaselinePass::section(&log, opts.timing);
            for compare_distance in 1..=3 {
                let opts = SimOptions { compare_distance, ..opts };
                let (te, stats) = TePass::section(&log, compare_distance, &baseline);
                let (want_te, want_stats) = lockstep(&log, opts);
                prop_assert_eq!(&te, &want_te);
                prop_assert_eq!(stats, want_stats);
            }
        }
    }
}

/// A static scene elides flushes, and the stream makes TE's DRAM traffic
/// exactly the baseline's minus the elided color bytes.
#[test]
fn elided_flushes_leave_the_baseline_stream_minus_their_colors() {
    let gpu = GpuConfig {
        width: 48,
        height: 32,
        tile_size: 16,
        ..GpuConfig::default()
    };
    let mut scene = Stepping {
        tris: vec![([-0.9, -0.9, 0.9, -0.9, 0.0, 0.9], 0)],
        texture: None,
    };
    let log = render_scene(&mut scene, gpu, 5);
    let opts = SimOptions {
        gpu,
        ..SimOptions::default()
    };
    let baseline = BaselinePass::section(&log, opts.timing);
    let (te, stats) = TePass::section(&log, opts.compare_distance, &baseline);
    assert!(stats.flushes_skipped > 0, "a static scene elides flushes");
    let colors = re_timing::TrafficClass::Colors;
    for class in re_timing::TrafficClass::ALL {
        let (base, te) = (
            baseline.report.dram.class_bytes(class),
            te.dram.class_bytes(class),
        );
        if class == colors {
            assert!(te < base, "{class:?}");
        } else {
            assert_eq!(te, base, "{class:?}");
        }
    }
    assert_eq!((te, stats), lockstep(&log, opts));
}
