//! Command-stream trace capture and replay.
//!
//! The paper's methodology (§IV-A) starts from an *OpenGL ES trace
//! generator* that intercepts the command stream of a running game so the
//! same frames can be replayed deterministically through the simulator.
//! This crate is that component for our abstracted command stream: it
//! snapshots a [`Scene`]'s textures and per-frame drawcalls into a
//! self-contained [`Trace`], serializes it to a compact dependency-free
//! binary format, and replays it as a drop-in `Scene`.
//!
//! Uses:
//!
//! * decouple workload generation from simulation (capture once, replay
//!   many times under different configurations);
//! * archive the exact frames behind a published figure;
//! * feed externally captured streams into the simulator by writing the
//!   `.retrace` format.
//!
//! ```
//! use re_core::Scene;
//! use re_gpu::api::FrameDesc;
//! use re_gpu::GpuConfig;
//! use re_trace::{capture, TraceScene};
//!
//! struct Tri;
//! impl Scene for Tri {
//!     fn frame(&mut self, _i: usize) -> FrameDesc { FrameDesc::new() }
//! }
//!
//! let cfg = GpuConfig { width: 64, height: 64, ..GpuConfig::default() };
//! let trace = capture(&mut Tri, cfg, 3);
//! let bytes = trace.to_bytes();
//! let replay = re_trace::Trace::from_bytes(&bytes).expect("roundtrip");
//! let mut scene = TraceScene::new(replay);
//! assert_eq!(scene.frame(0), FrameDesc::new());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod format;
pub mod import;

pub use format::TraceError;

use std::sync::Arc;

use re_core::Scene;
use re_gpu::api::FrameDesc;
use re_gpu::texture::TextureId;
use re_gpu::{Gpu, GpuConfig};
use re_math::Color;

/// A snapshot of one uploaded texture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextureImage {
    /// Width in texels.
    pub width: u32,
    /// Height in texels.
    pub height: u32,
    /// Row-major RGBA texels.
    pub texels: Vec<Color>,
}

/// A captured command stream: GPU configuration, texture set and frames.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The capture-time GPU configuration.
    pub config: GpuConfig,
    /// Textures in upload order (replay re-uploads them in the same order,
    /// so `TextureId`s inside the frames stay valid).
    pub textures: Vec<TextureImage>,
    /// The captured frames.
    pub frames: Vec<FrameDesc>,
}

impl Trace {
    /// Serializes to the `.retrace` binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        format::write_trace(self)
    }

    /// Parses a `.retrace` byte stream.
    ///
    /// # Errors
    /// Returns [`TraceError`] on truncation, bad magic/version or malformed
    /// records.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        format::read_trace(bytes)
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Loads a trace from a file.
    ///
    /// # Errors
    /// Propagates I/O errors and format errors (as
    /// [`std::io::ErrorKind::InvalidData`]).
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Trace> {
        let bytes = std::fs::read(path)?;
        Trace::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Captures `frames` frames of `scene` under `config`, snapshotting its
/// textures, and returns the self-contained trace.
pub fn capture(scene: &mut dyn Scene, config: GpuConfig, frames: usize) -> Trace {
    let mut gpu = Gpu::new(config);
    scene.init(gpu.textures_mut());
    let textures = (0..gpu.textures().len() as u32)
        .map(|id| {
            let t = gpu.textures().get(TextureId(id));
            let texels = (0..t.height())
                .flat_map(|y| (0..t.width()).map(move |x| (x, y)))
                .map(|(x, y)| t.texel(x as i32, y as i32))
                .collect();
            TextureImage {
                width: t.width(),
                height: t.height(),
                texels,
            }
        })
        .collect();
    let frames = (0..frames).map(|i| scene.frame(i)).collect();
    Trace {
        config,
        textures,
        frames,
    }
}

/// Replays a [`Trace`] as a [`Scene`]. Frame indices beyond the capture
/// length wrap around.
///
/// The trace is held behind an `Arc`, so any number of replays (one per
/// worker thread or render chunk) can share one capture; constructing a
/// scene from an `Arc<Trace>` copies no frames.
#[derive(Debug, Clone)]
pub struct TraceScene {
    trace: Arc<Trace>,
    name: String,
}

impl TraceScene {
    /// Wraps a trace (owned or shared) for replay.
    pub fn new(trace: impl Into<Arc<Trace>>) -> Self {
        TraceScene::with_name(trace, "trace-replay")
    }

    /// Wraps a trace (owned or shared) with a custom report name.
    pub fn with_name(trace: impl Into<Arc<Trace>>, name: impl Into<String>) -> Self {
        TraceScene {
            trace: trace.into(),
            name: name.into(),
        }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl Scene for TraceScene {
    fn init(&mut self, textures: &mut re_gpu::texture::TextureStore) {
        for img in &self.trace.textures {
            let w = img.width;
            let texels = &img.texels;
            textures.upload_with(img.width, img.height, |x, y| texels[(y * w + x) as usize]);
        }
    }

    fn frame(&mut self, index: usize) -> FrameDesc {
        // A trace captured with zero frames replays as empty frames rather
        // than panicking on the modulo lookup.
        match self.trace.frames.len() {
            0 => FrameDesc::new(),
            n => self.trace.frames[index % n].clone(),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_gpu::api::{DrawCall, PipelineState, Vertex};
    use re_math::{Mat4, Vec4};

    struct TwoFrames;
    impl Scene for TwoFrames {
        fn init(&mut self, textures: &mut re_gpu::texture::TextureStore) {
            textures.upload_with(4, 4, |x, y| Color::new(x as u8 * 10, y as u8 * 10, 7, 255));
        }
        fn frame(&mut self, index: usize) -> FrameDesc {
            let x0 = if index == 0 { -0.5 } else { 0.0 };
            let vertices = [(x0, -0.5), (x0 + 0.5, -0.5), (x0, 0.5)]
                .iter()
                .map(|&(x, y)| Vertex::new(vec![Vec4::new(x, y, 0.0, 1.0), Vec4::splat(1.0)]))
                .collect();
            FrameDesc {
                drawcalls: vec![DrawCall {
                    state: PipelineState::flat_2d(),
                    constants: Mat4::IDENTITY.cols.to_vec(),
                    vertices,
                }],
                clear_color: Color::new(index as u8, 0, 0, 255),
                re_unsafe: index == 1,
            }
        }
    }

    fn cfg() -> GpuConfig {
        GpuConfig {
            width: 64,
            height: 64,
            tile_size: 16,
            ..Default::default()
        }
    }

    #[test]
    fn capture_snapshots_textures_and_frames() {
        let t = capture(&mut TwoFrames, cfg(), 2);
        assert_eq!(t.textures.len(), 1);
        assert_eq!(t.textures[0].width, 4);
        assert_eq!(t.textures[0].texels[5], Color::new(10, 10, 7, 255));
        assert_eq!(t.frames.len(), 2);
        assert!(t.frames[1].re_unsafe);
    }

    #[test]
    fn replay_reproduces_frames_and_wraps() {
        let t = capture(&mut TwoFrames, cfg(), 2);
        let mut replay = TraceScene::new(t);
        assert_eq!(replay.frame(0), TwoFrames.frame(0));
        assert_eq!(replay.frame(1), TwoFrames.frame(1));
        assert_eq!(replay.frame(2), TwoFrames.frame(0), "wraps around");
        assert_eq!(replay.name(), "trace-replay");
    }

    #[test]
    fn replay_restores_texture_content() {
        let t = capture(&mut TwoFrames, cfg(), 1);
        let mut replay = TraceScene::new(t);
        let mut gpu = Gpu::new(cfg());
        replay.init(gpu.textures_mut());
        let tex = gpu.textures().get(TextureId(0));
        assert_eq!(tex.texel(1, 1), Color::new(10, 10, 7, 255));
    }

    #[test]
    fn byte_roundtrip_preserves_everything() {
        let t = capture(&mut TwoFrames, cfg(), 2);
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("parse");
        assert_eq!(back, t);
    }

    #[test]
    fn file_roundtrip() {
        let t = capture(&mut TwoFrames, cfg(), 1);
        let path = std::env::temp_dir().join("re_trace_test.retrace");
        t.save(&path).expect("save");
        let back = Trace::load(&path).expect("load");
        assert_eq!(back, t);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupted_magic_is_rejected() {
        let t = capture(&mut TwoFrames, cfg(), 1);
        let mut bytes = t.to_bytes();
        bytes[0] ^= 0xFF;
        assert!(Trace::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_is_rejected_not_panicking() {
        let t = capture(&mut TwoFrames, cfg(), 2);
        let bytes = t.to_bytes();
        for cut in [1usize, 8, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Trace::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must error"
            );
        }
    }
}
