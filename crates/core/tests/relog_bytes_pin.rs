//! Pins the exact compressed `.relog` bytes of one small rendered suite
//! key. The `RELOG002` encoder is a pure function of the log, and cached
//! artifacts written by one build are replayed by another, so any change
//! to the LZSS parse (match finder, hash, chain order, tie-breaking) or to
//! the frame framing shows up here as a different digest — even when the
//! new bytes would still decode to the same log.
//!
//! The digest is that of the reference parse (`reference_compress` in the
//! `lzss` module's tests); any faster match finder must reproduce it
//! exactly.

use re_core::relog::{self, Compression};
use re_core::render_scene;
use re_crc::Crc32;
use re_gpu::GpuConfig;

#[test]
fn compressed_relog_bytes_of_a_rendered_key_are_pinned() {
    let mut bench = re_workloads::by_alias("ccs").expect("ccs is a suite scene");
    let cfg = GpuConfig {
        width: 96,
        height: 64,
        tile_size: 16,
        ..Default::default()
    };
    let log = render_scene(bench.scene.as_mut(), cfg, 2);
    let packed = relog::encode_with(&log, Compression::Lzss);
    assert_eq!(
        (packed.len(), Crc32::digest(&packed)),
        (391_264, 0xF0E9_1246),
        "RELOG002 bytes changed"
    );
    // The pinned stream is a valid one: it decodes to the rendered log.
    let back = relog::decode(&packed).expect("decodes");
    assert_eq!(relog::encode(&back), relog::encode(&log));
}
