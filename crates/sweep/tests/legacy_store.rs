//! Old-store compatibility pin.
//!
//! `fixtures/legacy_store/` is a complete result store written by the
//! pre-registry sweep implementation (grid: `ccs`, 2 frames, 128×64,
//! `--sig-bits 16,32`). Its records predate the `memo_kb` axis and the
//! memo metrics. The registry-driven store must:
//!
//! * parse every record, defaulting the axes that did not exist yet;
//! * accept the store for resuming (same spec string → same fingerprint,
//!   because new axes at their default contribute no spec line);
//! * regenerate a `results.csv` byte-identical to the one the old
//!   implementation wrote.

use std::path::{Path, PathBuf};

use re_sweep::{axis, ExperimentGrid, SweepOptions, SweepPlan};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_store")
}

/// The grid the fixture store was created for.
fn fixture_grid() -> ExperimentGrid {
    let mut g = ExperimentGrid::default()
        .with_scenes(&["ccs"])
        .with_axis(axis::SIG_BITS, vec![16, 32]);
    g.frames = 2;
    g.width = 128;
    g.height = 64;
    g
}

/// Copies the read-only fixture into a scratch directory (resuming writes
/// `results.csv` into the store).
fn scratch_copy(tag: &str) -> PathBuf {
    let dst = std::env::temp_dir().join(format!("re_sweep_legacy_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    std::fs::create_dir_all(dst.join("cells")).expect("mkdir");
    std::fs::copy(fixture_dir().join("grid.json"), dst.join("grid.json")).expect("copy");
    for entry in std::fs::read_dir(fixture_dir().join("cells")).expect("cells") {
        let p = entry.expect("entry").path();
        std::fs::copy(&p, dst.join("cells").join(p.file_name().unwrap())).expect("copy cell");
    }
    dst
}

#[test]
fn pre_registry_records_parse_with_defaulted_axes() {
    let records = re_sweep::read_records(fixture_dir()).expect("read legacy store");
    assert_eq!(records.len(), 2);
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.id, i);
        assert_eq!(r.scene(), "ccs");
        // Axes absent from the old records resolve to registry defaults.
        assert_eq!(
            r.point.get(axis::MEMO_KB),
            re_sweep::AXES[axis::MEMO_KB].default
        );
        assert_eq!(r.point.sig_compare_cycles(), 4);
        assert_eq!(r.memo_fragments_shaded, 0);
    }
    assert_eq!(records[0].point.sig_bits(), 16);
    assert_eq!(records[1].point.sig_bits(), 32);
}

#[test]
fn pre_registry_store_resumes_and_regenerates_identical_csv() {
    let dir = scratch_copy("resume");
    let grid = fixture_grid();

    // Fingerprint compatibility: the store opens for this grid at all.
    let summary = re_sweep::run_plan_with_store(
        &SweepPlan::compile(&grid),
        &SweepOptions {
            workers: 1,
            quiet: true,
            ..SweepOptions::default()
        },
        &dir,
    )
    .expect("resume legacy store");
    assert_eq!(summary.resumed, 2, "every legacy cell must be picked up");
    assert_eq!(summary.ran, 0);

    let regenerated = std::fs::read_to_string(summary.csv_path).expect("csv");
    let golden = std::fs::read_to_string(fixture_dir().join("results.csv")).expect("fixture csv");
    assert_eq!(
        regenerated, golden,
        "legacy CSV must be reproduced byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweeping_a_new_axis_is_a_different_grid_for_the_same_store() {
    // A grid that actually explores memo_kb has a different spec line →
    // different fingerprint → the legacy store must refuse to resume it
    // rather than silently mixing results.
    let dir = scratch_copy("mismatch");
    let grid = fixture_grid().with_axis(axis::MEMO_KB, vec![4, 16]);
    let err = re_sweep::ResultStore::open(&dir, &grid).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = std::fs::remove_dir_all(&dir);
}
