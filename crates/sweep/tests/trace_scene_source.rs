//! Imported traces as first-class scene-axis values, end to end:
//! capture → export → `import_file` → `trace:<alias>` grid → results.
//!
//! The contract mirrors the built-in scenes': `results.csv` is
//! byte-identical across worker counts, and a warm artifact cache replays
//! the whole grid with **zero** raster invocations.

use re_sweep::{axis, CellRecord, ExperimentGrid, SweepOptions};

/// The grid's `results.csv` and the tiles its execution rasterized.
fn csv_for(grid: &ExperimentGrid, opts: &SweepOptions) -> (String, u64) {
    let run = re_sweep::run_grid(grid, opts).expect("sweep");
    let records: Vec<CellRecord> = run
        .outcomes
        .iter()
        .map(|o| CellRecord::from_run(&o.cell, &o.report))
        .collect();
    (re_sweep::render_csv(&records), run.rasters)
}

#[test]
fn imported_trace_grids_are_deterministic_and_replay_from_a_warm_cache() {
    let dir = std::env::temp_dir().join(format!("re_trace_source_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // An "external" capture: the vector map scene recorded at a config
    // that does NOT match the grid below — import must re-capture the
    // replay under the grid's own screen/tile parameters.
    let src = dir.join("Exported Capture.retrace");
    let mut scene = re_workloads::source::builtin_scene("vmap").expect("vmap");
    re_trace::capture(
        &mut *scene,
        re_gpu::GpuConfig {
            width: 96,
            height: 96,
            tile_size: 8,
            ..Default::default()
        },
        40,
    )
    .save(&src)
    .unwrap();

    let imports = dir.join("imports");
    let outcome = re_sweep::importer::import_file(&src, None, &imports).expect("import succeeds");
    assert_eq!(outcome.alias, "trace:exported-capture");
    assert_eq!(outcome.frames, 40);

    // A two-cell grid over the imported trace (an eval-only second axis
    // keeps it one render key).
    let mut grid = ExperimentGrid::default()
        .with_scenes(&["trace:exported-capture"])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
    grid.frames = 8;
    grid.width = 128;
    grid.height = 64;
    assert_eq!(grid.scene_aliases(), ["trace:exported-capture"]);

    let cache = dir.join("cache");
    let opts = |workers| SweepOptions {
        workers,
        quiet: true,
        trace_dir: Some(cache.clone()),
        log_dir: Some(cache.clone()),
        ..SweepOptions::default()
    };

    // Cold: renders once, caches `.retrace` + `.relog` artifacts (with
    // the `:` sanitized out of the file names).
    let (cold, rasters) = csv_for(&grid, &opts(1));
    // One key: 8 frames × 32 16px tiles.
    assert_eq!(rasters, 8 * 32, "cold run renders its key once");
    let cached: Vec<String> = std::fs::read_dir(&cache)
        .expect("cache dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        cached.iter().all(|name| !name.contains(':')),
        "artifact names must sanitize the alias colon: {cached:?}"
    );
    assert!(
        cached.iter().any(|n| n.contains("trace+exported-capture")),
        "expected sanitized artifacts in {cached:?}"
    );

    // Warm, different worker count: byte-identical CSV, zero rasters.
    let (warm, rasters) = csv_for(&grid, &opts(4));
    assert_eq!(
        rasters, 0,
        "a warm cache must replay the imported-trace grid without rasterizing"
    );
    assert_eq!(
        cold, warm,
        "results.csv diverged across workers/cache state"
    );
    assert!(warm.contains("trace:exported-capture"), "{warm}");

    let _ = std::fs::remove_dir_all(&dir);
}
