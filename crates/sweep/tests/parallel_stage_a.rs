//! Determinism and raster-accounting contract of parallel Stage A and
//! compressed render logs:
//!
//! * the same grid run under every `--workers` × `--relog-compress`
//!   combination produces a byte-identical `results.csv` (the worker count
//!   is Stage A's budget: one worker renders each key as one chunk, four
//!   split a key's frames into chunks);
//! * frame chunking never changes the number of raster invocations —
//!   each render key still rasterizes exactly frames × tiles, regardless
//!   of how the frames were split;
//! * compressed `.relog` artifacts are strictly smaller than stored ones
//!   and replay raster-free with identical results.
//!
//! Raster counts are the ones each run returns.

use re_sweep::{axis, ExperimentGrid, SweepOptions, SweepPlan};

#[test]
fn render_worker_and_compression_matrix_is_byte_identical_and_raster_exact() {
    let mut grid = ExperimentGrid::default()
        .with_scenes(&["ccs", "tib"])
        .with_axis(axis::SIG_BITS, vec![16, 32])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
    grid.frames = 6;
    grid.width = 128;
    grid.height = 64;
    let tile_count = (128 / 16) * (64 / 16); // default 16px tiles, 32 tiles
    let per_render = grid.frames as u64 * tile_count;
    let render_keys = 2u64; // scene is the only render axis

    let base = std::env::temp_dir().join(format!("re_par_stage_a_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let opts = |workers: usize, relog_compress: bool| SweepOptions {
        workers,
        relog_compress,
        quiet: true,
        trace_dir: Some(base.join("traces")),
        log_dir: Some(base.join(format!("logs-w{workers}-c{relog_compress}"))),
        ..SweepOptions::default()
    };
    let plan = SweepPlan::compile(&grid);

    // The RE_SWEEP_WORKERS={1,4} × --relog-compress={on,off} matrix: every
    // combination renders each key exactly once (chunking is raster-exact)
    // and produces the identical CSV.
    let mut csvs = Vec::new();
    for (workers, compress) in [(1, false), (4, false), (1, true), (4, true)] {
        let store = base.join(format!("store-w{workers}-c{compress}"));
        let summary =
            re_sweep::run_plan_with_store(&plan, &opts(workers, compress), &store).expect("sweep");
        assert_eq!(
            summary.rasters,
            render_keys * per_render,
            "workers={workers} compress={compress}: parallel Stage A must \
             rasterize each key exactly once"
        );
        assert_eq!(summary.ran, grid.cell_count());
        csvs.push(std::fs::read_to_string(&summary.csv_path).expect("csv"));
    }
    for csv in &csvs[1..] {
        assert_eq!(
            csv, &csvs[0],
            "results.csv must not depend on workers or compression"
        );
    }

    // Compressed artifacts carry the same keys in strictly fewer bytes.
    let dir_sizes = |dir: &std::path::Path| -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = std::fs::read_dir(dir)
            .expect("log dir")
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    e.metadata().unwrap().len(),
                )
            })
            .filter(|(name, _)| name.ends_with(".relog"))
            .collect();
        v.sort();
        v
    };
    let stored = dir_sizes(&base.join("logs-w4-cfalse"));
    let packed = dir_sizes(&base.join("logs-w4-ctrue"));
    assert_eq!(stored.len(), render_keys as usize);
    assert_eq!(packed.len(), render_keys as usize);
    for ((name_s, size_s), (name_p, size_p)) in stored.iter().zip(&packed) {
        assert_eq!(
            name_s, name_p,
            "same cache keys under both compression settings"
        );
        assert!(
            size_p < size_s,
            "{name_p}: compressed ({size_p} B) must beat stored ({size_s} B)"
        );
    }

    // Warm compressed cache: zero raster invocations, identical results.
    let warm = re_sweep::run_grid(&grid, &opts(4, true)).expect("warm sweep");
    assert_eq!(
        warm.rasters, 0,
        "a warm compressed cache must replay raster-free"
    );
    let records: Vec<re_sweep::CellRecord> = warm
        .outcomes
        .iter()
        .map(|o| re_sweep::CellRecord::from_run(&o.cell, &o.report))
        .collect();
    assert_eq!(re_sweep::render_csv(&records), csvs[0]);

    let _ = std::fs::remove_dir_all(&base);
}
