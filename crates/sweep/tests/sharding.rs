//! Shard determinism and merge validation (ISSUE acceptance criteria):
//!
//! * the small golden grid, run as 2-of-2 shards and merged with
//!   `merge_stores`, produces a `results.csv` byte-identical to the
//!   committed unsharded golden fixture;
//! * `merge_stores` rejects mismatched grid fingerprints, overlapping
//!   cell ids, incomplete coverage and non-empty outputs with clear,
//!   actionable errors;
//! * a proptest pins the partition law: for any grid shape and shard
//!   count, `shard(k, n)` splits render keys disjointly and totally, with
//!   each key's cells co-resident with it.

use std::collections::HashSet;
use std::path::PathBuf;

use proptest::prelude::*;
use re_sweep::{axis, merge_stores, ExperimentGrid, SweepOptions, SweepPlan};

const GOLDEN: &str = include_str!("fixtures/golden_small.csv");

/// The grid `fixtures/golden_small.csv` was generated from.
fn golden_grid() -> ExperimentGrid {
    let mut g = ExperimentGrid::default()
        .with_scenes(&["ccs", "tib"])
        .with_axis(axis::SIG_BITS, vec![16, 32])
        .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
    g.frames = 3;
    g.width = 128;
    g.height = 64;
    g
}

fn opts() -> SweepOptions {
    SweepOptions {
        workers: 2,
        quiet: true,
        ..SweepOptions::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("re_sweep_shard_{tag}_{}", std::process::id()))
}

fn fresh(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs shard `k` of `n` of `grid` into a fresh store and returns its dir.
fn run_shard(grid: &ExperimentGrid, k: usize, n: usize, tag: &str) -> PathBuf {
    let dir = fresh(tag);
    let shard = SweepPlan::compile(grid).shard(k, n).expect("shard");
    re_sweep::run_plan_with_store(&shard, &opts(), &dir).expect("shard run");
    dir
}

#[test]
fn two_shards_merge_into_the_unsharded_golden_csv_byte_for_byte() {
    let grid = golden_grid();
    let s1 = run_shard(&grid, 0, 2, "golden_s1");
    let s2 = run_shard(&grid, 1, 2, "golden_s2");
    let merged = fresh("golden_merged");

    let summary = merge_stores(&merged, &[s1.clone(), s2.clone()]).expect("merge");
    assert_eq!(summary.inputs, 2);
    assert_eq!(summary.records.len(), grid.cell_count());
    let csv = std::fs::read_to_string(&summary.csv_path).expect("merged csv");
    assert_eq!(
        csv, GOLDEN,
        "merged shards must reproduce the unsharded results.csv byte for byte"
    );

    // The merged store is a first-class unsharded store: resuming the grid
    // against it finds everything complete.
    let resumed = re_sweep::run_plan_with_store(&SweepPlan::compile(&grid), &opts(), &merged)
        .expect("resume merged");
    assert_eq!(resumed.resumed, grid.cell_count());
    assert_eq!(resumed.ran, 0);

    for d in [s1, s2, merged] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn merge_rejects_mismatched_fingerprints() {
    let grid = golden_grid();
    let s1 = run_shard(&grid, 0, 2, "fp_s1");
    // A store of a *different* grid (frames differ → different fingerprint).
    let mut other = golden_grid();
    other.frames = 2;
    let alien = fresh("fp_alien");
    re_sweep::run_plan_with_store(&SweepPlan::compile(&other), &opts(), &alien).expect("alien run");

    let err = merge_stores(fresh("fp_out"), &[s1.clone(), alien.clone()]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("fingerprint mismatch"), "{msg}");
    assert!(
        msg.contains(&s1.display().to_string()) && msg.contains(&alien.display().to_string()),
        "error must name both stores: {msg}"
    );
    assert!(msg.contains("--shard"), "must hint at the fix: {msg}");

    for d in [s1, alien] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn merge_rejects_overlapping_cell_ids() {
    let grid = golden_grid();
    // The same shard twice (under two directories) overlaps on every cell.
    let a = run_shard(&grid, 0, 2, "ov_a");
    let b = run_shard(&grid, 0, 2, "ov_b");

    let err = merge_stores(fresh("ov_out"), &[a.clone(), b.clone()]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("present in both"), "{msg}");
    assert!(
        msg.contains("merged twice"),
        "must explain the likely cause: {msg}"
    );

    for d in [a, b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn merge_rejects_incomplete_coverage_and_names_missing_cells() {
    let grid = golden_grid();
    // A consistent shard set with a gap reports the absent shard by name…
    let s1 = run_shard(&grid, 0, 2, "cov_s1");
    let err = merge_stores(fresh("cov_out"), std::slice::from_ref(&s1)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("shard(s) 2/2 missing"), "{msg}");

    // …while a partial store that is not a shard set still reports the
    // missing cell ids.
    let partial = fresh("cov_partial");
    re_sweep::run_plan_with_store(&SweepPlan::compile(&grid), &opts(), &partial).expect("full run");
    std::fs::remove_file(partial.join("cells/cell_00000.json")).expect("drop");
    let err = merge_stores(fresh("cov_out2"), std::slice::from_ref(&partial)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("missing ids: 0"), "{msg}");
    assert!(msg.contains("every shard"), "must say what to do: {msg}");

    for d in [s1, partial] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn merge_accepts_a_directory_of_shard_stores() {
    let grid = golden_grid();
    // The conventional sharded layout: one parent dir, shard-K children.
    let parent = fresh("dir_parent");
    for k in 0..2 {
        let dir = parent.join(format!("shard-{k}"));
        let shard = SweepPlan::compile(&grid).shard(k, 2).expect("shard");
        re_sweep::run_plan_with_store(&shard, &opts(), &dir).expect("shard run");
    }

    let merged = fresh("dir_merged");
    let summary = merge_stores(&merged, std::slice::from_ref(&parent)).expect("merge dir");
    assert_eq!(summary.inputs, 2, "parent expands to its shard-* children");
    let csv = std::fs::read_to_string(&summary.csv_path).expect("merged csv");
    assert_eq!(csv, GOLDEN);

    // A directory with no store and no shard-* children still errors
    // clearly.
    let empty = fresh("dir_empty");
    std::fs::create_dir_all(&empty).expect("mkdir");
    let err = merge_stores(fresh("dir_out2"), std::slice::from_ref(&empty)).unwrap_err();
    assert!(err.to_string().contains("not a sweep store"), "{err}");

    for d in [parent, merged, empty] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn merge_coverage_failure_names_the_missing_shards() {
    let grid = golden_grid();
    // Shards 1/3 and 3/3 present, 2/3 absent: the error must say so in
    // the same one-based K/N notation `--shard` takes.
    let s1 = run_shard(&grid, 0, 3, "ms_s1");
    let s3 = run_shard(&grid, 2, 3, "ms_s3");

    let err = merge_stores(fresh("ms_out"), &[s1.clone(), s3.clone()]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("shard(s) 2/3 missing"), "{msg}");
    assert!(msg.contains("run those shards"), "{msg}");

    for d in [s1, s3] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn merge_rejects_out_of_range_cell_ids() {
    // A stray record with an id beyond the grid (e.g. cell files copied
    // from a larger grid's store) must not mask a missing cell in the
    // coverage check.
    let grid = golden_grid();
    let s1 = run_shard(&grid, 0, 2, "oor_s1");
    let s2 = run_shard(&grid, 1, 2, "oor_s2");
    // Forge an out-of-range record in s1 by re-keying a real one.
    let donor = std::fs::read_to_string(s1.join("cells/cell_00000.json")).expect("donor");
    std::fs::write(
        s1.join("cells/cell_00099.json"),
        donor.replacen("\"id\":0", "\"id\":99", 1),
    )
    .expect("forge");
    // Drop a real cell so the count still matches the grid.
    std::fs::remove_file(s1.join("cells/cell_00001.json")).expect("drop");

    let err = merge_stores(fresh("oor_out"), &[s1.clone(), s2.clone()]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let msg = err.to_string();
    assert!(msg.contains("out of range"), "{msg}");
    assert!(msg.contains("99"), "{msg}");

    for d in [s1, s2] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn merge_refuses_a_non_empty_output_store() {
    let grid = golden_grid();
    let s1 = run_shard(&grid, 0, 2, "ne_s1");
    let s2 = run_shard(&grid, 1, 2, "ne_s2");

    // Merging into a store that already holds records must fail loudly
    // rather than double-count or silently mix: into a completed unsharded
    // store…
    let full = fresh("ne_full");
    re_sweep::run_plan_with_store(&SweepPlan::compile(&grid), &opts(), &full).expect("full run");
    let err = merge_stores(full.clone(), &[s1.clone(), s2.clone()]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("fresh or empty"), "{err}");

    // …and into one of the shard stores (caught as a shard-identity clash
    // before any record could be written).
    let err = merge_stores(s1.clone(), &[s1.clone(), s2.clone()]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("separate directory"), "{err}");

    let err = merge_stores(fresh("ne_out"), &[]).unwrap_err();
    assert!(err.to_string().contains("at least one input"), "{err}");

    for d in [s1, s2, full] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn merging_one_complete_store_round_trips() {
    let grid = golden_grid();
    let full = fresh("rt_full");
    let summary = re_sweep::run_plan_with_store(&SweepPlan::compile(&grid), &opts(), &full)
        .expect("full run");
    let full_csv = std::fs::read_to_string(&summary.csv_path).expect("csv");

    let out = fresh("rt_out");
    let merged = merge_stores(&out, std::slice::from_ref(&full)).expect("merge");
    assert_eq!(
        std::fs::read_to_string(&merged.csv_path).expect("merged csv"),
        full_csv
    );

    for d in [full, out] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `shard(k, n)` is an exact partition of the plan's render keys, for
    /// any grid shape: shards are pairwise disjoint (keys *and* cells),
    /// their union is total, and every key's cells stay co-resident with
    /// their key. Pure plan algebra — no simulation runs here.
    #[test]
    fn shard_partitions_render_keys_exactly(
        scene_mask in 1u32..(1 << 4),
        tile_mask in 1u32..(1 << 3),
        sig_mask in 1u32..(1 << 3),
        dist_mask in 1u32..(1 << 3),
        bin_mask in 1u32..(1 << 2),
        n in 1usize..=7,
    ) {
        // The vendored proptest has no subsequence strategy; non-zero
        // bitmasks over fixed candidate lists pick the same subsets.
        fn masked(mask: u32, candidates: &[u64]) -> Vec<u64> {
            candidates
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &v)| v)
                .collect()
        }
        let all = ["ccs", "ter", "mst", "tib"];
        let scenes: Vec<&str> = all
            .iter()
            .enumerate()
            .filter(|&(i, _)| scene_mask & (1 << i) != 0)
            .map(|(_, s)| *s)
            .collect();
        let mut grid = ExperimentGrid::default()
            .with_scenes(&scenes)
            .with_axis(axis::TILE_SIZE, masked(tile_mask, &[8, 16, 32]))
            .with_axis(axis::SIG_BITS, masked(sig_mask, &[8, 16, 32]))
            .with_axis(axis::COMPARE_DISTANCE, masked(dist_mask, &[1, 2, 4]))
            .with_axis(axis::BINNING, masked(bin_mask, &[0, 1]));
        grid.frames = 2;
        grid.width = 64;
        grid.height = 32;

        let plan = SweepPlan::compile(&grid);
        let mut seen_keys = HashSet::new();
        let mut seen_cells = HashSet::new();
        for k in 0..n {
            let shard = plan.shard(k, n).expect("shard");
            prop_assert_eq!(shard.total_cells(), plan.total_cells());
            prop_assert_eq!(shard.fingerprint(), plan.fingerprint());
            for rj in shard.render_jobs() {
                // Disjoint: no key in two shards.
                prop_assert!(seen_keys.insert(rj.key));
                // Co-resident: the shard holds *all* of the key's cells.
                let full = plan
                    .render_jobs()
                    .iter()
                    .find(|f| f.key == rj.key)
                    .expect("key from shard exists in full plan");
                prop_assert_eq!(&rj.cells, &full.cells);
            }
            for ej in shard.eval_jobs() {
                prop_assert!(seen_cells.insert(ej.cell.id));
                // Each eval job points at its own key's render job.
                prop_assert_eq!(
                    shard.render_jobs()[ej.render_job].key,
                    ej.cell.render_key()
                );
            }
        }
        // Total: the union is the whole plan.
        prop_assert_eq!(seen_keys.len(), plan.render_job_count());
        prop_assert_eq!(seen_cells.len(), plan.cell_count());
    }
}
