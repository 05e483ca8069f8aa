//! Explicit sweep job graphs: what a sweep *is*, separate from how it runs.
//!
//! [`SweepPlan::compile`] turns an [`ExperimentGrid`] into typed work
//! units:
//!
//! * one [`RenderJob`] per distinct [`RenderKey`] — the Stage A unit; its
//!   output (a `re_core::RenderLog`) is consumed by every cell of the key;
//! * one [`EvalJob`] per grid cell — the Stage B unit, holding the cell
//!   and the index of the render job it depends on.
//!
//! The plan is the seam every execution strategy plugs into:
//! [`crate::exec::execute`] runs it in-process on a work-stealing pool, and
//! **sharding** partitions it across machines. [`SweepPlan::shard`] splits the plan *by render
//! key* — never by cell — so each shard still rasterizes each of its keys
//! exactly once, and the union of all shards is exactly the original plan
//! ([disjoint, total, cells co-resident with their key][`SweepPlan::shard`]).
//! [`SweepPlan::without_cells`] is the same mechanism applied to resume:
//! completed cells drop out and render jobs whose cells are all done
//! disappear with them.
//!
//! Everything here is a pure function of the grid: job order, ids and the
//! shard partition are deterministic, so two machines compiling the same
//! grid agree on every shard's contents without communicating.

use std::collections::HashSet;

use crate::grid::{Cell, ExperimentGrid, RenderKey};

/// Which shard of a plan this is: shard `index` of `count` (zero-based).
///
/// The CLI form (`--shard 1/2`, [`ShardSpec::parse`]/[`Display`]) is
/// one-based — "shard 1 of 2" — while the API index is zero-based.
///
/// [`Display`]: std::fmt::Display
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index (`0..count`).
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// Parses the one-based CLI form `K/N` (e.g. `1/2` is the first of two
    /// shards).
    ///
    /// # Errors
    /// A ready-to-print message for anything but `K/N` with
    /// `1 <= K <= N`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let bad = || format!("expected K/N with 1 <= K <= N, e.g. `1/2` (got `{s}`)");
        let (k, n) = s.split_once('/').ok_or_else(bad)?;
        let k: usize = k.trim().parse().map_err(|_| bad())?;
        let n: usize = n.trim().parse().map_err(|_| bad())?;
        if k == 0 || n == 0 || k > n {
            return Err(bad());
        }
        Ok(ShardSpec {
            index: k - 1,
            count: n,
        })
    }
}

impl std::fmt::Display for ShardSpec {
    /// The one-based CLI/store form (`1/2`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index + 1, self.count)
    }
}

/// The Stage A unit: rasterize one render key once.
///
/// Identified by its position in [`SweepPlan::render_jobs`]; positions are
/// assigned in first-cell order, so they are stable for a given plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderJob {
    /// The render key this job rasterizes.
    pub key: RenderKey,
    /// Ids of the cells evaluating this job's log, ascending.
    pub cells: Vec<usize>,
    /// Path of a cached `.relog` whose header identifies this key, set by
    /// [`SweepPlan::attach_cached_logs`]. When present the job is
    /// **satisfied**: the executor replays the artifact instead of
    /// rasterizing, so the job costs zero raster invocations (unless a
    /// frame fails its CRC on decode, and the key renders after all).
    pub cached_log: Option<std::path::PathBuf>,
}

impl RenderJob {
    /// Whether a cached log already satisfies this job.
    pub fn is_satisfied(&self) -> bool {
        self.cached_log.is_some()
    }
}

/// The Stage B unit: evaluate one cell against its render job's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalJob {
    /// The grid cell to evaluate.
    pub cell: Cell,
    /// Index of the cell's render job in [`SweepPlan::render_jobs`].
    pub render_job: usize,
}

/// The compiled job graph of one sweep (or one shard of it).
///
/// Carries everything [`crate::exec::execute`] or a store
/// needs that would otherwise require the grid: the fingerprint and spec
/// string (store identity), screen/frame scalars (trace capture), and the
/// full grid's cell count (id-range validation) — so a shard can be
/// shipped, executed and persisted without the grid in hand.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    fingerprint: u64,
    spec: String,
    total_cells: usize,
    frames: usize,
    width: u32,
    height: u32,
    render_jobs: Vec<RenderJob>,
    eval_jobs: Vec<EvalJob>,
    shard: Option<ShardSpec>,
}

impl SweepPlan {
    /// Compiles `grid` into its job graph: render jobs in first-cell
    /// order, eval jobs in cell-id order.
    ///
    /// # Panics
    /// Panics if the grid has no frames (same contract as
    /// [`ExperimentGrid::cells`]).
    pub fn compile(grid: &ExperimentGrid) -> SweepPlan {
        let cells = grid.cells();
        let mut index = std::collections::HashMap::new();
        let mut render_jobs: Vec<RenderJob> = Vec::new();
        let mut eval_jobs = Vec::with_capacity(cells.len());
        for cell in cells {
            let key = cell.render_key();
            let job = *index.entry(key).or_insert_with(|| {
                render_jobs.push(RenderJob {
                    key,
                    cells: Vec::new(),
                    cached_log: None,
                });
                render_jobs.len() - 1
            });
            render_jobs[job].cells.push(cell.id);
            eval_jobs.push(EvalJob {
                cell,
                render_job: job,
            });
        }
        SweepPlan {
            fingerprint: grid.fingerprint(),
            spec: grid.spec_string(),
            total_cells: eval_jobs.len(),
            frames: grid.frames,
            width: grid.width,
            height: grid.height,
            render_jobs,
            eval_jobs,
            shard: None,
        }
    }

    /// Shard `index` of `count`, partitioned **by render key**: render job
    /// `j` goes to shard `j % count`, and every cell travels with its key.
    ///
    /// The partition is exact: the `count` shards' render jobs are
    /// pairwise disjoint, their union is the full plan, and each key's
    /// cells are co-resident with it — so each machine still rasterizes
    /// each of its keys exactly once, and merging the shards' stores
    /// reproduces the unsharded sweep byte for byte. A shard may be empty
    /// when `count` exceeds the number of render keys.
    ///
    /// # Errors
    /// `count == 0`, `index >= count`, or sharding an already-sharded
    /// plan (shard the original plan with a finer `count` instead).
    pub fn shard(&self, index: usize, count: usize) -> Result<SweepPlan, String> {
        if let Some(s) = self.shard {
            return Err(format!(
                "plan is already shard {s}; shard the unsharded plan instead"
            ));
        }
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shards"
            ));
        }
        let keep: HashSet<usize> = (index..self.render_jobs.len()).step_by(count).collect();
        let eval = self
            .eval_jobs
            .iter()
            .filter(|j| keep.contains(&j.render_job))
            .copied()
            .collect();
        Ok(self.rebuilt(eval, Some(ShardSpec { index, count })))
    }

    /// The plan minus the cells in `done` (resume): their eval jobs drop
    /// out, and render jobs whose cells are all done disappear with them.
    pub fn without_cells(&self, done: &HashSet<usize>) -> SweepPlan {
        let eval = self
            .eval_jobs
            .iter()
            .filter(|j| !done.contains(&j.cell.id))
            .copied()
            .collect();
        self.rebuilt(eval, self.shard)
    }

    /// Rebuilds a plan around a filtered eval-job list: render jobs are
    /// re-derived (original relative order, per-job cell lists recomputed)
    /// and eval jobs re-pointed at the new positions.
    fn rebuilt(&self, eval: Vec<EvalJob>, shard: Option<ShardSpec>) -> SweepPlan {
        let mut map: Vec<Option<usize>> = vec![None; self.render_jobs.len()];
        let mut render_jobs: Vec<RenderJob> = Vec::new();
        let mut eval_jobs = Vec::with_capacity(eval.len());
        for job in eval {
            let new = match map[job.render_job] {
                Some(n) => n,
                None => {
                    render_jobs.push(RenderJob {
                        key: self.render_jobs[job.render_job].key,
                        cells: Vec::new(),
                        cached_log: self.render_jobs[job.render_job].cached_log.clone(),
                    });
                    map[job.render_job] = Some(render_jobs.len() - 1);
                    render_jobs.len() - 1
                }
            };
            render_jobs[new].cells.push(job.cell.id);
            eval_jobs.push(EvalJob {
                cell: job.cell,
                render_job: new,
            });
        }
        SweepPlan {
            fingerprint: self.fingerprint,
            spec: self.spec.clone(),
            total_cells: self.total_cells,
            frames: self.frames,
            width: self.width,
            height: self.height,
            render_jobs,
            eval_jobs,
            shard,
        }
    }

    /// Marks every render job whose cached `.relog` header identifies its
    /// key as satisfied (its [`RenderJob::cached_log`] is set to the
    /// artifact's path) and returns how many jobs that matched. Jobs the
    /// cache misses — including stale or old-format artifacts, which
    /// `lookup` rejects and removes — are left to render normally. Only
    /// headers are read here: frame CRCs are checked when the executor
    /// decodes the artifact, and a corrupt one re-renders its key then.
    ///
    /// Resume composes with this naturally: [`Self::without_cells`] first
    /// drops completed cells, then the cached logs satisfy the remaining
    /// keys, so a fully warm resume performs zero raster invocations.
    pub fn attach_cached_logs(&mut self, cache: &crate::artifacts::RenderLogCache) -> usize {
        let mut satisfied = 0;
        for job in &mut self.render_jobs {
            job.cached_log = cache.lookup(&job.key);
            satisfied += usize::from(job.cached_log.is_some());
        }
        satisfied
    }

    /// Number of render jobs already satisfied by a cached log.
    pub fn satisfied_render_jobs(&self) -> usize {
        self.render_jobs.iter().filter(|j| j.is_satisfied()).count()
    }

    /// The Stage A jobs, in first-cell order.
    pub fn render_jobs(&self) -> &[RenderJob] {
        &self.render_jobs
    }

    /// The Stage B jobs, in cell-id order.
    pub fn eval_jobs(&self) -> &[EvalJob] {
        &self.eval_jobs
    }

    /// Number of render jobs (distinct render keys) in this plan.
    pub fn render_job_count(&self) -> usize {
        self.render_jobs.len()
    }

    /// Number of cells (eval jobs) in this plan.
    pub fn cell_count(&self) -> usize {
        self.eval_jobs.len()
    }

    /// Cell count of the **full** grid the plan was compiled from — the id
    /// space shards and stores share (a shard's own cell count is
    /// [`cell_count`](Self::cell_count)).
    pub fn total_cells(&self) -> usize {
        self.total_cells
    }

    /// Mean cells per render key — the fan-out factor render-once grouping
    /// exploits (0 for an empty plan).
    pub fn cells_per_key(&self) -> f64 {
        if self.render_jobs.is_empty() {
            0.0
        } else {
            self.eval_jobs.len() as f64 / self.render_jobs.len() as f64
        }
    }

    /// The grid fingerprint ([`ExperimentGrid::fingerprint`]) — shared by
    /// every shard of a plan, which is what makes cross-machine merges
    /// checkable.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The grid's canonical spec string ([`ExperimentGrid::spec_string`]).
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Which shard this plan is, if any.
    pub fn shard_spec(&self) -> Option<ShardSpec> {
        self.shard
    }

    /// Frames per cell (trace capture needs it).
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Screen width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Screen height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Distinct workload aliases of this plan's cells, in first-use order
    /// (the scenes a runner must capture traces for).
    pub fn scene_aliases(&self) -> Vec<&'static str> {
        let mut seen = HashSet::new();
        self.eval_jobs
            .iter()
            .map(|j| j.cell.scene())
            .filter(|s| seen.insert(*s))
            .collect()
    }

    /// Distinct aliases of render jobs a cached log does **not** satisfy,
    /// in job order — the only scenes a grouped execution still needs
    /// traces for (a fully satisfied plan needs none, which is what makes
    /// a warm-cache resume capture- and raster-free).
    pub fn pending_scene_aliases(&self) -> Vec<&'static str> {
        let mut seen = HashSet::new();
        self.render_jobs
            .iter()
            .filter(|j| !j.is_satisfied())
            .map(|j| j.key.scene())
            .filter(|s| seen.insert(*s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis;

    fn grid() -> ExperimentGrid {
        let mut g = ExperimentGrid::default()
            .with_scenes(&["ccs", "tib"])
            .with_axis(axis::TILE_SIZE, vec![8, 16])
            .with_axis(axis::SIG_BITS, vec![16, 32])
            .with_axis(axis::COMPARE_DISTANCE, vec![1, 2]);
        g.frames = 2;
        g.width = 128;
        g.height = 64;
        g
    }

    #[test]
    fn compile_builds_one_render_job_per_key() {
        let plan = SweepPlan::compile(&grid());
        // 2 scenes × 2 tile sizes render-side; sig bits × distance eval-side.
        assert_eq!(plan.render_job_count(), 4);
        assert_eq!(plan.cell_count(), 16);
        assert_eq!(plan.total_cells(), 16);
        assert_eq!(plan.cells_per_key(), 4.0);
        assert_eq!(plan.scene_aliases(), ["ccs", "tib"]);
        assert_eq!(plan.fingerprint(), grid().fingerprint());
        // Eval jobs are in cell-id order and point at their key's job.
        for (i, job) in plan.eval_jobs().iter().enumerate() {
            assert_eq!(job.cell.id, i);
            assert_eq!(
                plan.render_jobs()[job.render_job].key,
                job.cell.render_key()
            );
            assert!(plan.render_jobs()[job.render_job].cells.contains(&i));
        }
        // Render-job cell lists are ascending and total 16.
        let mut seen = 0;
        for rj in plan.render_jobs() {
            assert!(rj.cells.windows(2).all(|w| w[0] < w[1]));
            seen += rj.cells.len();
        }
        assert_eq!(seen, 16);
    }

    #[test]
    fn shards_partition_render_keys_exactly() {
        let plan = SweepPlan::compile(&grid());
        for n in 1..=6 {
            let mut seen_cells = HashSet::new();
            let mut seen_keys = HashSet::new();
            for k in 0..n {
                let shard = plan.shard(k, n).expect("shard");
                assert_eq!(shard.shard_spec(), Some(ShardSpec { index: k, count: n }));
                assert_eq!(shard.total_cells(), plan.total_cells());
                assert_eq!(shard.fingerprint(), plan.fingerprint());
                for rj in shard.render_jobs() {
                    assert!(seen_keys.insert(rj.key), "key in two shards");
                    // Co-residency: the shard holds every cell of its keys.
                    let full = plan
                        .render_jobs()
                        .iter()
                        .find(|f| f.key == rj.key)
                        .expect("key exists in full plan");
                    assert_eq!(rj.cells, full.cells);
                }
                for ej in shard.eval_jobs() {
                    assert!(seen_cells.insert(ej.cell.id), "cell in two shards");
                }
            }
            assert_eq!(seen_cells.len(), plan.cell_count(), "n={n}");
            assert_eq!(seen_keys.len(), plan.render_job_count(), "n={n}");
        }
    }

    #[test]
    fn shard_validation() {
        let plan = SweepPlan::compile(&grid());
        assert!(plan.shard(0, 0).is_err());
        assert!(plan.shard(2, 2).is_err());
        let shard = plan.shard(0, 2).unwrap();
        let err = shard.shard(0, 2).unwrap_err();
        assert!(err.contains("already shard 1/2"), "{err}");
    }

    #[test]
    fn oversharded_plans_have_empty_tails() {
        let plan = SweepPlan::compile(&grid());
        let empty = plan.shard(5, 6).expect("shard");
        assert_eq!(empty.cell_count(), 0);
        assert_eq!(empty.render_job_count(), 0);
        assert_eq!(empty.cells_per_key(), 0.0);
        assert!(empty.scene_aliases().is_empty());
    }

    #[test]
    fn without_cells_drops_jobs_and_empty_keys() {
        let plan = SweepPlan::compile(&grid());
        // Finish every cell of the first render job plus one more cell.
        let mut done: HashSet<usize> = plan.render_jobs()[0].cells.iter().copied().collect();
        let extra = plan.render_jobs()[1].cells[0];
        done.insert(extra);
        let rest = plan.without_cells(&done);
        assert_eq!(rest.cell_count(), plan.cell_count() - done.len());
        assert_eq!(rest.render_job_count(), plan.render_job_count() - 1);
        assert_eq!(rest.total_cells(), plan.total_cells());
        for job in rest.eval_jobs() {
            assert!(!done.contains(&job.cell.id));
            assert_eq!(
                rest.render_jobs()[job.render_job].key,
                job.cell.render_key()
            );
        }
        // Resuming nothing is the identity.
        assert_eq!(plan.without_cells(&HashSet::new()), plan);
    }

    #[test]
    fn shard_spec_parses_the_cli_form() {
        assert_eq!(
            ShardSpec::parse("1/2"),
            Ok(ShardSpec { index: 0, count: 2 })
        );
        assert_eq!(
            ShardSpec::parse("3/3"),
            Ok(ShardSpec { index: 2, count: 3 })
        );
        assert_eq!(ShardSpec { index: 0, count: 2 }.to_string(), "1/2");
        for bad in ["0/2", "3/2", "1", "a/b", "1/0", "", "1/2/3"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad}");
        }
    }
}
