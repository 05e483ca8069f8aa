//! Suite execution: a thin layer over the `re-sweep` orchestration engine.
//!
//! The harness describes the suite run as a one-config [`ExperimentGrid`]
//! and lets the sweep engine do the work — trace capture, parallel fan-out
//! across workers, deterministic cell-order aggregation — then decorates
//! the reports with the Table II metadata the figure printers consume.

use re_core::{RunReport, SimOptions, Simulator};
use re_gpu::GpuConfig;
use re_sweep::{ExperimentGrid, SweepOptions};
use re_workloads::Benchmark;

/// One benchmark's metadata plus its simulation report.
pub struct SuiteResult {
    /// Alias (`ccs` … `tib`).
    pub alias: &'static str,
    /// Game the generator stands in for.
    pub stands_for: &'static str,
    /// Genre (Table II).
    pub genre: &'static str,
    /// 2D or 3D.
    pub is_3d: bool,
    /// The simulator's report.
    pub report: RunReport,
}

/// Execution options for the harness.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Frames per benchmark (paper: 50).
    pub frames: usize,
    /// Screen width (paper: 1196).
    pub width: u32,
    /// Screen height (paper: 768).
    pub height: u32,
    /// Tile edge (paper: 16).
    pub tile_size: u32,
    /// Signature/color comparison distance (paper §IV-C: 2).
    pub compare_distance: usize,
    /// Worker threads for suite runs (0 = one per hardware thread).
    pub workers: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            frames: 50,
            width: 1196,
            height: 768,
            tile_size: 16,
            compare_distance: 2,
            workers: 0,
        }
    }
}

impl HarnessOptions {
    /// A reduced configuration for quick runs (`figures --fast`): quarter
    /// resolution, 48 frames (enough to cover every scene's phase cycle).
    /// Shapes are preserved; absolute counts shrink.
    pub fn fast() -> Self {
        HarnessOptions {
            frames: 48,
            width: 400,
            height: 256,
            ..HarnessOptions::default()
        }
    }

    /// Converts to simulator options (the paper's design point otherwise).
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            gpu: GpuConfig {
                width: self.width,
                height: self.height,
                tile_size: self.tile_size,
                ..Default::default()
            },
            compare_distance: self.compare_distance,
            ..SimOptions::default()
        }
    }

    /// The full ten-benchmark suite as a one-config experiment grid.
    pub fn grid(&self) -> ExperimentGrid {
        let mut g = ExperimentGrid::default()
            .with_axis(re_sweep::axis::TILE_SIZE, vec![self.tile_size as u64])
            .with_axis(
                re_sweep::axis::COMPARE_DISTANCE,
                vec![self.compare_distance as u64],
            );
        g.frames = self.frames;
        g.width = self.width;
        g.height = self.height;
        g
    }

    fn sweep_options(&self) -> SweepOptions {
        SweepOptions {
            workers: self.workers,
            ..SweepOptions::default()
        }
    }
}

/// Runs one benchmark and returns its report.
pub fn run_benchmark(mut bench: Benchmark, opts: &HarnessOptions) -> SuiteResult {
    let mut sim = Simulator::new(opts.sim_options());
    let report = sim.run(bench.scene.as_mut(), opts.frames);
    SuiteResult {
        alias: bench.alias,
        stands_for: bench.stands_for,
        genre: bench.genre,
        is_3d: bench.is_3d,
        report,
    }
}

/// Runs the full ten-benchmark suite through the sweep engine: each scene
/// is captured once, replayed in parallel across the worker pool, and the
/// reports come back in suite order regardless of scheduling.
pub fn run_suite(opts: &HarnessOptions) -> Vec<SuiteResult> {
    let outcomes = re_sweep::run_grid(&opts.grid(), &opts.sweep_options())
        .expect("in-memory suite sweep cannot hit store I/O")
        .outcomes;
    outcomes
        .into_iter()
        .map(|o| {
            let meta = re_workloads::by_alias(o.cell.scene()).expect("suite alias");
            SuiteResult {
                alias: meta.alias,
                stands_for: meta.stands_for,
                genre: meta.genre,
                is_3d: meta.is_3d,
                report: o.report,
            }
        })
        .collect()
}

/// Geometric mean (for normalized-ratio averages, as architecture papers
/// conventionally aggregate; the arithmetic mean is also reported where the
/// paper uses it).
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for x in xs {
        log_sum += x.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean([1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(Vec::<f64>::new()), 0.0);
        assert_eq!(mean(Vec::<f64>::new()), 0.0);
    }

    #[test]
    fn tiny_run_of_one_benchmark() {
        let opts = HarnessOptions {
            frames: 4,
            width: 128,
            height: 64,
            ..HarnessOptions::default()
        };
        let b = re_workloads::by_alias("ccs").unwrap();
        let r = run_benchmark(b, &opts);
        assert_eq!(r.alias, "ccs");
        assert_eq!(r.report.frames, 4);
        assert!(r.report.baseline.total_cycles() > 0);
    }

    #[test]
    fn suite_grid_covers_all_ten_in_paper_order() {
        let opts = HarnessOptions {
            frames: 2,
            width: 128,
            height: 64,
            ..Default::default()
        };
        let grid = opts.grid();
        assert_eq!(grid.cell_count(), 10);
        let aliases: Vec<&str> = re_workloads::suite().iter().map(|b| b.alias).collect();
        assert_eq!(grid.scene_aliases(), aliases);
        // The suite run via the sweep engine matches a direct simulator run.
        let through_sweep = run_suite(&opts);
        assert_eq!(through_sweep.len(), 10);
        let direct = run_benchmark(re_workloads::by_alias("ccs").unwrap(), &opts);
        assert_eq!(
            through_sweep[0].report.baseline.total_cycles(),
            direct.report.baseline.total_cycles()
        );
        assert_eq!(
            through_sweep[0].report.re.tiles_skipped,
            direct.report.re.tiles_skipped
        );
    }
}
