//! Experiment grids: the cross product of registered axes and their value
//! lists.
//!
//! A grid names the design-space the HPCA'19 paper explores — one value
//! list per axis in [`crate::axis::AXES`], crossed in registry order (the
//! scene axis is the outermost loop). Each point of the product is a
//! [`Cell`] with a stable integer id; cell ids (and therefore every
//! downstream artifact: store filenames, CSV row order) are a pure
//! function of the grid, independent of worker count or completion order.
//!
//! Nothing in this module names an individual axis: enumeration,
//! validation, spec strings, fingerprints and render keys are all derived
//! from the registry, so a new axis definition is automatically part of
//! every grid.

use re_gpu::{BinningMode, GpuConfig};

use crate::axis::{self, AxisDef, AxisId, ParamPoint, Presence, AXES, AXIS_COUNT};

/// Display name of a binning mode (used in CSV/JSON and CLI parsing) — a
/// thin view of the registry's name table.
pub fn binning_name(mode: BinningMode) -> &'static str {
    axis::BINNING_NAMES[axis::binning_to_raw(mode) as usize].0
}

/// Parses a binning-mode name (`bbox` / `exact`).
pub fn parse_binning(name: &str) -> Option<BinningMode> {
    AXES[axis::BINNING]
        .parse_value(name)
        .ok()
        .map(axis::binning_from_raw)
}

/// The subset of a cell that determines Stage A's output: two cells with
/// equal render keys rasterize pixel-identical frames, so the sweep engine
/// builds one shared [`re_core::RenderLog`] per key and fans out
/// evaluation-only jobs (see `engine`).
///
/// A key is a [`ParamPoint`] with every [`axis::AxisClass::Eval`] axis
/// reset to its default — derived from the registry's classification
/// rather than a hand-maintained field list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RenderKey(ParamPoint);

impl RenderKey {
    /// Workload alias.
    pub fn scene(&self) -> &'static str {
        self.0.scene()
    }

    /// Frames rendered.
    pub fn frames(&self) -> usize {
        self.0.frames
    }

    /// Tile edge in pixels (progress lines).
    pub fn tile_size(&self) -> u32 {
        self.0.tile_size()
    }

    /// The GPU configuration Stage A renders this key under.
    pub fn gpu_config(&self) -> GpuConfig {
        self.0.sim_options().gpu
    }
}

/// One experiment: a grid point (scene included) with its stable grid id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Position in the grid's deterministic enumeration order.
    pub id: usize,
    /// The full parameter point of this cell.
    pub point: ParamPoint,
}

impl Cell {
    /// Workload alias (`ccs` … `tib`).
    pub fn scene(&self) -> &'static str {
        self.point.scene()
    }

    /// A compact human-readable label for progress lines.
    pub fn label(&self) -> String {
        self.point.label()
    }

    /// The cell's render key — what Stage A's output depends on.
    pub fn render_key(&self) -> RenderKey {
        RenderKey(self.point.render_normalized())
    }
}

/// The cross product of per-axis value lists.
///
/// Axis values are held in registry order and only reachable through
/// validated setters, so a constructed grid is always enumerable.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentGrid {
    /// Frames per cell.
    pub frames: usize,
    /// Screen width in pixels.
    pub width: u32,
    /// Screen height in pixels.
    pub height: u32,
    values: [Vec<u64>; AXIS_COUNT],
}

impl Default for ExperimentGrid {
    /// All ten workloads at the paper's design point, quarter resolution.
    fn default() -> Self {
        ExperimentGrid {
            frames: 24,
            width: 400,
            height: 256,
            values: std::array::from_fn(|a| AXES[a].default_values()),
        }
    }
}

impl ExperimentGrid {
    /// The value list of `axis`, in enumeration order.
    pub fn axis_values(&self, axis: AxisId) -> &[u64] {
        &self.values[axis]
    }

    /// Replaces the value list of `axis`.
    ///
    /// # Errors
    /// Rejects empty lists, out-of-domain values and duplicates (a
    /// duplicate would enumerate — and fully simulate — the same cell
    /// twice).
    pub fn set_axis(&mut self, axis: AxisId, values: Vec<u64>) -> Result<(), String> {
        let def: &AxisDef = &AXES[axis];
        if values.is_empty() {
            return Err(format!("axis `{}`: empty value list", def.name));
        }
        for (i, &v) in values.iter().enumerate() {
            if !def.is_valid(v) {
                return Err(format!(
                    "axis `{}`: value `{}` outside domain {}",
                    def.name,
                    def.format_value(v),
                    def.domain
                ));
            }
            if values[..i].contains(&v) {
                return Err(format!(
                    "axis `{}`: duplicate value `{}`",
                    def.name,
                    def.format_value(v)
                ));
            }
        }
        self.values[axis] = values;
        Ok(())
    }

    /// Builder form of [`set_axis`](Self::set_axis) for tests and
    /// programmatic grids.
    ///
    /// # Panics
    /// Panics on the errors `set_axis` reports.
    pub fn with_axis(mut self, axis: AxisId, values: impl Into<Vec<u64>>) -> Self {
        self.set_axis(axis, values.into())
            .expect("valid axis values");
        self
    }

    /// Builder that parses a CLI-style value list (`"8,16"`, `"bbox,exact"`,
    /// `"none,4"`, `"all"`) through the axis's own parser.
    ///
    /// # Panics
    /// Panics on values the CLI would reject.
    pub fn with_parsed(self, axis: AxisId, list: &str) -> Self {
        let values = AXES[axis].parse_list(list).expect("parsable axis list");
        self.with_axis(axis, values)
    }

    /// Builder that selects scenes by alias.
    ///
    /// # Panics
    /// Panics on unknown aliases or duplicates.
    pub fn with_scenes(self, aliases: &[&str]) -> Self {
        let scene = &AXES[axis::SCENE];
        let values: Vec<u64> = aliases
            .iter()
            .map(|a| scene.parse_value(a).expect("known workload alias"))
            .collect();
        self.with_axis(axis::SCENE, values)
    }

    /// Workload aliases of the scene axis, in enumeration order.
    pub fn scene_aliases(&self) -> Vec<&'static str> {
        self.values[axis::SCENE]
            .iter()
            .map(|&raw| {
                re_workloads::source::alias_at(raw as usize)
                    .expect("grid scene values are validated against the registry")
            })
            .collect()
    }

    /// Number of cells in the product.
    pub fn cell_count(&self) -> usize {
        self.values.iter().map(Vec::len).product()
    }

    /// Enumerates every cell in deterministic order (scene-major, then
    /// each axis in registry order). Ids are the enumeration index.
    ///
    /// # Panics
    /// Panics if the grid has no frames.
    pub fn cells(&self) -> Vec<Cell> {
        assert!(self.frames > 0, "grid needs at least one frame");
        let mut cells = Vec::with_capacity(self.cell_count());
        let mut idx = [0usize; AXIS_COUNT];
        'odometer: loop {
            let mut point = ParamPoint::new(self.width, self.height, self.frames);
            for (a, (values, &i)) in self.values.iter().zip(&idx).enumerate() {
                point.set(a, values[i]);
            }
            cells.push(Cell {
                id: cells.len(),
                point,
            });
            // Increment the innermost (last) axis first; carry outward.
            let mut a = AXIS_COUNT;
            loop {
                if a == 0 {
                    break 'odometer;
                }
                a -= 1;
                idx[a] += 1;
                if idx[a] < self.values[a].len() {
                    break;
                }
                idx[a] = 0;
            }
        }
        cells
    }

    /// Canonical textual form of the grid — what the fingerprint hashes
    /// and what the store records so a resumed run can prove it matches.
    ///
    /// One line per axis in registry order (scene first, then the grid
    /// scalars). [`Presence::NonDefault`] axes contribute a line only away
    /// from their default, so grids that never touch a newer axis keep the
    /// spec — and the fingerprint — they had before the axis existed.
    pub fn spec_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let join = |axis: &AxisDef, values: &[u64]| {
            values
                .iter()
                .map(|&v| axis.format_value(v))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(
            out,
            "{}={}\nframes={}\nscreen={}x{}",
            AXES[axis::SCENE].spec_key,
            join(&AXES[axis::SCENE], &self.values[axis::SCENE]),
            self.frames,
            self.width,
            self.height,
        );
        for (a, def) in AXES.iter().enumerate().skip(1) {
            if matches!(def.presence, Presence::NonDefault) && self.values[a] == [def.default] {
                continue;
            }
            let _ = writeln!(out, "{}={}", def.spec_key, join(def, &self.values[a]));
        }
        out
    }

    /// FNV-1a fingerprint of [`spec_string`](Self::spec_string); two grids
    /// with the same fingerprint enumerate the same cells.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.spec_string().bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ExperimentGrid {
        ExperimentGrid::default()
            .with_scenes(&["ccs", "ter"])
            .with_axis(axis::TILE_SIZE, vec![8, 16])
            .with_axis(axis::SIG_BITS, vec![16, 32])
            .with_axis(axis::COMPARE_DISTANCE, vec![1, 2])
    }

    #[test]
    fn cell_ids_are_dense_and_ordered() {
        let cells = small().cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        assert_eq!(cells.len(), small().cell_count());
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i);
        }
        // Scene-major order.
        assert!(cells[..8].iter().all(|c| c.scene() == "ccs"));
        assert!(cells[8..].iter().all(|c| c.scene() == "ter"));
    }

    #[test]
    fn enumeration_is_reproducible() {
        assert_eq!(small().cells(), small().cells());
        assert_eq!(small().fingerprint(), small().fingerprint());
    }

    #[test]
    fn fingerprint_sees_every_axis_and_scalar() {
        let base = small();
        // A non-default single value per axis, generically.
        let alternates: [u64; AXIS_COUNT] = [1, 32, 8, 3, 4, 1, 4, 64, 8, 32];
        for (a, &alt) in alternates.iter().enumerate() {
            assert_ne!(alt, AXES[a].default, "test needs a non-default value");
            let variant = base.clone().with_axis(a, vec![alt]);
            assert_ne!(
                variant.fingerprint(),
                base.fingerprint(),
                "axis {}",
                AXES[a].name
            );
        }
        let frames = ExperimentGrid {
            frames: base.frames + 1,
            ..base.clone()
        };
        assert_ne!(frames.fingerprint(), base.fingerprint());
    }

    #[test]
    fn default_spec_and_fingerprint_match_the_pre_registry_store_format() {
        // Pinned against a store written by the hand-plumbed implementation
        // (PR 2): same spec bytes, same fingerprint — so old stores resume.
        let g = ExperimentGrid {
            frames: 2,
            width: 128,
            height: 64,
            ..ExperimentGrid::default()
        }
        .with_scenes(&["ccs"])
        .with_axis(axis::SIG_BITS, vec![16, 32]);
        assert_eq!(
            g.spec_string(),
            "scenes=ccs\nframes=2\nscreen=128x64\ntile_sizes=16\nsig_bits=16,32\n\
             compare_distances=2\nrefresh_periods=none\nbinnings=bbox\not_depths=16\n\
             l2_kb=256\nsig_compare_cycles=4\n"
        );
        assert_eq!(format!("{:016x}", g.fingerprint()), "fcec33e7aa062ca9");
        // The full default grid keeps its PR 2 fingerprint too.
        assert_eq!(
            format!("{:016x}", ExperimentGrid::default().fingerprint()),
            "c3835a31ff92d81d"
        );
    }

    #[test]
    fn non_default_memo_axis_enters_spec_and_fingerprint() {
        let base = small();
        let swept = base.clone().with_axis(axis::MEMO_KB, vec![4, 16]);
        assert!(!base.spec_string().contains("memo_kb"));
        assert!(swept.spec_string().contains("memo_kb=4,16"));
        assert_ne!(base.fingerprint(), swept.fingerprint());
    }

    #[test]
    fn cells_lower_to_sim_options() {
        let grid = small()
            .with_axis(axis::OT_DEPTH, vec![4])
            .with_axis(axis::L2_KB, vec![64])
            .with_parsed(axis::REFRESH_PERIOD, "6")
            .with_axis(axis::SIG_COMPARE_CYCLES, vec![7]);
        let opts = grid.cells()[0].point.sim_options();
        assert_eq!(opts.gpu.tile_size, 8);
        assert_eq!(opts.sig_bits, 16);
        assert_eq!(opts.compare_distance, 1);
        assert_eq!(opts.refresh_period, Some(6));
        assert_eq!(opts.ot_queue_entries, 4);
        assert_eq!(opts.timing.l2_cache.size_bytes, 64 << 10);
        assert_eq!(opts.sig_compare_cycles, 7);
    }

    #[test]
    fn render_key_ignores_evaluation_axes() {
        let cells = small().cells();
        // ccs cells at tile size 8: 2 sig_bits × 2 distances = 4 cells,
        // one render key.
        let keys: std::collections::HashSet<_> = cells
            .iter()
            .filter(|c| c.scene() == "ccs" && c.point.tile_size() == 8)
            .map(|c| c.render_key())
            .collect();
        assert_eq!(keys.len(), 1);
        let key = keys.into_iter().next().unwrap();
        assert_eq!(key.gpu_config().tile_size, 8);
        // A different tile size is a different key.
        assert_ne!(cells[0].render_key(), cells[4].render_key());
    }

    #[test]
    fn grid_setters_validate() {
        let mut g = ExperimentGrid::default();
        assert!(g.set_axis(axis::SIG_BITS, vec![33]).is_err());
        assert!(g.set_axis(axis::TILE_SIZE, vec![]).is_err());
        assert!(g
            .set_axis(axis::TILE_SIZE, vec![8, 8])
            .unwrap_err()
            .contains("duplicate"));
        assert!(g.set_axis(axis::TILE_SIZE, vec![8, 16]).is_ok());
    }

    #[test]
    fn binning_names_roundtrip() {
        for mode in [BinningMode::BoundingBox, BinningMode::ExactCoverage] {
            assert_eq!(parse_binning(binning_name(mode)), Some(mode));
        }
        assert_eq!(parse_binning("nope"), None);
    }
}
