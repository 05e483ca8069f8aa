//! The declarative sweep-axis registry: **one definition per parameter,
//! everything else derived**.
//!
//! Every knob the paper's sensitivity studies sweep (conf_hpca HPCA'19
//! §VI: tile size, signature width, compare distance, binning, OT depth,
//! L2 capacity, compare cost — plus the scene itself and the ISCA'14
//! memoization baseline's LUT capacity) is described by exactly one
//! [`AxisDef`] entry in [`AXES`]. From that single definition the sweep
//! subsystem derives:
//!
//! * grid enumeration order and stable cell ids ([`crate::ExperimentGrid`]);
//! * the CLI flag, its list parsing, domain validation and `--help` text
//!   ([`crate::cli`]), and the `sweep axes` self-documentation table;
//! * [`ParamPoint`] — the typed grid point that replaced the field-per-axis
//!   `CellConfig` — and its lowering into [`SimOptions`];
//! * render-key grouping: the [`AxisClass::Render`]/[`AxisClass::Eval`]
//!   split decides which axes are part of a cell's render key, so Stage A
//!   runs once per key with no hand-maintained key struct;
//! * `results.csv` columns, per-cell JSON record keys, store-spec lines and
//!   fingerprints, progress labels, and `sweep report` marginal tables.
//!
//! # Adding an axis
//!
//! Append one `AxisDef` entry to [`AXES`] (and its index constant). That is
//! the entire footprint: the CLI flag, help text, CSV column, JSON key,
//! spec line, label segment, report marginal and `SimOptions` lowering all
//! appear without touching the engine, store, report or CLI dispatch. The
//! `memo_kb` axis at the end of the registry is the worked example: it
//! feeds [`SimOptions::memo_kb`] (the fragment-memoization LUT capacity)
//! and exists nowhere else in the sweep crate. Give new axes
//! [`Presence::NonDefault`] so stores and CSVs produced by older grids stay
//! byte-identical: the axis only materializes in artifacts once a grid
//! actually departs from its default.
//!
//! # Example
//!
//! ```
//! use re_sweep::axis::{self, AXES};
//!
//! // Look an axis up by CLI flag, parse a value list, lower to options.
//! let id = axis::by_flag("--tile-sizes").unwrap();
//! let values = AXES[id].parse_list("8,16").unwrap();
//! assert_eq!(values, vec![8, 16]);
//!
//! let mut point = axis::ParamPoint::new(400, 256, 24);
//! point.set(id, 8);
//! assert_eq!(point.sim_options().gpu.tile_size, 8);
//!
//! // The Render/Eval classification drives render-once grouping.
//! assert!(matches!(AXES[id].class, axis::AxisClass::Render));
//! assert!(matches!(
//!     AXES[axis::SIG_BITS].class,
//!     axis::AxisClass::Eval
//! ));
//! ```

use re_core::SimOptions;
use re_gpu::BinningMode;

use crate::json::Json;

/// Index of an axis in [`AXES`] (and in a [`ParamPoint`]'s value array).
pub type AxisId = usize;

/// Whether varying the axis changes Stage A's output.
///
/// Cells that agree on every `Render` axis (plus screen size and frame
/// count) rasterize pixel-identical frames, so the engine renders one
/// shared log per render key and fans out evaluation-only jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisClass {
    /// Affects rasterization (part of the render key).
    Render,
    /// Affects only Stage B evaluation (shares render logs).
    Eval,
}

/// When the axis materializes in derived artifacts (CSV column, store-spec
/// line, label segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// Always present (the original paper axes; their columns are part of
    /// the store format's compatibility surface).
    Always,
    /// Present only when a value departs from the default. New axes use
    /// this so existing grids keep byte-identical CSVs and fingerprints.
    NonDefault,
}

/// How an axis's raw `u64` values read and print.
#[derive(Debug, Clone, Copy)]
pub enum ValueRepr {
    /// A plain unsigned integer.
    UInt,
    /// An optional count: raw 0 encodes "none" in human-facing text while
    /// CSV/JSON keep the numeric 0 (the refresh-period convention).
    OptUInt,
    /// A closed set of named values; CSV/JSON store the name.
    Named(&'static [(&'static str, u64)]),
    /// A scene alias, stored as its index into the scene-source registry
    /// ([`re_workloads::source`]): the paper suite, the vector family, and
    /// runtime-registered `trace:<alias>` imports.
    Scene,
}

/// Name/raw table for the binning axis (kept `pub` so the classic
/// [`crate::binning_name`]/[`crate::parse_binning`] helpers stay thin
/// views of the registry).
pub const BINNING_NAMES: &[(&str, u64)] = &[("bbox", 0), ("exact", 1)];

/// The [`BinningMode`] a raw binning-axis value denotes.
pub fn binning_from_raw(raw: u64) -> BinningMode {
    match raw {
        0 => BinningMode::BoundingBox,
        _ => BinningMode::ExactCoverage,
    }
}

/// The raw binning-axis value of a [`BinningMode`].
pub fn binning_to_raw(mode: BinningMode) -> u64 {
    match mode {
        BinningMode::BoundingBox => 0,
        BinningMode::ExactCoverage => 1,
    }
}

/// One sweep parameter, defined exactly once.
///
/// Everything the sweep subsystem knows about a parameter — flag, parsing,
/// domain, classification, persistence, lowering — lives in this struct;
/// every consumer (grid, engine, store, report, CLI) iterates [`AXES`]
/// instead of naming axes.
pub struct AxisDef {
    /// Canonical name: CSV column, JSON record key, report marginal title.
    pub name: &'static str,
    /// CLI list flag (e.g. `--tile-sizes`).
    pub flag: &'static str,
    /// Line key in [`crate::ExperimentGrid::spec_string`] (the fingerprint
    /// input; legacy plural spellings are load-bearing for old stores).
    pub spec_key: &'static str,
    /// `(prefix, suffix)` of this axis's segment in a cell's progress
    /// label (e.g. `("l2:", "K")` renders `l2:256K`).
    pub label: (&'static str, &'static str),
    /// One-line description for `--help` and `sweep axes`.
    pub help: &'static str,
    /// Human-readable domain (`1..=32`, `bbox|exact`, …).
    pub domain: &'static str,
    /// Render/evaluate classification (drives render-key grouping).
    pub class: AxisClass,
    /// Artifact-presence policy (drives CSV/spec/label compatibility).
    pub presence: Presence,
    /// Value encoding.
    pub repr: ValueRepr,
    /// Default raw value (what absent store keys decode to).
    pub default: u64,
    /// Whether the default value *list* is the whole domain rather than
    /// `[default]` (the scene axis defaults to every workload).
    pub default_all: bool,
    /// Domain predicate over raw values.
    validate: fn(u64) -> bool,
    /// Lowers one raw value into the simulator options.
    apply: fn(u64, &mut SimOptions),
}

impl std::fmt::Debug for AxisDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AxisDef")
            .field("name", &self.name)
            .field("flag", &self.flag)
            .field("class", &self.class)
            .field("default", &self.default)
            .finish_non_exhaustive()
    }
}

impl AxisDef {
    /// Whether `raw` is inside the axis's domain.
    pub fn is_valid(&self, raw: u64) -> bool {
        let repr_ok = match self.repr {
            ValueRepr::UInt | ValueRepr::OptUInt => true,
            ValueRepr::Named(names) => names.iter().any(|&(_, r)| r == raw),
            ValueRepr::Scene => (raw as usize) < re_workloads::source::count(),
        };
        repr_ok && (self.validate)(raw)
    }

    /// Parses one value (one element of a CLI list).
    ///
    /// # Errors
    /// Describes the offending value and the axis's domain.
    pub fn parse_value(&self, s: &str) -> Result<u64, String> {
        let bad = || format!("{}: bad value `{s}` (domain: {})", self.flag, self.domain);
        let raw = match self.repr {
            ValueRepr::UInt => s.parse::<u64>().map_err(|_| bad())?,
            ValueRepr::OptUInt => match s {
                "none" => 0,
                _ => s.parse::<u64>().map_err(|_| bad())?,
            },
            ValueRepr::Named(names) => names
                .iter()
                .find(|&&(n, _)| n == s)
                .map(|&(_, r)| r)
                .ok_or_else(bad)?,
            ValueRepr::Scene => re_workloads::source::index_of(s)
                .map(|i| i as u64)
                .ok_or_else(|| {
                    let mut msg = format!("{}: unknown workload alias `{s}`", self.flag);
                    if let Some(near) = re_workloads::source::suggest(s) {
                        msg.push_str(&format!(" (did you mean `{near}`?)"));
                    }
                    msg
                })?,
        };
        if !self.is_valid(raw) {
            return Err(format!(
                "{}: value `{}` outside domain {}",
                self.flag,
                self.format_value(raw),
                self.domain
            ));
        }
        Ok(raw)
    }

    /// Human form of a raw value (`none`, `bbox`, `ccs`, plain numbers) —
    /// used by report tables, spec strings and help text.
    pub fn format_value(&self, raw: u64) -> String {
        match self.repr {
            ValueRepr::UInt => raw.to_string(),
            ValueRepr::OptUInt => {
                if raw == 0 {
                    "none".to_string()
                } else {
                    raw.to_string()
                }
            }
            ValueRepr::Named(names) => names
                .iter()
                .find(|&&(_, r)| r == raw)
                .map(|&(n, _)| n.to_string())
                .unwrap_or_else(|| raw.to_string()),
            ValueRepr::Scene => re_workloads::source::alias_at(raw as usize)
                .map(|a| a.to_string())
                .unwrap_or_else(|| raw.to_string()),
        }
    }

    /// CSV-cell form of a raw value. Identical to [`format_value`]
    /// (names for named axes) except that optional counts stay numeric —
    /// `refresh_period` has always been `0`, not `none`, in the CSV.
    ///
    /// [`format_value`]: Self::format_value
    pub fn csv_value(&self, raw: u64) -> String {
        match self.repr {
            ValueRepr::OptUInt => raw.to_string(),
            _ => self.format_value(raw),
        }
    }

    /// JSON record value of a raw value (numbers stay numbers, named axes
    /// and scenes store their name).
    pub fn json_value(&self, raw: u64) -> Json {
        match self.repr {
            ValueRepr::UInt | ValueRepr::OptUInt => Json::Int(raw as i64),
            ValueRepr::Named(_) | ValueRepr::Scene => Json::Str(self.format_value(raw)),
        }
    }

    /// Decodes a JSON record value written by [`json_value`]
    /// (`None` on type mismatch or unknown name).
    ///
    /// [`json_value`]: Self::json_value
    pub fn value_from_json(&self, v: &Json) -> Option<u64> {
        match self.repr {
            ValueRepr::UInt | ValueRepr::OptUInt => v.as_u64(),
            ValueRepr::Named(names) => {
                let s = v.as_str()?;
                names.iter().find(|&&(n, _)| n == s).map(|&(_, r)| r)
            }
            ValueRepr::Scene => {
                let s = v.as_str()?;
                re_workloads::source::index_of(s).map(|i| i as u64)
            }
        }
    }

    /// Every raw value of a closed domain (named axes and scenes), `None`
    /// for open numeric domains.
    ///
    /// For the scene axis this is deliberately the *paper suite* only —
    /// it is what `all` expands to, so vector scenes and imported traces
    /// never silently join existing grids (which would change their
    /// fingerprints); those are always named explicitly.
    pub fn domain_values(&self) -> Option<Vec<u64>> {
        match self.repr {
            ValueRepr::Named(names) => Some(names.iter().map(|&(_, r)| r).collect()),
            ValueRepr::Scene => Some((0..re_workloads::ALIASES.len() as u64).collect()),
            _ => None,
        }
    }

    /// The axis's default value *list* — `[default]`, or the whole domain
    /// when `default_all` is set (the scene axis).
    pub fn default_values(&self) -> Vec<u64> {
        if self.default_all {
            self.domain_values()
                .expect("default_all requires a closed domain")
        } else {
            vec![self.default]
        }
    }

    /// Parses a comma-separated CLI value list. `all` expands to the
    /// default list (the whole domain for the scene axis). Duplicate
    /// values are an error: the grid would otherwise enumerate — and fully
    /// simulate — the same cell twice.
    ///
    /// # Errors
    /// Bad values, out-of-domain values, duplicates, or an empty list.
    pub fn parse_list(&self, list: &str) -> Result<Vec<u64>, String> {
        if list.trim() == "all" {
            return Ok(self.default_values());
        }
        let mut out: Vec<u64> = Vec::new();
        for s in list.split(',') {
            let raw = self.parse_value(s.trim())?;
            if out.contains(&raw) {
                return Err(format!(
                    "{}: duplicate value `{}` (each cell would be simulated twice)",
                    self.flag,
                    self.format_value(raw)
                ));
            }
            out.push(raw);
        }
        if out.is_empty() {
            return Err(format!("{}: empty value list", self.flag));
        }
        Ok(out)
    }

    /// Lowers one raw value into `opts`.
    pub fn apply(&self, raw: u64, opts: &mut SimOptions) {
        (self.apply)(raw, opts)
    }
}

/// The scene (workload) axis.
pub const SCENE: AxisId = 0;
/// Tile edge in pixels (render-side).
pub const TILE_SIZE: AxisId = 1;
/// Signature width stored in the Signature Buffer.
pub const SIG_BITS: AxisId = 2;
/// Signature/color comparison distance in frames.
pub const COMPARE_DISTANCE: AxisId = 3;
/// Periodic forced-refresh period (0 = never).
pub const REFRESH_PERIOD: AxisId = 4;
/// Polygon-List-Builder binning mode (render-side).
pub const BINNING: AxisId = 5;
/// Signature Unit OT-queue depth.
pub const OT_DEPTH: AxisId = 6;
/// L2 cache capacity in KiB.
pub const L2_KB: AxisId = 7;
/// Cycles charged per Signature Buffer compare.
pub const SIG_COMPARE_CYCLES: AxisId = 8;
/// Fragment-memoization LUT capacity in KiB.
pub const MEMO_KB: AxisId = 9;
/// Number of registered axes.
pub const AXIS_COUNT: usize = 10;

/// The registry: one [`AxisDef`] per sweep parameter, in enumeration order
/// (the scene is the outermost loop, the last axis the innermost).
pub static AXES: [AxisDef; AXIS_COUNT] = [
    AxisDef {
        name: "scene",
        flag: "--scenes",
        spec_key: "scenes",
        label: ("", ""),
        help: "workload aliases",
        domain: "suite aliases (ccs..tib), vector scenes (vui vdoc vmap), imported `trace:<alias>`; `all` = the suite",
        class: AxisClass::Render,
        presence: Presence::Always,
        repr: ValueRepr::Scene,
        default: 0,
        default_all: true,
        validate: |_| true,
        apply: |_, _| {}, // selects the trace, not a simulator option
    },
    AxisDef {
        name: "tile_size",
        flag: "--tile-sizes",
        spec_key: "tile_sizes",
        label: ("ts", ""),
        help: "tile-edge axis in pixels",
        domain: "1..",
        class: AxisClass::Render,
        presence: Presence::Always,
        repr: ValueRepr::UInt,
        default: 16,
        default_all: false,
        validate: |v| (1..=u32::MAX as u64).contains(&v),
        apply: |v, o| o.gpu.tile_size = v as u32,
    },
    AxisDef {
        name: "sig_bits",
        flag: "--sig-bits",
        spec_key: "sig_bits",
        label: ("sb", ""),
        help: "signature-width axis in bits",
        domain: "1..=32",
        class: AxisClass::Eval,
        presence: Presence::Always,
        repr: ValueRepr::UInt,
        default: 32,
        default_all: false,
        validate: |v| (1..=32).contains(&v),
        apply: |v, o| o.sig_bits = v as u32,
    },
    AxisDef {
        name: "compare_distance",
        flag: "--distances",
        spec_key: "compare_distances",
        label: ("d", ""),
        help: "compare-distance axis in frames",
        domain: "1..",
        class: AxisClass::Eval,
        presence: Presence::Always,
        repr: ValueRepr::UInt,
        default: 2,
        default_all: false,
        validate: |v| v >= 1,
        apply: |v, o| o.compare_distance = v as usize,
    },
    AxisDef {
        name: "refresh_period",
        flag: "--refresh",
        spec_key: "refresh_periods",
        label: ("r", ""),
        help: "forced-refresh-period axis; `none` or a frame count",
        domain: "none|frame count",
        class: AxisClass::Eval,
        presence: Presence::Always,
        repr: ValueRepr::OptUInt,
        default: 0,
        default_all: false,
        validate: |_| true,
        apply: |v, o| o.refresh_period = if v == 0 { None } else { Some(v as usize) },
    },
    AxisDef {
        name: "binning",
        flag: "--binning",
        spec_key: "binnings",
        label: ("", ""),
        help: "Polygon-List-Builder binning axis",
        domain: "bbox|exact",
        class: AxisClass::Render,
        presence: Presence::Always,
        repr: ValueRepr::Named(BINNING_NAMES),
        default: 0,
        default_all: false,
        validate: |_| true,
        apply: |v, o| o.gpu.binning = binning_from_raw(v),
    },
    AxisDef {
        name: "ot_depth",
        flag: "--ot-depths",
        spec_key: "ot_depths",
        label: ("ot", ""),
        help: "Signature Unit OT-queue depth axis",
        domain: "1..",
        class: AxisClass::Eval,
        presence: Presence::Always,
        repr: ValueRepr::UInt,
        default: 16,
        default_all: false,
        validate: |v| (1..=u32::MAX as u64).contains(&v),
        apply: |v, o| o.ot_queue_entries = v as u32,
    },
    AxisDef {
        name: "l2_kb",
        flag: "--l2-kb",
        spec_key: "l2_kb",
        label: ("l2:", "K"),
        help: "L2 capacity axis in KiB",
        // Lower bound: one full cache set; upper: `kb << 10` must stay in
        // u32 for CacheGeometry::size_bytes.
        domain: "1..=4194303",
        class: AxisClass::Eval,
        presence: Presence::Always,
        repr: ValueRepr::UInt,
        default: 256,
        default_all: false,
        validate: |v| (1..=4_194_303).contains(&v),
        apply: |v, o| o.timing.set_l2_kb(v as u32),
    },
    AxisDef {
        name: "sig_compare_cycles",
        flag: "--sig-compare-cycles",
        spec_key: "sig_compare_cycles",
        label: ("sc", ""),
        help: "Signature Buffer compare-cost axis in cycles",
        domain: "0..",
        class: AxisClass::Eval,
        presence: Presence::Always,
        repr: ValueRepr::UInt,
        default: 4,
        default_all: false,
        validate: |_| true,
        apply: |v, o| o.sig_compare_cycles = v,
    },
    AxisDef {
        name: "memo_kb",
        flag: "--memo-kb",
        spec_key: "memo_kb",
        label: ("mk", ""),
        help: "fragment-memoization LUT capacity axis in KiB",
        domain: "1..=1048576",
        class: AxisClass::Eval,
        presence: Presence::NonDefault,
        repr: ValueRepr::UInt,
        default: re_core::memo::DEFAULT_MEMO_KB as u64,
        default_all: false,
        validate: |v| (1..=1_048_576).contains(&v),
        apply: |v, o| o.memo_kb = v as u32,
    },
];

/// Looks an axis up by CLI flag.
pub fn by_flag(flag: &str) -> Option<AxisId> {
    AXES.iter().position(|a| a.flag == flag)
}

/// Looks an axis up by canonical name (CSV column / JSON key).
pub fn by_name(name: &str) -> Option<AxisId> {
    AXES.iter().position(|a| a.name == name)
}

/// One grid point: the typed, fixed-size replacement for the old
/// field-per-axis `CellConfig`.
///
/// Screen geometry and frame count are grid-level scalars (identical for
/// every cell); the per-axis raw values live in a registry-indexed array,
/// so adding an axis to [`AXES`] extends every point automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamPoint {
    /// Screen width in pixels.
    pub width: u32,
    /// Screen height in pixels.
    pub height: u32,
    /// Frames simulated.
    pub frames: usize,
    values: [u64; AXIS_COUNT],
}

impl ParamPoint {
    /// A point at every axis's default.
    pub fn new(width: u32, height: u32, frames: usize) -> Self {
        ParamPoint {
            width,
            height,
            frames,
            values: std::array::from_fn(|a| AXES[a].default),
        }
    }

    /// The raw value of `axis`.
    pub fn get(&self, axis: AxisId) -> u64 {
        self.values[axis]
    }

    /// Sets the raw value of `axis`.
    ///
    /// # Panics
    /// Panics if `raw` is outside the axis's domain.
    pub fn set(&mut self, axis: AxisId, raw: u64) {
        assert!(
            AXES[axis].is_valid(raw),
            "{}: value {raw} outside domain {}",
            AXES[axis].name,
            AXES[axis].domain
        );
        self.values[axis] = raw;
    }

    /// Workload alias of the scene axis.
    pub fn scene(&self) -> &'static str {
        re_workloads::source::alias_at(self.values[SCENE] as usize)
            .expect("scene index validated against the registry at set() time")
    }

    /// Tile edge in pixels.
    pub fn tile_size(&self) -> u32 {
        self.values[TILE_SIZE] as u32
    }

    /// Signature width in bits.
    pub fn sig_bits(&self) -> u32 {
        self.values[SIG_BITS] as u32
    }

    /// Compare distance in frames.
    pub fn compare_distance(&self) -> usize {
        self.values[COMPARE_DISTANCE] as usize
    }

    /// Forced-refresh period (`None` = never).
    pub fn refresh_period(&self) -> Option<usize> {
        match self.values[REFRESH_PERIOD] {
            0 => None,
            n => Some(n as usize),
        }
    }

    /// Binning mode.
    pub fn binning(&self) -> BinningMode {
        binning_from_raw(self.values[BINNING])
    }

    /// OT-queue depth.
    pub fn ot_depth(&self) -> u32 {
        self.values[OT_DEPTH] as u32
    }

    /// L2 capacity in KiB.
    pub fn l2_kb(&self) -> u32 {
        self.values[L2_KB] as u32
    }

    /// Signature-compare cost in cycles.
    pub fn sig_compare_cycles(&self) -> u64 {
        self.values[SIG_COMPARE_CYCLES]
    }

    /// Lowers this grid point to simulator options by applying every
    /// axis's `apply` on top of the defaults.
    pub fn sim_options(&self) -> SimOptions {
        let mut opts = SimOptions::default();
        opts.gpu.width = self.width;
        opts.gpu.height = self.height;
        for (axis, &raw) in AXES.iter().zip(&self.values) {
            axis.apply(raw, &mut opts);
        }
        opts
    }

    /// A compact human-readable label for progress lines
    /// (`ccs ts16 sb32 d2 r0 bbox ot16 l2:256K sc4`). Axes with
    /// [`Presence::NonDefault`] appear only away from their default.
    pub fn label(&self) -> String {
        let mut out = String::new();
        for (axis, &raw) in AXES.iter().zip(&self.values) {
            if matches!(axis.presence, Presence::NonDefault) && raw == axis.default {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(axis.label.0);
            out.push_str(&axis.csv_value(raw));
            out.push_str(axis.label.1);
        }
        out
    }

    /// This point with every [`AxisClass::Eval`] axis reset to its default
    /// — the canonical render-key form: two cells with equal normalized
    /// points rasterize pixel-identical frames.
    pub fn render_normalized(&self) -> ParamPoint {
        let mut p = *self;
        for (a, axis) in AXES.iter().enumerate() {
            if matches!(axis.class, AxisClass::Eval) {
                p.values[a] = axis.default;
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_flags_and_spec_keys_are_unique() {
        for pick in [
            |a: &AxisDef| a.name,
            |a: &AxisDef| a.flag,
            |a: &AxisDef| a.spec_key,
        ] {
            let mut seen: Vec<&str> = AXES.iter().map(pick).collect();
            seen.sort_unstable();
            let n = seen.len();
            seen.dedup();
            assert_eq!(seen.len(), n, "duplicate identifier in registry");
        }
    }

    #[test]
    fn every_default_is_inside_its_domain() {
        for axis in &AXES {
            assert!(axis.is_valid(axis.default), "{}", axis.name);
            for v in axis.default_values() {
                assert!(axis.is_valid(v), "{}: default list", axis.name);
            }
        }
    }

    #[test]
    fn parse_format_roundtrips_over_sample_domain_points() {
        for axis in &AXES {
            let samples = axis
                .domain_values()
                .unwrap_or_else(|| vec![axis.default, axis.default.max(1)]);
            for raw in samples {
                let human = axis.format_value(raw);
                assert_eq!(
                    axis.parse_value(&human).unwrap(),
                    raw,
                    "{}: `{human}`",
                    axis.name
                );
                let json = axis.json_value(raw);
                assert_eq!(axis.value_from_json(&json), Some(raw), "{}", axis.name);
            }
        }
    }

    #[test]
    fn render_axes_are_exactly_scene_tile_and_binning() {
        let render: Vec<&str> = AXES
            .iter()
            .filter(|a| matches!(a.class, AxisClass::Render))
            .map(|a| a.name)
            .collect();
        assert_eq!(render, ["scene", "tile_size", "binning"]);
    }

    #[test]
    fn parse_list_rejects_duplicates_and_empties() {
        let tiles = &AXES[TILE_SIZE];
        assert_eq!(tiles.parse_list("8, 16").unwrap(), vec![8, 16]);
        assert!(tiles.parse_list("16,16").unwrap_err().contains("duplicate"));
        assert!(tiles.parse_list("").is_err());
        // `none` and `0` are the same refresh value — a duplicate.
        let refresh = &AXES[REFRESH_PERIOD];
        assert!(refresh
            .parse_list("none,0")
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn all_expands_to_the_default_list() {
        assert_eq!(
            AXES[SCENE].parse_list("all").unwrap().len(),
            re_workloads::ALIASES.len()
        );
        assert_eq!(AXES[TILE_SIZE].parse_list("all").unwrap(), vec![16]);
    }

    #[test]
    fn domain_validation_matches_the_documented_ranges() {
        assert!(AXES[SIG_BITS].parse_value("33").is_err());
        assert!(AXES[SIG_BITS].parse_value("0").is_err());
        assert!(AXES[TILE_SIZE].parse_value("0").is_err());
        assert!(AXES[COMPARE_DISTANCE].parse_value("0").is_err());
        assert!(AXES[L2_KB].parse_value("4194304").is_err());
        assert!(AXES[MEMO_KB].parse_value("0").is_err());
        assert!(AXES[SCENE].parse_value("nope").is_err());
        assert_eq!(AXES[REFRESH_PERIOD].parse_value("none").unwrap(), 0);
    }

    #[test]
    fn sim_options_lowering_matches_the_legacy_cell_config() {
        let mut p = ParamPoint::new(128, 64, 4);
        p.set(TILE_SIZE, 8);
        p.set(SIG_BITS, 16);
        p.set(COMPARE_DISTANCE, 1);
        p.set(REFRESH_PERIOD, 6);
        p.set(BINNING, binning_to_raw(BinningMode::ExactCoverage));
        p.set(OT_DEPTH, 4);
        p.set(L2_KB, 64);
        p.set(SIG_COMPARE_CYCLES, 7);
        p.set(MEMO_KB, 8);
        let o = p.sim_options();
        assert_eq!((o.gpu.width, o.gpu.height), (128, 64));
        assert_eq!(o.gpu.tile_size, 8);
        assert_eq!(o.gpu.binning, BinningMode::ExactCoverage);
        assert_eq!(o.sig_bits, 16);
        assert_eq!(o.compare_distance, 1);
        assert_eq!(o.refresh_period, Some(6));
        assert_eq!(o.ot_queue_entries, 4);
        assert_eq!(o.timing.l2_cache.size_bytes, 64 << 10);
        assert_eq!(o.sig_compare_cycles, 7);
        assert_eq!(o.memo_kb, 8);
    }

    #[test]
    fn label_matches_the_legacy_shape_and_hides_default_new_axes() {
        let p = ParamPoint::new(400, 256, 24);
        assert_eq!(p.label(), "ccs ts16 sb32 d2 r0 bbox ot16 l2:256K sc4");
        let mut swept = p;
        swept.set(MEMO_KB, 4);
        assert_eq!(
            swept.label(),
            "ccs ts16 sb32 d2 r0 bbox ot16 l2:256K sc4 mk4"
        );
    }

    #[test]
    fn scene_axis_covers_vector_and_imported_sources() {
        let scene = &AXES[SCENE];
        // The vector family sits right after the suite in the registry.
        let vui = scene.parse_value("vui").unwrap();
        assert_eq!(vui, re_workloads::ALIASES.len() as u64);
        assert_eq!(scene.format_value(vui), "vui");
        assert!(scene.is_valid(vui));
        // `all` still expands to the paper suite only — fingerprints of
        // existing grids must not change.
        assert_eq!(
            scene.parse_list("all").unwrap().len(),
            re_workloads::ALIASES.len()
        );
        // Unknown aliases get a nearest-match suggestion.
        let err = scene.parse_value("vuii").unwrap_err();
        assert!(err.contains("did you mean `vui`"), "{err}");
        // Imported traces become parseable once registered, and roundtrip
        // through CSV/JSON forms like any other scene.
        let idx = re_workloads::source::register_trace(
            "axis-test",
            std::path::Path::new("/tmp/axis-test.retrace"),
            7,
        )
        .unwrap() as u64;
        assert_eq!(scene.parse_value("trace:axis-test").unwrap(), idx);
        assert_eq!(scene.format_value(idx), "trace:axis-test");
        assert_eq!(scene.csv_value(idx), "trace:axis-test");
        assert_eq!(scene.value_from_json(&scene.json_value(idx)), Some(idx));
        let mut p = ParamPoint::new(64, 64, 2);
        p.set(SCENE, idx);
        assert_eq!(p.scene(), "trace:axis-test");
    }

    #[test]
    fn render_normalization_erases_exactly_the_eval_axes() {
        let mut p = ParamPoint::new(128, 64, 3);
        p.set(TILE_SIZE, 8);
        p.set(SIG_BITS, 16);
        p.set(MEMO_KB, 4);
        let n = p.render_normalized();
        assert_eq!(n.get(TILE_SIZE), 8, "render axes survive");
        assert_eq!(n.get(SIG_BITS), AXES[SIG_BITS].default);
        assert_eq!(n.get(MEMO_KB), AXES[MEMO_KB].default);
    }
}
