//! McPAT/CACTI-like energy model.
//!
//! Energies are charged per architectural event with size-scaled SRAM
//! access costs and per-byte DRAM costs, plus leakage integrated over
//! cycles. Absolute values are calibrated to plausible 32 nm numbers; the
//! paper's figures are all *normalized to the baseline*, so relative
//! per-structure ratios are what matters.

use re_gpu::stats::{GeometryStats, TileStats};

use crate::config::TimingConfig;
use crate::dram::DramStats;

/// Per-access energy of an SRAM structure of `size_bytes`, in pJ.
///
/// CACTI-like square-root scaling: wordline/bitline energy grows with the
/// array's linear dimension.
pub fn sram_access_pj(size_bytes: u32) -> f64 {
    2.0 + 0.065 * (size_bytes as f64).sqrt()
}

/// Energy constants (pJ unless noted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Per shader instruction slot (ALU + register file + fetch).
    pub instr_pj: f64,
    /// Per rasterizer attribute interpolation.
    pub attr_interp_pj: f64,
    /// Per Early-Z test (comparator; depth-buffer SRAM charged separately).
    pub early_z_pj: f64,
    /// Per blend operation (fixed-point lerp datapath).
    pub blend_pj: f64,
    /// Per triangle setup.
    pub prim_setup_pj: f64,
    /// Per vertex fetched (fetcher datapath).
    pub vertex_fetch_pj: f64,
    /// Per (primitive, tile) binning operation.
    pub binning_pj: f64,
    /// Per DRAM byte transferred.
    pub dram_byte_pj: f64,
    /// Per DRAM row activation.
    pub dram_activate_pj: f64,
    /// GPU leakage per cycle.
    pub gpu_static_pj_per_cycle: f64,
    /// DRAM background power per cycle.
    pub dram_static_pj_per_cycle: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        EnergyParams {
            instr_pj: 25.0,
            attr_interp_pj: 8.0,
            early_z_pj: 5.0,
            blend_pj: 10.0,
            prim_setup_pj: 40.0,
            vertex_fetch_pj: 10.0,
            binning_pj: 6.0,
            dram_byte_pj: 40.0,
            dram_activate_pj: 1000.0,
            gpu_static_pj_per_cycle: 300.0,
            dram_static_pj_per_cycle: 100.0,
        }
    }
}

/// Energy totals, split the way Fig. 14b reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// GPU dynamic energy (pJ).
    pub gpu_dynamic_pj: f64,
    /// GPU leakage (pJ).
    pub gpu_static_pj: f64,
    /// DRAM dynamic energy (pJ).
    pub dram_dynamic_pj: f64,
    /// DRAM background energy (pJ).
    pub dram_static_pj: f64,
}

impl EnergyBreakdown {
    /// GPU energy (dynamic + static).
    pub fn gpu_pj(&self) -> f64 {
        self.gpu_dynamic_pj + self.gpu_static_pj
    }

    /// Main-memory energy (dynamic + background).
    pub fn memory_pj(&self) -> f64 {
        self.dram_dynamic_pj + self.dram_static_pj
    }

    /// Total system energy.
    pub fn total_pj(&self) -> f64 {
        self.gpu_pj() + self.memory_pj()
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &EnergyBreakdown) {
        self.gpu_dynamic_pj += other.gpu_dynamic_pj;
        self.gpu_static_pj += other.gpu_static_pj;
        self.dram_dynamic_pj += other.dram_dynamic_pj;
        self.dram_static_pj += other.dram_static_pj;
    }
}

/// Accumulating energy model.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    params: EnergyParams,
    acc: EnergyBreakdown,
}

impl EnergyModel {
    /// Creates a model with default 32 nm-ish parameters.
    pub fn new() -> Self {
        EnergyModel {
            params: EnergyParams::default(),
            acc: EnergyBreakdown::default(),
        }
    }

    /// Charges `accesses` reads/writes of an SRAM of `size_bytes`.
    pub fn add_sram(&mut self, size_bytes: u32, accesses: u64) {
        self.acc.gpu_dynamic_pj += sram_access_pj(size_bytes) * accesses as f64;
    }

    /// Charges one frame's geometry-pipeline work.
    pub fn add_geometry(&mut self, g: &GeometryStats) {
        let p = &self.params;
        self.acc.gpu_dynamic_pj += g.vs_instr_slots as f64 * p.instr_pj
            + g.vertices_fetched as f64 * p.vertex_fetch_pj
            + g.prims_in as f64 * p.prim_setup_pj
            + g.prim_tile_pairs as f64 * p.binning_pj;
    }

    /// Charges one tile's raster-pipeline work (compute side; cache and
    /// DRAM energies are charged from the memory system's counters).
    pub fn add_raster(&mut self, t: &TileStats, cfg: &TimingConfig) {
        let p = &self.params;
        self.acc.gpu_dynamic_pj += t.fs_instr_slots as f64 * p.instr_pj
            + t.attr_interpolations as f64 * p.attr_interp_pj
            + (t.fragments_rasterized) as f64 * p.early_z_pj
            + t.blend_ops as f64 * p.blend_pj
            + t.prims_processed as f64 * p.prim_setup_pj;
        // On-chip Color and Depth Buffer accesses.
        self.acc.gpu_dynamic_pj +=
            sram_access_pj(cfg.color_buffer_bytes) * (t.blend_ops + t.pixels_flushed) as f64;
        self.acc.gpu_dynamic_pj += sram_access_pj(cfg.depth_buffer_bytes) * t.depth_accesses as f64;
    }

    /// Charges DRAM dynamic energy from cumulative-traffic *deltas*.
    ///
    /// Call once with the final [`DramStats`] of a run (or with per-frame
    /// deltas; the charge is linear).
    pub fn add_dram(&mut self, d: &DramStats) {
        let p = &self.params;
        self.acc.dram_dynamic_pj +=
            d.total_bytes() as f64 * p.dram_byte_pj + d.row_misses as f64 * p.dram_activate_pj;
    }

    /// Integrates leakage/background power over `cycles` GPU cycles.
    pub fn add_cycles(&mut self, cycles: u64) {
        self.acc.gpu_static_pj += cycles as f64 * self.params.gpu_static_pj_per_cycle;
        self.acc.dram_static_pj += cycles as f64 * self.params.dram_static_pj_per_cycle;
    }

    /// The accumulated totals.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.acc
    }

    /// Average power in milliwatts over `cycles` at clock `clock_hz`.
    pub fn average_power_mw(&self, cycles: u64, clock_hz: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let seconds = cycles as f64 / clock_hz as f64;
        self.acc.total_pj() * 1e-12 / seconds * 1e3
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_energy_scales_with_size() {
        assert!(sram_access_pj(256 << 10) > sram_access_pj(8 << 10));
        assert!(sram_access_pj(1 << 10) > 0.0);
        // Sanity anchors (pJ, 32 nm-ish).
        assert!((sram_access_pj(4 << 10) - 6.16).abs() < 0.1);
        assert!((sram_access_pj(256 << 10) - 35.3).abs() < 0.5);
    }

    #[test]
    fn accumulation_is_additive() {
        let mut m = EnergyModel::new();
        m.add_sram(4096, 10);
        let once = m.breakdown().gpu_dynamic_pj;
        m.add_sram(4096, 10);
        assert!((m.breakdown().gpu_dynamic_pj - 2.0 * once).abs() < 1e-9);
    }

    #[test]
    fn static_energy_tracks_cycles() {
        let mut m = EnergyModel::new();
        m.add_cycles(1000);
        let b = m.breakdown();
        assert_eq!(b.gpu_static_pj, 300_000.0);
        assert_eq!(b.dram_static_pj, 100_000.0);
        assert_eq!(b.gpu_dynamic_pj, 0.0);
    }

    #[test]
    fn dram_energy_from_traffic() {
        let mut m = EnergyModel::new();
        let d = DramStats {
            bytes: [640, 0, 0, 0, 0],
            row_misses: 2,
            ..Default::default()
        };
        m.add_dram(&d);
        assert_eq!(m.breakdown().dram_dynamic_pj, 640.0 * 40.0 + 2000.0);
    }

    #[test]
    fn breakdown_splits_and_total() {
        let b = EnergyBreakdown {
            gpu_dynamic_pj: 1.0,
            gpu_static_pj: 2.0,
            dram_dynamic_pj: 3.0,
            dram_static_pj: 4.0,
        };
        assert_eq!(b.gpu_pj(), 3.0);
        assert_eq!(b.memory_pj(), 7.0);
        assert_eq!(b.total_pj(), 10.0);
    }

    #[test]
    fn average_power_sane() {
        let mut m = EnergyModel::new();
        m.add_cycles(400_000_000); // one second of cycles
                                   // 400 pJ/cycle × 400 MHz = 160 mW.
        let p = m.average_power_mw(400_000_000, 400_000_000);
        assert!((p - 160.0).abs() < 1.0, "got {p}");
    }

    #[test]
    fn raster_energy_counts_buffers() {
        let cfg = TimingConfig::mali450();
        let mut m = EnergyModel::new();
        let t = TileStats {
            blend_ops: 10,
            pixels_flushed: 256,
            depth_accesses: 5,
            ..Default::default()
        };
        m.add_raster(&t, &cfg);
        assert!(m.breakdown().gpu_dynamic_pj > 0.0);
    }
}
