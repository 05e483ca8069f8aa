//! The Signature Unit and Signature Buffer (paper §III).
//!
//! While the Polygon List Builder sorts primitives into tiles, the
//! Signature Unit incrementally folds each tile's input stream into a CRC32
//! held in the on-chip **Signature Buffer**:
//!
//! * per drawcall, the constants block is signed once and folded into a
//!   tile's signature only the *first* time that drawcall touches the tile
//!   (tracked by the constants **bitmap**, §III-F);
//! * per primitive, the attribute block is signed by the **Compute CRC
//!   unit** and folded into every overlapped tile's signature via the
//!   **Accumulate CRC unit**, consuming tile ids from the **OT queue**.
//!
//! The unit runs concurrently with binning; the only way it slows the GPU
//! down is when the 16-entry OT queue fills while the Accumulate unit
//! drains a primitive that overlaps many tiles (paper §V measures 0.64%
//! added geometry cycles on average). [`SignatureUnit::process_frame`]
//! reproduces that with a small queue simulation and reports the stall
//! cycles plus every structure-access count the energy model charges.
//!
//! # Timing refinement
//!
//! Algorithm 3 as literally written shifts a tile's CRC one 64-bit
//! subblock per cycle, i.e. ~18 cycles per (primitive, tile) fold for the
//! average primitive. With that service rate, any full-screen primitive
//! (3600 tiles) would stall the Geometry Pipeline for tens of thousands of
//! cycles — orders of magnitude above the 0.64% overhead the paper
//! measures on games that do draw full-screen backgrounds. Consistent with
//! the paper's reference to pipelined table-based CRC computation
//! (Sun & Kim), we model the Accumulate path as *pipelined across tiles*:
//! the zero-extension operator `x^(64·s) mod P` for a block is composed
//! once while the Compute unit signs the block (that latency is charged),
//! and each tile fold then takes [`ACCUM_FOLD_CYCLES`] (read + apply +
//! write). The iterative per-subblock energy is still charged (the LUT
//! work does not disappear) — only the *throughput* is pipelined.

/// Pipelined Accumulate-unit service per (primitive, tile) fold.
pub const ACCUM_FOLD_CYCLES: u64 = 2;

use std::collections::VecDeque;

use re_crc::units::{AccumulateCrcUnit, ComputeCrcUnit};
use re_gpu::geometry::GeometryOutput;

use crate::render::FrameGeometry;

/// Hardware-activity counters of one frame's signature computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SignatureUnitStats {
    /// Cycles spent by the Compute CRC unit (8 bytes/cycle).
    pub compute_cycles: u64,
    /// Cycles spent by the Accumulate CRC unit (1 zero-subblock/cycle).
    pub accumulate_cycles: u64,
    /// Geometry-pipeline stall cycles caused by OT-queue overflow.
    pub stall_cycles: u64,
    /// Signature Buffer reads+writes (2 per fold).
    pub sig_buffer_accesses: u64,
    /// 1 KB CRC LUT lookups (12 per Compute cycle, 4 per Accumulate cycle).
    pub lut_accesses: u64,
    /// Constants-bitmap queries/updates.
    pub bitmap_accesses: u64,
    /// Tile ids pushed through the OT queue.
    pub ot_pushes: u64,
    /// Peak OT-queue occupancy observed.
    pub max_queue_occupancy: u32,
}

impl SignatureUnitStats {
    /// Merges another frame's counters.
    pub fn merge(&mut self, o: &SignatureUnitStats) {
        self.compute_cycles += o.compute_cycles;
        self.accumulate_cycles += o.accumulate_cycles;
        self.stall_cycles += o.stall_cycles;
        self.sig_buffer_accesses += o.sig_buffer_accesses;
        self.lut_accesses += o.lut_accesses;
        self.bitmap_accesses += o.bitmap_accesses;
        self.ot_pushes += o.ot_pushes;
        self.max_queue_occupancy = self.max_queue_occupancy.max(o.max_queue_occupancy);
    }
}

/// One frame's tile signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSignatures {
    /// CRC32 per tile, indexed by tile id.
    pub sigs: Vec<u32>,
    /// Hardware activity while computing them.
    pub stats: SignatureUnitStats,
}

/// The Signature Unit (paper Fig. 7).
#[derive(Debug)]
pub struct SignatureUnit {
    compute: ComputeCrcUnit,
    accumulate: AccumulateCrcUnit,
    ot_queue_depth: usize,
}

impl SignatureUnit {
    /// Builds the unit; `ot_queue_depth` is 16 in the paper's design.
    pub fn new(ot_queue_depth: usize) -> Self {
        assert!(ot_queue_depth > 0, "OT queue needs at least one entry");
        SignatureUnit {
            compute: ComputeCrcUnit::new(),
            accumulate: AccumulateCrcUnit::new(),
            ot_queue_depth,
        }
    }

    /// LUT storage of the CRC units in bytes (8 KB Sign + 4 KB Shift in the
    /// Compute unit, 4 KB Shift in the Accumulate unit).
    pub fn lut_storage_bytes(&self) -> usize {
        self.compute.storage_bytes() + self.accumulate.storage_bytes()
    }

    /// Signs every tile's input stream for one frame of recorded geometry.
    ///
    /// Consumes the Polygon-List-Builder output in submission order,
    /// mirroring Fig. 6: for each drawcall, the constants block is folded
    /// into a tile's signature on first touch (bitmap), then every
    /// overlapping primitive's attribute block is folded via the OT queue.
    ///
    /// # Panics
    /// Panics if a primitive overlaps a tile id `>= tile_count` (a decoded
    /// `.relog` never holds one).
    pub fn process_frame(&mut self, geo: &FrameGeometry, tile_count: u32) -> FrameSignatures {
        let mut sigs = vec![0u32; tile_count as usize];
        let mut stats = SignatureUnitStats::default();

        // --- queue/stall simulation state --------------------------------
        // Completion times of in-flight OT entries (FIFO).
        let mut inflight: VecDeque<u64> = VecDeque::new();
        // Time at which the PLB pushes the next tile id.
        let mut plb_time: u64 = 0;
        // Times at which the Compute / Accumulate units become free.
        let mut compute_free: u64 = 0;
        let mut accum_free: u64 = 0;

        self.compute.reset_cycles();
        self.accumulate.reset_cycles();

        for dc in &geo.drawcalls {
            // Sign the constants block (Compute CRC unit → Constants CRC
            // register); the bitmap is cleared for the new constants set.
            let cb = self.compute.sign_block(&dc.constants_bytes);
            let mut bitmap = vec![false; tile_count as usize];
            compute_free = compute_free.max(plb_time) + cb.shift_amount as u64;

            for prim in &dc.prims {
                // Sign the primitive's attribute block.
                let pb = self.compute.sign_block(&prim.param_bytes);
                let compute_done = {
                    compute_free = compute_free.max(plb_time) + pb.shift_amount as u64;
                    compute_free
                };
                let prim_start = plb_time;

                for &tile in &prim.overlapped_tiles {
                    // --- functional fold ---------------------------------
                    let t = tile as usize;
                    let mut fold_cost = ACCUM_FOLD_CYCLES;
                    stats.bitmap_accesses += 1;
                    if !bitmap[t] {
                        bitmap[t] = true;
                        stats.bitmap_accesses += 1;
                        sigs[t] = re_crc::units::fold_block(&mut self.accumulate, sigs[t], cb);
                        stats.sig_buffer_accesses += 2;
                        fold_cost += ACCUM_FOLD_CYCLES;
                    }
                    sigs[t] = re_crc::units::fold_block(&mut self.accumulate, sigs[t], pb);
                    stats.sig_buffer_accesses += 2;
                    stats.ot_pushes += 1;

                    // --- timing ------------------------------------------
                    // Drain entries the Accumulate unit already finished.
                    while let Some(&done) = inflight.front() {
                        if done <= plb_time {
                            inflight.pop_front();
                        } else {
                            break;
                        }
                    }
                    // Full queue: the PLB stalls until a slot frees up.
                    if inflight.len() == self.ot_queue_depth {
                        let free_at = inflight.pop_front().expect("non-empty");
                        stats.stall_cycles += free_at - plb_time;
                        plb_time = free_at;
                    }
                    stats.max_queue_occupancy =
                        stats.max_queue_occupancy.max(inflight.len() as u32 + 1);
                    // Service: the Accumulate unit shifts `fold_cost`
                    // subblocks, and cannot start before the primitive's CRC
                    // is computed.
                    let start = accum_free.max(plb_time).max(compute_done);
                    accum_free = start + fold_cost;
                    inflight.push_back(accum_free);
                    // The PLB emits one tile id per polygon-list-entry
                    // write (8 B at 4 B/cycle), which matches the pipelined
                    // Accumulate service rate — steady-state stalls only
                    // arise from constants folds and compute dependencies.
                    plb_time += 2;
                }
                // Between primitives the PLB is busy streaming the
                // attribute record to the Parameter Buffer (4 B/cycle), so
                // the Signature Unit gets that long to drain the queue —
                // only primitives overlapping far more tiles than their
                // write time can stall the pipeline (paper §V).
                plb_time = plb_time.max(prim_start + prim.param_bytes.len() as u64 / 4);
            }
        }

        stats.compute_cycles = self.compute.cycles();
        stats.accumulate_cycles = self.accumulate.cycles();
        // 12 LUT reads per Compute cycle (8 Sign + 4 Shift), 4 per
        // Accumulate cycle (Shift only).
        stats.lut_accesses = stats.compute_cycles * 12 + stats.accumulate_cycles * 4;

        FrameSignatures { sigs, stats }
    }
}

impl Default for SignatureUnit {
    fn default() -> Self {
        SignatureUnit::new(16)
    }
}

/// Computes a frame's tile signatures *functionally* (no cycle model)
/// straight from the rasterizer's output — the reference the unit's run
/// over the recorded [`FrameGeometry`] is checked against.
pub fn reference_signatures(geo: &GeometryOutput, tile_count: u32) -> Vec<u32> {
    let mut sigs = vec![0u32; tile_count as usize];
    for dc in &geo.drawcalls {
        let mut touched = vec![false; tile_count as usize];
        for &pi in &dc.prim_indices {
            let prim = &geo.prims[pi as usize];
            for &tile in &prim.overlapped_tiles {
                let t = tile as usize;
                if !touched[t] {
                    touched[t] = true;
                    sigs[t] = re_crc::units::fold_block_software(sigs[t], &dc.constants_bytes);
                }
                sigs[t] = re_crc::units::fold_block_software(sigs[t], &prim.param_bytes);
            }
        }
    }
    sigs
}

/// The Signature Buffer: tile signatures of the frames still needed for
/// comparison.
///
/// With double buffering (paper §IV-C) a skipped tile exposes the color it
/// had **two** frames ago, so the current frame must be compared against
/// the signatures from `distance = 2` frames back and the buffer spans two
/// past frames. `distance = 1` models a single-buffered display.
#[derive(Debug, Clone)]
pub struct SignatureBuffer {
    history: VecDeque<Vec<u32>>,
    distance: usize,
    tile_count: u32,
    /// Bits of each signature the hardware stores and compares (1..=32).
    sig_bits: u32,
    /// Mask selecting the stored bits.
    mask: u32,
    /// Signature-compare reads performed at tile-scheduling time.
    pub compare_reads: u64,
}

impl SignatureBuffer {
    /// Creates an empty buffer comparing at `distance` frames, storing the
    /// full 32-bit CRC (the paper's design point).
    ///
    /// # Panics
    /// Panics if `distance == 0`.
    pub fn new(tile_count: u32, distance: usize) -> Self {
        SignatureBuffer::with_sig_bits(tile_count, distance, 32)
    }

    /// Creates a buffer that truncates each signature to its low `sig_bits`
    /// bits — the storage/false-positive trade-off axis of the paper's §V
    /// sensitivity discussion: narrower signatures shrink the Signature
    /// Buffer but raise the collision (false skip) probability.
    ///
    /// # Panics
    /// Panics if `distance == 0` or `sig_bits` is not in `1..=32`.
    pub fn with_sig_bits(tile_count: u32, distance: usize, sig_bits: u32) -> Self {
        assert!(distance >= 1, "compare distance must be at least 1");
        assert!((1..=32).contains(&sig_bits), "sig_bits must be in 1..=32");
        let mask = if sig_bits == 32 {
            u32::MAX
        } else {
            (1u32 << sig_bits) - 1
        };
        SignatureBuffer {
            history: VecDeque::with_capacity(distance),
            distance,
            tile_count,
            sig_bits,
            mask,
            compare_reads: 0,
        }
    }

    /// Storage the hardware needs: `distance` frames of `sig_bits`-wide
    /// signatures (rounded up to whole bytes per tile).
    pub fn storage_bytes(&self) -> usize {
        self.distance * self.tile_count as usize * self.sig_bits.div_ceil(8) as usize
    }

    /// Whether tile `tile` of the frame with signatures `cur` may be
    /// skipped: true iff a signature from `distance` frames ago exists and
    /// matches in the stored bits. Counts the Signature Buffer read.
    pub fn matches(&mut self, cur: &[u32], tile: u32) -> bool {
        self.compare_reads += 1;
        match self.history.front() {
            Some(old) if self.history.len() == self.distance => {
                (old[tile as usize] ^ cur[tile as usize]) & self.mask == 0
            }
            _ => false,
        }
    }

    /// Commits the finished frame's signatures, retiring the oldest set.
    pub fn push(&mut self, sigs: Vec<u32>) {
        assert_eq!(
            sigs.len(),
            self.tile_count as usize,
            "signature count mismatch"
        );
        if self.history.len() == self.distance {
            self.history.pop_front();
        }
        self.history.push_back(sigs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_gpu::api::{DrawCall, FrameDesc, PipelineState, Vertex};
    use re_gpu::GpuConfig;
    use re_math::{Mat4, Vec4};

    fn cfg() -> GpuConfig {
        GpuConfig {
            width: 64,
            height: 64,
            tile_size: 16,
            ..Default::default()
        }
    }

    fn tri(x0: f32, y0: f32, s: f32) -> DrawCall {
        let verts = [(x0, y0), (x0 + s, y0), (x0, y0 + s)]
            .iter()
            .map(|&(x, y)| Vertex::new(vec![Vec4::new(x, y, 0.0, 1.0), Vec4::splat(1.0)]))
            .collect();
        DrawCall {
            state: PipelineState::flat_2d(),
            constants: Mat4::IDENTITY.cols.to_vec(),
            vertices: verts,
        }
    }

    fn geo_for(dcs: Vec<DrawCall>) -> re_gpu::GeometryOutput {
        let frame = FrameDesc {
            drawcalls: dcs,
            ..FrameDesc::new()
        };
        re_gpu::geometry::run_geometry(&cfg(), &frame, &mut Vec::new())
    }

    /// The unit's run over `geo` as Stage A records it.
    fn unit_run(su: &mut SignatureUnit, geo: &re_gpu::GeometryOutput) -> FrameSignatures {
        su.process_frame(&FrameGeometry::record(geo), cfg().tile_count())
    }

    #[test]
    fn unit_matches_reference_signatures() {
        let geo = geo_for(vec![tri(-0.8, -0.8, 1.0), tri(0.1, 0.1, 0.5)]);
        let mut su = SignatureUnit::default();
        let out = unit_run(&mut su, &geo);
        assert_eq!(out.sigs, reference_signatures(&geo, cfg().tile_count()));
    }

    #[test]
    fn untouched_tiles_have_zero_signature() {
        let geo = geo_for(vec![tri(-0.9, -0.9, 0.1)]); // tiny, one corner
        let mut su = SignatureUnit::default();
        let out = unit_run(&mut su, &geo);
        assert!(out.sigs.iter().filter(|&&s| s == 0).count() >= 14);
    }

    #[test]
    fn identical_geometry_identical_signatures() {
        let g1 = geo_for(vec![tri(-0.5, -0.5, 1.0)]);
        let g2 = geo_for(vec![tri(-0.5, -0.5, 1.0)]);
        let mut su = SignatureUnit::default();
        let s1 = unit_run(&mut su, &g1);
        let s2 = unit_run(&mut su, &g2);
        assert_eq!(s1.sigs, s2.sigs);
    }

    #[test]
    fn moved_primitive_changes_touched_tiles_only() {
        let g1 = geo_for(vec![tri(-0.9, -0.9, 0.4)]);
        let g2 = geo_for(vec![tri(-0.9, -0.9, 0.45)]);
        let tc = cfg().tile_count();
        let s1 = reference_signatures(&g1, tc);
        let s2 = reference_signatures(&g2, tc);
        assert_ne!(s1, s2, "changed geometry must change some signature");
        // Tiles far away from the triangle stay untouched.
        assert_eq!(s1[tc as usize - 1], s2[tc as usize - 1]);
    }

    #[test]
    fn constants_signed_once_per_tile_per_drawcall() {
        // Two primitives of the same drawcall overlapping the same tile:
        // the constants must enter the signature once (Fig. 6).
        let mut dc = tri(-0.6, -0.6, 0.3);
        let second = tri(-0.5, -0.5, 0.3);
        dc.vertices.extend(second.vertices);
        let geo = geo_for(vec![dc]);
        let tc = cfg().tile_count();
        let sigs = reference_signatures(&geo, tc);

        // Manual expectation for the busiest tile.
        let dcm = &geo.drawcalls[0];
        let mut expected = vec![0u32; tc as usize];
        let mut touched = vec![false; tc as usize];
        for &pi in &dcm.prim_indices {
            for &t in &geo.prims[pi as usize].overlapped_tiles {
                let t = t as usize;
                if !touched[t] {
                    touched[t] = true;
                    expected[t] =
                        re_crc::units::fold_block_software(expected[t], &dcm.constants_bytes);
                }
                expected[t] = re_crc::units::fold_block_software(
                    expected[t],
                    &geo.prims[pi as usize].param_bytes,
                );
            }
        }
        assert_eq!(sigs, expected);
    }

    #[test]
    fn compute_cycles_match_paper_rates() {
        let geo = geo_for(vec![tri(-0.5, -0.5, 0.2)]);
        let mut su = SignatureUnit::default();
        let out = unit_run(&mut su, &geo);
        // Constants: 64 B → 8 cycles. One primitive: 2 attrs × 48 B = 96 B
        // → 12 cycles.
        assert_eq!(out.stats.compute_cycles, 8 + 12);
        assert!(out.stats.accumulate_cycles > 0);
        assert_eq!(
            out.stats.lut_accesses,
            out.stats.compute_cycles * 12 + out.stats.accumulate_cycles * 4
        );
    }

    #[test]
    fn wide_primitive_overflows_ot_queue() {
        // A fullscreen triangle overlaps 4×4=16 tiles at 64×64/16; several
        // of them force the 2-entry queue to stall.
        let geo = geo_for(vec![tri(-1.0, -1.0, 4.0)]);
        let mut small = SignatureUnit::new(2);
        let out_small = unit_run(&mut small, &geo);
        let mut big = SignatureUnit::new(1024);
        let out_big = unit_run(&mut big, &geo);
        assert!(out_small.stats.stall_cycles > out_big.stats.stall_cycles);
        assert_eq!(
            out_small.sigs, out_big.sigs,
            "timing does not change values"
        );
    }

    #[test]
    fn signature_buffer_needs_full_history() {
        let mut sb = SignatureBuffer::new(4, 2);
        let cur = vec![7u32; 4];
        assert!(!sb.matches(&cur, 0), "no history yet");
        sb.push(vec![7u32; 4]); // frame 0
        assert!(!sb.matches(&cur, 0), "only one frame of history");
        sb.push(vec![9u32; 4]); // frame 1
                                // Now frame-0 signatures are at distance 2.
        assert!(sb.matches(&cur, 0));
        sb.push(vec![1u32; 4]); // frame 2; frame 0 retired
        assert!(!sb.matches(&cur, 0), "compares against frame 1 now");
        assert_eq!(sb.compare_reads, 4);
    }

    #[test]
    fn signature_buffer_distance_one() {
        let mut sb = SignatureBuffer::new(2, 1);
        sb.push(vec![5, 6]);
        assert!(sb.matches(&[5, 0], 0));
        assert!(!sb.matches(&[0, 0], 0));
        assert!(sb.matches(&[0, 6], 1));
    }

    #[test]
    fn narrow_signatures_compare_truncated_bits_only() {
        let mut sb = SignatureBuffer::with_sig_bits(2, 1, 8);
        sb.push(vec![0x1234_5678, 0]);
        assert!(
            sb.matches(&[0xFFFF_FF78, 0], 0),
            "only the low 8 bits count"
        );
        assert!(!sb.matches(&[0x0000_0079, 0], 0));
        assert_eq!(sb.storage_bytes(), 2, "one byte per tile at 8 bits");
        // Full width stays byte-exact.
        let full = SignatureBuffer::new(3600, 2);
        assert_eq!(full.storage_bytes(), 28_800);
    }

    #[test]
    fn signature_buffer_storage_spans_two_frames() {
        // Paper §IV-C: signatures spanning two frames. 3600 tiles × 4 B × 2.
        let sb = SignatureBuffer::new(3600, 2);
        assert_eq!(sb.storage_bytes(), 28_800);
    }

    #[test]
    fn lut_storage_is_16kb() {
        // Compute: 8 KB Sign + 4 KB Shift; Accumulate: 4 KB Shift.
        assert_eq!(SignatureUnit::default().lut_storage_bytes(), 16 * 1024);
    }
}
