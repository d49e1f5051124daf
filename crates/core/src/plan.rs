//! Execution planning: from `(problem, tuple, parts)` to grids and buffers.
//!
//! An [`ExecutionPlan`] captures the derived quantities of §3.1:
//!
//! * the chunk size `K¹ · Lx¹ · P¹`;
//! * `Bx¹ = (N / parts) / chunk`, the number of chunks (= Stage 1/3 blocks)
//!   per problem **per GPU** (`parts` GPUs share each problem);
//! * the Stage 1/3 grids `(Bx¹, G)` with `Ly = 1`;
//! * the Stage 2 block shape with `Ly² > 1`, `Bx² = 1`, `By² = G / Ly²`
//!   ("the same block must process elements from different problems,
//!   otherwise warp occupancy would be much too low").

use gpu_sim::{AccessWidth, LaunchConfig};
use skeletons::SplkTuple;

use crate::error::{ScanError, ScanResult};
use crate::params::ProblemParams;
use crate::premises;

/// Planned execution of the three-kernel pipeline on each participating
/// GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// The batch-problem shape.
    pub problem: ProblemParams,
    /// The `(s, p, l, K)` tuple in force (K applies to Stages 1 and 3;
    /// Stage 2 runs `K² = 1`).
    pub tuple: SplkTuple,
    /// Number of GPUs sharing each problem (1 for Scan-SP, `W` for
    /// single-node Scan-MPS, `V` for Scan-MP-PC, `M · W` for multi-node
    /// Scan-MPS).
    pub parts: usize,
    /// Elements of one problem held by one GPU, `N / parts`.
    pub portion: usize,
    /// Chunk size `K¹ · Lx¹ · P¹`.
    pub chunk: usize,
    /// Chunks per problem per GPU (`Bx¹ = portion / chunk`).
    pub bx1: usize,
}

impl ExecutionPlan {
    /// Plan the pipeline; errors if the problem cannot be split as
    /// requested (Premise 4's Eqs. 2/3 are violated, or the problem is
    /// smaller than one cascade iteration).
    pub fn new(problem: ProblemParams, tuple: SplkTuple, parts: usize) -> ScanResult<Self> {
        if parts == 0 || !parts.is_power_of_two() {
            return Err(ScanError::InvalidConfig(format!(
                "parts = {parts} must be a nonzero power of two"
            )));
        }
        let n = problem.problem_size();
        if !n.is_multiple_of(parts) {
            return Err(ScanError::InvalidConfig(format!(
                "problem of {n} elements cannot be split across {parts} GPUs"
            )));
        }
        let portion = n / parts;
        let chunk = tuple.chunk_size();
        if chunk > portion {
            return Err(ScanError::InvalidConfig(format!(
                "chunk of {chunk} elements (K·Lx·P) exceeds the per-GPU portion of {portion}; \
                 Eq. 2/3 of Premise 4 require at least one chunk per GPU — reduce K"
            )));
        }
        // Both powers of two, so divisibility is automatic; assert anyway.
        debug_assert_eq!(portion % chunk, 0);
        Ok(ExecutionPlan { problem, tuple, parts, portion, chunk, bx1: portion / chunk })
    }

    /// Elements of the local auxiliary array on each GPU: one reduction per
    /// chunk, `G · Bx¹`.
    pub fn aux_local_len(&self) -> usize {
        self.problem.batch() * self.bx1
    }

    /// Elements of the gathered auxiliary array on the Stage-2 GPU:
    /// `G · parts · Bx¹`.
    pub fn aux_global_len(&self) -> usize {
        self.problem.batch() * self.chunks_per_problem()
    }

    /// Chunks per problem across all participating GPUs, the Stage 2 row
    /// length.
    pub fn chunks_per_problem(&self) -> usize {
        self.parts * self.bx1
    }

    /// Elements each GPU holds across the whole batch, `G · portion`.
    pub fn elems_per_gpu(&self) -> usize {
        self.problem.batch() * self.portion
    }

    /// Stage 1 (Chunk Reduce) launch configuration: grid `(Bx¹, G)`,
    /// block `(Lx, 1)`.
    pub fn stage1_cfg(&self) -> LaunchConfig {
        self.streaming_cfg("stage1:chunk-reduce", self.problem.batch())
    }

    /// Stage 3 (Scan + Addition) launch configuration — same shape as
    /// Stage 1 (`Bx¹ = Bx³`, §3.1).
    pub fn stage3_cfg(&self) -> LaunchConfig {
        self.streaming_cfg("stage3:scan-add", self.problem.batch())
    }

    /// Per-problem Stage 1 grid `(Bx¹, 1)`, for the batched block engine:
    /// the batch's `G` problems (one per coalesced request in the serving
    /// path) concatenate along the grid's y-dimension in one simulator pass
    /// (`Gpu::launch_blocks_batch`), reproducing [`Self::stage1_cfg`]'s
    /// combined grid exactly.
    pub fn stage1_problem_cfg(&self) -> LaunchConfig {
        self.streaming_cfg("stage1:chunk-reduce", 1)
    }

    /// Per-problem Stage 3 grid `(Bx¹, 1)` — the batched-engine companion
    /// of [`Self::stage3_cfg`], like [`Self::stage1_problem_cfg`].
    pub fn stage3_problem_cfg(&self) -> LaunchConfig {
        self.streaming_cfg("stage3:scan-add", 1)
    }

    fn streaming_cfg(&self, label: &str, batch: usize) -> LaunchConfig {
        LaunchConfig::new(label, (self.bx1, batch), (self.tuple.threads_per_block(), 1))
            .shared_elems(self.tuple.shared_elems())
            .regs(premises::INDEX_OVERHEAD_REGS + self.tuple.elems_per_thread())
            .width(AccessWidth::Vec4)
    }

    /// Stage 2 (Intermediate Scan) launch configuration and block
    /// problem-multiplicity: grid `(1, G / Ly²)`, block `(Lx², Ly²)`.
    ///
    /// `Ly²` packs as many problems into one block as one iteration can
    /// hold (`P² · Lx² · Ly² = P · L` elements), capped by `G` and by the
    /// block size.
    pub fn stage2_cfg(&self) -> (LaunchConfig, usize) {
        let l = self.tuple.threads_per_block();
        let rows = self.chunks_per_problem();
        let capacity = self.tuple.elems_per_iteration(); // P · L
        let ly2 = (capacity / rows).clamp(1, l).min(self.problem.batch());
        // Powers of two throughout, so ly2 divides both l and G.
        let lx2 = l / ly2;
        let by2 = self.problem.batch().div_ceil(ly2);
        let cfg = LaunchConfig::new("stage2:intermediate-scan", (1, by2), (lx2, ly2))
            .shared_elems(self.tuple.shared_elems())
            .regs(premises::INDEX_OVERHEAD_REGS + self.tuple.elems_per_thread())
            .width(AccessWidth::Vec4);
        (cfg, ly2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn tuple(k: u32) -> SplkTuple {
        SplkTuple::kepler_premises(k)
    }

    #[test]
    fn single_gpu_plan_quantities() {
        // N = 2^20, G = 4, K = 4: chunk 4096, Bx1 = 256.
        let p = ProblemParams::new(20, 2);
        let plan = ExecutionPlan::new(p, tuple(2), 1).unwrap();
        assert_eq!(plan.chunk, 4096);
        assert_eq!(plan.bx1, 256);
        assert_eq!(plan.portion, 1 << 20);
        assert_eq!(plan.aux_local_len(), 4 * 256);
        assert_eq!(plan.aux_global_len(), 4 * 256);
        assert_eq!(plan.chunks_per_problem(), 256);
        assert_eq!(plan.elems_per_gpu(), 4 << 20);
    }

    #[test]
    fn multi_gpu_plan_splits_portions() {
        let p = ProblemParams::new(20, 0);
        let plan = ExecutionPlan::new(p, tuple(0), 4).unwrap();
        assert_eq!(plan.portion, 1 << 18);
        assert_eq!(plan.bx1, 256);
        assert_eq!(plan.chunks_per_problem(), 1024);
        assert_eq!(plan.aux_local_len(), 256);
        assert_eq!(plan.aux_global_len(), 1024);
    }

    #[test]
    fn stage1_grid_matches_paper_convention() {
        let p = ProblemParams::new(16, 3); // G = 8
        let plan = ExecutionPlan::new(p, tuple(1), 1).unwrap();
        let cfg = plan.stage1_cfg();
        assert_eq!(cfg.grid, (plan.bx1, 8), "Bx blocks per problem, By = G problems");
        assert_eq!(cfg.block, (128, 1), "Ly = 1 in stages 1 and 3");
        assert_eq!(cfg.shared_elems, 32, "s = 5 via shuffles");
        let cfg3 = plan.stage3_cfg();
        assert_eq!(cfg3.grid, cfg.grid, "Bx1 = Bx3 (§3.1)");
    }

    #[test]
    fn stage1_cfg_validates_on_k80() {
        let p = ProblemParams::new(20, 4);
        let plan = ExecutionPlan::new(p, tuple(2), 2).unwrap();
        assert!(plan.stage1_cfg().validate(&DeviceSpec::tesla_k80(), 4).is_ok());
        let (cfg2, _) = plan.stage2_cfg();
        assert!(cfg2.validate(&DeviceSpec::tesla_k80(), 4).is_ok());
    }

    #[test]
    fn stage2_packs_problems_when_rows_are_short() {
        // 16 chunks/problem, G = 64: one iteration holds 1024 elements, so
        // Ly2 = 1024/16 = 64 … capped at the block size 128 -> 64, but G=64
        // also caps it -> 64. Block (2, 64), grid (1, 1).
        let p = ProblemParams::new(16, 6);
        let plan = ExecutionPlan::new(p, tuple(2), 1).unwrap();
        assert_eq!(plan.chunks_per_problem(), 16);
        let (cfg, ly2) = plan.stage2_cfg();
        assert_eq!(ly2, 64);
        assert_eq!(cfg.block, (2, 64));
        assert_eq!(cfg.grid, (1, 1));
    }

    #[test]
    fn stage2_single_problem_per_block_for_long_rows() {
        // Long rows: 2^20 / 1024 = 1024 chunks per problem > capacity.
        let p = ProblemParams::new(20, 3);
        let plan = ExecutionPlan::new(p, tuple(0), 1).unwrap();
        let (cfg, ly2) = plan.stage2_cfg();
        assert_eq!(ly2, 1);
        assert_eq!(cfg.grid, (1, 8), "By2 = G / Ly2");
        assert_eq!(cfg.block, (128, 1));
    }

    #[test]
    fn stage2_ly_capped_by_batch() {
        let p = ProblemParams::new(13, 1); // G = 2, 8 chunks/problem at K=0
        let plan = ExecutionPlan::new(p, tuple(0), 1).unwrap();
        let (cfg, ly2) = plan.stage2_cfg();
        assert_eq!(ly2, 2, "no more problem rows than problems");
        assert_eq!(cfg.grid.1, 1);
    }

    #[test]
    fn oversized_chunk_is_rejected_with_guidance() {
        // N = 2^13 over 8 GPUs: portion 1024; K = 2 gives chunk 2048.
        let p = ProblemParams::new(13, 0);
        let err = ExecutionPlan::new(p, tuple(1), 8).unwrap_err();
        match err {
            ScanError::InvalidConfig(msg) => assert!(msg.contains("reduce K"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        // K = 1 fits exactly: one chunk per GPU.
        let plan = ExecutionPlan::new(p, tuple(0), 8).unwrap();
        assert_eq!(plan.bx1, 1);
    }

    #[test]
    fn bad_parts_rejected() {
        let p = ProblemParams::new(20, 0);
        assert!(ExecutionPlan::new(p, tuple(0), 0).is_err());
        assert!(ExecutionPlan::new(p, tuple(0), 3).is_err());
    }
}
