//! The four performance premises (§3.2 and §4.2 of the paper).
//!
//! * **Premise 1** — balance SM block parallelism and warp parallelism:
//!   pick the block size that simultaneously achieves the architectural
//!   maximum of resident blocks *and* 100% warp occupancy (the bold row of
//!   Table 3: 4 warps, ≤64 regs/thread, ≤7168 shared bytes on CC 3.7).
//! * **Premise 2** — maximise the per-thread element count `P` within the
//!   register budget left after index arithmetic ("auxiliary variables and
//!   index calculation consume many registers, p = 3 is defined").
//! * **Premise 3** — bound the cascade factor `K¹` so Stage 2 still fills
//!   the device (Eq. 1), with `K² = 1` and `K¹ = K³`.
//! * **Premise 4** — prioritise high-bandwidth communication paths and keep
//!   enough chunks for every GPU (Eqs. 2 and 3).

use gpu_sim::occupancy::{occupancy, BlockResources};
use gpu_sim::DeviceSpec;
use skeletons::{SplkTuple, MAX_S_WITH_SHUFFLES};

use crate::params::ProblemParams;

/// Registers the paper's kernels spend on index calculation and auxiliary
/// variables, which Premise 2 subtracts from the per-thread budget before
/// sizing `P`. Calibrated so that a 64-register budget with 32-bit elements
/// yields `p = 3`, the paper's choice.
pub const INDEX_OVERHEAD_REGS: usize = 50;

/// The minimum number of Stage-2 blocks Premise 3 requires: "the total
/// number of blocks processed in Stage 2 must be greater than the maximum
/// number of blocks executed per SM; i.e., 16 for Kepler".
pub fn premise3_min_blocks(device: &DeviceSpec) -> usize {
    device.max_blocks_per_sm
}

/// Outcome of Premise 1 for a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Premise1 {
    /// Threads per block (`L = 2^l`).
    pub threads_per_block: usize,
    /// `l = log2 L`.
    pub l: u32,
    /// Per-thread register budget that keeps the block count maximal.
    pub regs_per_thread: usize,
    /// Shared-memory budget per block in bytes.
    pub shared_bytes_budget: usize,
}

/// Apply Premise 1: find the block shape that maximises both block and warp
/// parallelism on `device`.
///
/// The unique solution uses `max_warps_per_sm / max_blocks_per_sm` warps per
/// block (4 on Kepler CC 3.7, 2 on Maxwell), a register budget of
/// `registers_per_sm / (max_blocks · threads)` and a shared budget of
/// `shared_mem_per_sm / max_blocks` — verified against the occupancy
/// calculator rather than assumed.
pub fn premise1(device: &DeviceSpec) -> Premise1 {
    let warps = (device.max_warps_per_sm / device.max_blocks_per_sm).max(1);
    let threads = warps * device.warp_size;
    let regs = device.registers_per_sm / (device.max_blocks_per_sm * threads);
    let shared = device.shared_mem_per_sm / device.max_blocks_per_sm;

    let occ = occupancy(
        device,
        &BlockResources {
            warps_per_block: warps,
            regs_per_thread: regs,
            shared_bytes_per_block: shared,
        },
    );
    debug_assert!(
        occ.is_premise1_optimal(device),
        "premise 1 configuration must maximise both parallelism kinds: {occ:?}"
    );

    Premise1 {
        threads_per_block: threads,
        l: threads.trailing_zeros(),
        regs_per_thread: regs,
        shared_bytes_budget: shared,
    }
}

/// Apply Premise 2: the largest `p` such that `2^p` elements of
/// `elem_bytes` bytes fit in the register budget left after
/// [`INDEX_OVERHEAD_REGS`], capped at the Table 2 bound `p ≤ 6`.
pub fn premise2(regs_per_thread: usize, elem_bytes: usize) -> u32 {
    let regs_per_elem = elem_bytes.div_ceil(4).max(1);
    let available = regs_per_thread.saturating_sub(INDEX_OVERHEAD_REGS) / regs_per_elem;
    if available <= 1 {
        0
    } else {
        (usize::BITS - 1 - available.leading_zeros()).min(6)
    }
}

/// Derive the `(s, p, l)` part of the tuple from Premises 1 and 2,
/// returning it with the given `k` (Premise 3/4 pick `k` separately).
pub fn derive_tuple(device: &DeviceSpec, elem_bytes: usize, k: u32) -> SplkTuple {
    let p1 = premise1(device);
    let p = premise2(p1.regs_per_thread, elem_bytes);
    // Shuffles keep shared memory at one element per warp (§3.1): s ≤ 5,
    // and never more than the number of warps requires.
    let s = MAX_S_WITH_SHUFFLES.min(p + p1.l);
    SplkTuple::new(s, p, p1.l, k).expect("premise-derived tuple is valid by construction")
}

/// Premise 3, Eq. 1: the largest admissible `k = log2 K¹` such that Stage 2
/// still fills the device:
/// `K¹ ≤ G·N / (16 · P¹ · P² · L¹ · L²)`, with both stages using the
/// premise tuple. Returns `None` when even `K¹ = 1` violates the bound
/// (tiny batches — the paper's G=1 small-N regime, where the proposal is
/// admittedly weak).
pub fn premise3_max_k(
    device: &DeviceSpec,
    problem: &ProblemParams,
    tuple: &SplkTuple,
) -> Option<u32> {
    let min_blocks = premise3_min_blocks(device) as u128;
    let p1 = tuple.elems_per_thread() as u128;
    let l1 = tuple.threads_per_block() as u128;
    // Stage 2 runs the same premise-derived (p, l).
    let denominator = min_blocks * p1 * p1 * l1 * l1;
    let numerator = problem.total_elems() as u128;
    if numerator < denominator {
        return None;
    }
    let bound = numerator / denominator;
    Some(63 - (bound as u64).leading_zeros())
}

/// Premise 4, Eqs. 2 and 3: the largest `k` such that every one of the
/// `parts` GPUs sharing a problem still receives at least one chunk:
/// `N / (K¹ · Lx¹ · P¹) ≥ parts`. Returns `None` when even `K¹ = 1` leaves
/// a GPU without a chunk (problem too small for that many GPUs).
pub fn premise4_max_k(problem: &ProblemParams, tuple: &SplkTuple, parts: usize) -> Option<u32> {
    let per_iter = tuple.elems_per_iteration(); // Lx¹ · P¹
    let n = problem.problem_size();
    if n < per_iter * parts {
        return None;
    }
    let bound = n / (per_iter * parts);
    Some(63 - (bound as u64).leading_zeros())
}

/// The admissible search space for `k = log2 K¹` under Premises 3 and 4
/// combined, smallest first. Empty when the combination is infeasible.
pub fn k_search_space(
    device: &DeviceSpec,
    problem: &ProblemParams,
    tuple: &SplkTuple,
    parts: usize,
) -> Vec<u32> {
    let eq1 = premise3_max_k(device, problem, tuple);
    let eq23 = premise4_max_k(problem, tuple, parts);
    match (eq1, eq23) {
        // Eq. 2/3 are hard feasibility constraints; Eq. 1 is a performance
        // preference. When the batch is too small for Eq. 1 (G=1 with small
        // N), fall back to the feasible range.
        (_, None) => Vec::new(),
        (Some(a), Some(b)) => (0..=a.min(b)).collect(),
        (None, Some(b)) => (0..=b).collect(),
    }
}

/// The default `k`. Premise 3's trade-off favours the largest `K¹` that
/// still satisfies Eq. 1 ("K¹ must be large in order to have fewer chunks
/// and reduce the number of global memory transactions"), and Premise 4
/// reinforces it with several GPUs. When Eq. 1 is infeasible — the batch is
/// too small to fill the device at any K — the other side of the trade-off
/// wins: "K¹ must be small in order to … exploit GPU parallelism", so the
/// default drops to `K¹ = 1`.
pub fn default_k(
    device: &DeviceSpec,
    problem: &ProblemParams,
    tuple: &SplkTuple,
    parts: usize,
) -> Option<u32> {
    let eq23 = premise4_max_k(problem, tuple, parts)?;
    match premise3_max_k(device, problem, tuple) {
        Some(eq1) => Some(eq1.min(eq23)),
        None => Some(0),
    }
}

/// Which proposal Premise 4 recommends, with its rationale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Premise4Recommendation {
    /// The `(W, V, Y, M)` selection to run.
    pub config: crate::params::NodeConfig,
    /// Which entry point to use with it.
    pub proposal: RecommendedProposal,
    /// One-line rationale quoting the governing rule.
    pub rationale: &'static str,
}

/// The proposal Premise 4 selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecommendedProposal {
    /// [`crate::Proposal::Sp`].
    ScanSp,
    /// [`crate::Proposal::Mps`] (single node).
    ScanMps,
    /// [`crate::Proposal::Mppc`].
    ScanMpPc,
    /// [`crate::Proposal::MpsMultinode`].
    ScanMpsMultinode,
}

/// Premise 4, as an executable recommendation: given the hardware and the
/// problem, pick `(W, V, Y, M)` and the proposal.
///
/// Follows §4.2's rules in order:
/// 1. *"the number of participating GPUs should be as high as possible"*,
///    but communication paths are prioritised by bandwidth: same-network
///    P2P first — so batches that can be split across networks use
///    Scan-MP-PC with every network's GPUs;
/// 2. single problems that fit on one network's GPUs use Scan-MPS there;
/// 3. crossing networks or nodes is taken only when the hardware offers
///    nothing better: *"if the amount of data is low, the communication
///    via host memory performs better than via MPI … the computation of a
///    huge amount of data performs better through several nodes via
///    MPI-RDMA"* — the byte threshold is where the host-staged and
///    MPI/RDMA transfer-time curves cross.
pub fn premise4_recommend(
    fabric: &interconnect::Fabric,
    problem: &ProblemParams,
) -> Premise4Recommendation {
    use crate::params::NodeConfig;
    let topo = fabric.topology();
    let v_max = topo.gpus_per_network();
    let y_max = topo.networks_per_node();
    let m_max = topo.nodes();

    // A trivial machine: single GPU.
    if topo.total_gpus() == 1 {
        return Premise4Recommendation {
            config: NodeConfig::single_gpu(),
            proposal: RecommendedProposal::ScanSp,
            rationale: "one GPU available",
        };
    }

    // Batches with at least one problem per network group: keep every
    // exchange on a PCIe network (Scan-MP-PC).
    let groups = (y_max * m_max).min(problem.batch());
    if groups > 1 {
        let y = groups.div_ceil(m_max).min(y_max);
        let m = groups.div_ceil(y).min(m_max);
        let config = NodeConfig::new(y * v_max, v_max, y, m).expect("hardware-shaped config");
        return Premise4Recommendation {
            config,
            proposal: RecommendedProposal::ScanMpPc,
            rationale: "batch splits across PCIe networks; all exchanges stay P2P (§4.1.1)",
        };
    }

    // G = 1 (or fewer problems than networks): one problem must span GPUs.
    // Decide between host-staged multi-network and MPI multi-node by the
    // transfer-time crossover at the auxiliary-array size.
    let aux_bytes = problem.problem_size() / 1024 * 4; // ~one reduction per KiB chunk
    let spec = fabric.spec();
    let host_cost = spec.host_staged.transfer_time(aux_bytes);
    let mpi_cost = spec.inter_node.transfer_time(aux_bytes) + spec.mpi_collective_overhead;
    if m_max > 1 && mpi_cost < host_cost {
        let config =
            NodeConfig::new(v_max * y_max, v_max, y_max, m_max).expect("hardware-shaped config");
        Premise4Recommendation {
            config,
            proposal: RecommendedProposal::ScanMpsMultinode,
            rationale: "huge single problem: MPI-RDMA beats host staging past the crossover (§4.2)",
        }
    } else if y_max > 1 && host_cost < mpi_cost {
        let config =
            NodeConfig::new(v_max * y_max, v_max, y_max, 1).expect("hardware-shaped config");
        Premise4Recommendation {
            config,
            proposal: RecommendedProposal::ScanMps,
            rationale: "low data volume: host-staged W=Y·V beats MPI's constant overhead (§4.2)",
        }
    } else {
        let config = NodeConfig::new(v_max, v_max, 1, 1).expect("hardware-shaped config");
        Premise4Recommendation {
            config,
            proposal: RecommendedProposal::ScanMps,
            rationale: "single problem on one PCIe network: pure P2P (§4.2)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k80() -> DeviceSpec {
        DeviceSpec::tesla_k80()
    }

    #[test]
    fn premise1_reproduces_the_bold_row() {
        // §3.2: "our kernels should use 128 threads (4 warps) per block
        // (l = 7), and fewer than 7168 shared memory bytes per block".
        let p1 = premise1(&k80());
        assert_eq!(p1.threads_per_block, 128);
        assert_eq!(p1.l, 7);
        assert_eq!(p1.regs_per_thread, 64);
        assert_eq!(p1.shared_bytes_budget, 7168);
    }

    #[test]
    fn premise1_on_maxwell_uses_two_warps() {
        // Maxwell: 32 blocks/SM, 64 warps/SM -> 2 warps per block.
        let p1 = premise1(&DeviceSpec::maxwell());
        assert_eq!(p1.threads_per_block, 64);
        assert_eq!(p1.l, 6);
    }

    #[test]
    fn premise2_reproduces_p3_for_i32() {
        // §3.2: "p = 3 is defined" for 32-bit integers at 64 regs/thread.
        assert_eq!(premise2(64, 4), 3);
    }

    #[test]
    fn premise2_shrinks_for_wider_elements() {
        // 64-bit elements use two registers each.
        assert!(premise2(64, 8) < premise2(64, 4));
        assert_eq!(premise2(64, 8), 2);
    }

    #[test]
    fn premise2_handles_tiny_budgets() {
        assert_eq!(premise2(50, 4), 0, "no spare registers -> one element");
        assert_eq!(premise2(0, 4), 0);
        // Never exceeds the Table 2 bound p <= 6.
        assert_eq!(premise2(10_000, 4), 6);
    }

    #[test]
    fn derived_tuple_matches_paper() {
        let t = derive_tuple(&k80(), 4, 2);
        assert_eq!(t.s(), 5);
        assert_eq!(t.p(), 3);
        assert_eq!(t.l(), 7);
        assert_eq!(t.chunk_size(), 4 * 1024);
        assert!(t.uses_shuffles());
    }

    #[test]
    fn eq1_bound_for_the_paper_sweep() {
        // G·N = 2^28, denominator 16·8·8·128·128 = 2^24 -> K¹ ≤ 16 (k ≤ 4).
        let d = k80();
        let t = derive_tuple(&d, 4, 0);
        let p = ProblemParams::fixed_total(28, 20);
        assert_eq!(premise3_max_k(&d, &p, &t), Some(4));
        // A smaller total shrinks the bound.
        let p = ProblemParams::fixed_total(24, 20);
        assert_eq!(premise3_max_k(&d, &p, &t), Some(0));
        // Below the denominator, Eq. 1 is infeasible.
        let p = ProblemParams::fixed_total(23, 20);
        assert_eq!(premise3_max_k(&d, &p, &t), None);
    }

    #[test]
    fn eq2_bound_keeps_a_chunk_per_gpu() {
        let d = k80();
        let t = derive_tuple(&d, 4, 0);
        // N = 2^20, 8 GPUs: chunks = N/(K·1024) ≥ 8 -> K ≤ 128 (k ≤ 7).
        let p = ProblemParams::single(20);
        assert_eq!(premise4_max_k(&p, &t, 8), Some(7));
        // N = 2^13, 8 GPUs: K ≤ 1 (k = 0).
        let p = ProblemParams::single(13);
        assert_eq!(premise4_max_k(&p, &t, 8), Some(0));
        // N = 2^12, 8 GPUs: even K=1 gives only 4 chunks -> infeasible.
        let p = ProblemParams::single(12);
        assert_eq!(premise4_max_k(&p, &t, 8), None);
    }

    #[test]
    fn search_space_is_the_intersection() {
        let d = k80();
        let t = derive_tuple(&d, 4, 0);
        let p = ProblemParams::fixed_total(28, 13); // G = 32768, N = 8192
                                                    // Eq1 allows k ≤ 4; Eq2 with 8 parts allows k = 0 only.
        assert_eq!(k_search_space(&d, &p, &t, 8), vec![0]);
        // With one GPU, Eq2 allows k ≤ 3 (8192/1024 = 8 chunks).
        assert_eq!(k_search_space(&d, &p, &t, 1), vec![0, 1, 2, 3]);
        assert_eq!(default_k(&d, &p, &t, 1), Some(3));
    }

    #[test]
    fn infeasible_combination_has_empty_space() {
        let d = k80();
        let t = derive_tuple(&d, 4, 0);
        let p = ProblemParams::single(12); // 4096 elements
        assert!(k_search_space(&d, &p, &t, 8).is_empty());
        assert_eq!(default_k(&d, &p, &t, 8), None);
    }

    #[test]
    fn g1_small_n_falls_back_to_feasible_range() {
        // G=1, N=2^20: Eq.1 infeasible (2^20 < 2^24) but the scan still
        // runs; the space comes from Eq. 2 alone.
        let d = k80();
        let t = derive_tuple(&d, 4, 0);
        let p = ProblemParams::single(20);
        let space = k_search_space(&d, &p, &t, 1);
        assert!(!space.is_empty());
        assert_eq!(*space.last().unwrap(), 10); // 2^20/2^10 = 1024 chunks = K max
    }
}

#[cfg(test)]
mod premise4_tests {
    use super::*;
    use interconnect::Fabric;

    #[test]
    fn batch_workloads_get_mppc_on_all_networks() {
        let fabric = Fabric::tsubame_kfc(1);
        let rec = premise4_recommend(&fabric, &ProblemParams::new(16, 6));
        assert_eq!(rec.proposal, RecommendedProposal::ScanMpPc);
        assert_eq!(rec.config.w(), 8);
        assert_eq!(rec.config.v(), 4);
        assert_eq!(rec.config.y(), 2);
        assert_eq!(rec.config.m(), 1);
    }

    #[test]
    fn multinode_batches_use_every_node() {
        let fabric = Fabric::tsubame_kfc(2);
        let rec = premise4_recommend(&fabric, &ProblemParams::new(16, 6));
        assert_eq!(rec.proposal, RecommendedProposal::ScanMpPc);
        assert_eq!(rec.config.m(), 2, "both nodes' networks host groups");
        assert_eq!(rec.config.total_gpus(), 16);
    }

    #[test]
    fn small_single_problem_stays_on_one_node() {
        // Aux array tiny: host staging beats MPI's constant.
        let fabric = Fabric::tsubame_kfc(2);
        let rec = premise4_recommend(&fabric, &ProblemParams::single(20));
        assert_eq!(rec.proposal, RecommendedProposal::ScanMps);
        assert_eq!(rec.config.m(), 1);
        assert_eq!(rec.config.w(), 8, "W and V maximised, M minimised (§4.2)");
    }

    #[test]
    fn huge_single_problem_goes_multinode() {
        // Past the host/MPI crossover (~540 KB aux => N ~ 2^27+).
        let fabric = Fabric::tsubame_kfc(2);
        let rec = premise4_recommend(&fabric, &ProblemParams::single(31));
        assert_eq!(rec.proposal, RecommendedProposal::ScanMpsMultinode);
        assert_eq!(rec.config.m(), 2, "W and M maximised (§4.2)");
    }

    #[test]
    fn single_network_machine_uses_mps() {
        let fabric = Fabric::new(interconnect::Topology::regular(1, 1, 4), Default::default());
        let rec = premise4_recommend(&fabric, &ProblemParams::single(22));
        assert_eq!(rec.proposal, RecommendedProposal::ScanMps);
        assert_eq!(rec.config.w(), 4);
        assert_eq!(rec.config.y(), 1);
    }

    #[test]
    fn single_gpu_machine_uses_sp() {
        let fabric = Fabric::new(interconnect::Topology::single_gpu(), Default::default());
        let rec = premise4_recommend(&fabric, &ProblemParams::new(16, 4));
        assert_eq!(rec.proposal, RecommendedProposal::ScanSp);
        assert_eq!(rec.config.total_gpus(), 1);
    }
}
