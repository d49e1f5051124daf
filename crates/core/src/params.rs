//! Problem and node parameters (Table 2 of the paper).
//!
//! * Problem parameters: `N = 2^n` elements per problem, `G = 2^g` problems
//!   solved simultaneously in one library invocation (the *batch*).
//! * Node parameters: `W = 2^w` GPUs per node, split as `W = Y · V` across
//!   `Y` PCIe networks of `V` GPUs each, over `M = 2^m` nodes.
//!
//! The GPU performance parameters `(S, P, B, L, K)` live in
//! [`skeletons::SplkTuple`] and [`crate::plan::ExecutionPlan`].

use crate::error::{ScanError, ScanResult};
use interconnect::Topology;

/// Inclusive vs. exclusive scan semantics (§1: "the i-element is the
/// result of applying the operator from element 0 to element i-1, in the
/// case of exclusive scan, or from element 0 to element i" for inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScanKind {
    /// `out[i] = x₀ ∘ … ∘ xᵢ` — the paper's default.
    #[default]
    Inclusive,
    /// `out[0] = identity`, `out[i] = x₀ ∘ … ∘ xᵢ₋₁`.
    Exclusive,
}

/// The batch-problem shape: `G = 2^g` problems of `N = 2^n` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemParams {
    n: u32,
    g: u32,
}

impl ProblemParams {
    /// Exclusive upper bound on `n` and `g`: both are log₂ values.
    pub const LOG2_LIMIT: u32 = 40;

    /// `G = 2^g` problems of `N = 2^n` elements each.
    ///
    /// # Panics
    /// Panics if `n` or `g` is not below [`ProblemParams::LOG2_LIMIT`].
    pub fn new(n: u32, g: u32) -> Self {
        assert!(
            n < Self::LOG2_LIMIT && g < Self::LOG2_LIMIT,
            "problem sizes are log2 values; got n={n}, g={g}"
        );
        ProblemParams { n, g }
    }

    /// A single problem (`G = 1`) of `2^n` elements.
    pub fn single(n: u32) -> Self {
        ProblemParams::new(n, 0)
    }

    /// The paper's evaluation sweep: a fixed total of `2^total` elements
    /// split into `G = 2^total / N` problems of `N = 2^n` ("where
    /// `G = 2^28/N`", §5).
    ///
    /// # Panics
    /// Panics if `n > total`.
    pub fn fixed_total(total: u32, n: u32) -> Self {
        assert!(n <= total, "problem size 2^{n} exceeds total 2^{total}");
        ProblemParams::new(n, total - n)
    }

    /// log₂ of the problem size.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// log₂ of the batch size.
    pub fn g(&self) -> u32 {
        self.g
    }

    /// `N`, elements per problem.
    pub fn problem_size(&self) -> usize {
        1 << self.n
    }

    /// `G`, number of problems in the batch.
    pub fn batch(&self) -> usize {
        1 << self.g
    }

    /// Total elements across the batch, `G · N`.
    pub fn total_elems(&self) -> usize {
        self.batch() * self.problem_size()
    }
}

/// The multi-GPU execution shape: `W = Y · V` GPUs per node, `M` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeConfig {
    w: usize,
    v: usize,
    y: usize,
    m: usize,
}

impl NodeConfig {
    /// Build and validate a `(W, V, Y, M)` selection.
    ///
    /// All values must be powers of two (Table 2) and satisfy `W = Y · V`.
    pub fn new(w: usize, v: usize, y: usize, m: usize) -> ScanResult<Self> {
        for (name, val) in [("W", w), ("V", v), ("Y", y), ("M", m)] {
            if val == 0 || !val.is_power_of_two() {
                return Err(ScanError::InvalidConfig(format!(
                    "{name} = {val} must be a nonzero power of two"
                )));
            }
        }
        if w != y * v {
            return Err(ScanError::InvalidConfig(format!("W = {w} must equal Y · V = {y} · {v}")));
        }
        Ok(NodeConfig { w, v, y, m })
    }

    /// The trivial single-GPU configuration.
    pub fn single_gpu() -> Self {
        NodeConfig { w: 1, v: 1, y: 1, m: 1 }
    }

    /// `W`: GPUs used per node.
    pub fn w(&self) -> usize {
        self.w
    }

    /// `V`: GPUs used per PCIe network.
    pub fn v(&self) -> usize {
        self.v
    }

    /// `Y`: PCIe networks used per node.
    pub fn y(&self) -> usize {
        self.y
    }

    /// `M`: number of nodes.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total GPUs in the run, `M · W`.
    pub fn total_gpus(&self) -> usize {
        self.m * self.w
    }

    /// Check the selection against real hardware.
    pub fn validate_against(&self, topo: &Topology) -> ScanResult<()> {
        if self.m > topo.nodes() {
            return Err(ScanError::InvalidConfig(format!(
                "M = {} exceeds the {} available nodes",
                self.m,
                topo.nodes()
            )));
        }
        if !topo.supports(self.w, self.v, self.y) {
            return Err(ScanError::InvalidConfig(format!(
                "(W={}, V={}, Y={}) does not fit a node with {} networks of {} GPUs",
                self.w,
                self.v,
                self.y,
                topo.networks_per_node(),
                topo.gpus_per_network()
            )));
        }
        Ok(())
    }

    /// The flat GPU ids this configuration uses: for every selected node,
    /// the first `V` GPUs of each of the first `Y` PCIe networks.
    pub fn selected_gpus(&self, topo: &Topology) -> Vec<usize> {
        let mut ids = Vec::with_capacity(self.total_gpus());
        for node in 0..self.m {
            for net in 0..self.y {
                for slot in 0..self.v {
                    ids.push(topo.gpu_at(node, net, slot));
                }
            }
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_params_arithmetic() {
        let p = ProblemParams::new(13, 15);
        assert_eq!(p.problem_size(), 8192);
        assert_eq!(p.batch(), 32768);
        assert_eq!(p.total_elems(), 1 << 28);
    }

    #[test]
    fn fixed_total_matches_paper_sweep() {
        // §5: 2^28 data split into G = 2^28/N batches.
        for n in 13..=28 {
            let p = ProblemParams::fixed_total(28, n);
            assert_eq!(p.total_elems(), 1 << 28);
            assert_eq!(p.batch(), 1usize << (28 - n));
        }
        assert_eq!(ProblemParams::fixed_total(28, 28).batch(), 1);
    }

    #[test]
    fn single_problem() {
        let p = ProblemParams::single(20);
        assert_eq!(p.batch(), 1);
        assert_eq!(p.total_elems(), 1 << 20);
    }

    #[test]
    fn paper_example_configurations() {
        // §2.1: "W = 4, Y = 2, V = 2 and M = 1" for a full node of Figure 2.
        let c = NodeConfig::new(4, 2, 2, 1).unwrap();
        assert_eq!(c.total_gpus(), 4);
        // "Using only the GPU 0 and GPU 2 would involve W=2, Y=2, V=1".
        assert!(NodeConfig::new(2, 1, 2, 1).is_ok());
        // "M = 2 when using Node 0 and Node 1 with W=4, V=2 and Y=2".
        let c = NodeConfig::new(4, 2, 2, 2).unwrap();
        assert_eq!(c.total_gpus(), 8);
    }

    #[test]
    fn w_must_be_y_times_v() {
        assert!(NodeConfig::new(8, 2, 2, 1).is_err());
        assert!(NodeConfig::new(8, 4, 2, 1).is_ok());
    }

    #[test]
    fn non_power_of_two_rejected() {
        assert!(NodeConfig::new(3, 3, 1, 1).is_err());
        assert!(NodeConfig::new(4, 2, 2, 3).is_err());
        assert!(NodeConfig::new(0, 1, 1, 1).is_err());
    }

    #[test]
    fn hardware_validation() {
        let topo = Topology::tsubame_kfc(2);
        assert!(NodeConfig::new(8, 4, 2, 1).unwrap().validate_against(&topo).is_ok());
        assert!(NodeConfig::new(8, 4, 2, 2).unwrap().validate_against(&topo).is_ok());
        // Only two nodes exist.
        assert!(NodeConfig::new(8, 4, 2, 4).unwrap().validate_against(&topo).is_err());
        // A network only has 4 GPUs.
        assert!(NodeConfig::new(8, 8, 1, 1).unwrap().validate_against(&topo).is_err());
    }

    #[test]
    fn selected_gpus_follow_topology_order() {
        let topo = Topology::tsubame_kfc(2);
        let c = NodeConfig::new(4, 2, 2, 1).unwrap();
        // 2 GPUs from each of node 0's two networks (networks start at 0, 4).
        assert_eq!(c.selected_gpus(&topo), vec![0, 1, 4, 5]);
        let c = NodeConfig::new(4, 4, 1, 2).unwrap();
        // 4 GPUs of the first network of each node (node 1 starts at 8).
        assert_eq!(c.selected_gpus(&topo), vec![0, 1, 2, 3, 8, 9, 10, 11]);
    }

    #[test]
    fn single_gpu_config() {
        let c = NodeConfig::single_gpu();
        assert_eq!(c.total_gpus(), 1);
        assert_eq!(c.selected_gpus(&Topology::single_gpu()), vec![0]);
    }
}
