//! Hardware-event counters charged during functional kernel execution.
//!
//! The timing model converts these counters into simulated seconds. They
//! mirror the profiler metrics the paper reasons with: global-memory
//! transactions (the scan is "a memory-bound problem in current GPU
//! architectures", §3.1), shuffle instructions (§3.1's intra-warp
//! communication), shared-memory traffic, and plain arithmetic.

use std::ops::{Add, AddAssign};

/// Event counters accumulated while a kernel (or a whole pipeline) executes.
///
/// All instruction counts are *warp-level*: one coalesced load issued by 32
/// lanes counts as one load instruction, and as however many 128-byte
/// transactions its footprint covers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostCounters {
    /// Global-memory load transactions (128-byte segments read).
    pub gld_transactions: u64,
    /// Global-memory store transactions (128-byte segments written).
    pub gst_transactions: u64,
    /// Warp-level global load instructions issued.
    pub gld_instructions: u64,
    /// Warp-level global store instructions issued.
    pub gst_instructions: u64,
    /// Shared-memory load operations (warp-level).
    pub shared_loads: u64,
    /// Shared-memory store operations (warp-level).
    pub shared_stores: u64,
    /// Warp shuffle instructions (`__shfl_up`/`down`/`xor`/`idx`).
    pub shuffles: u64,
    /// Warp-level arithmetic instructions (the scan operator applications).
    pub alu_ops: u64,
    /// `__syncthreads()` barriers executed per block.
    pub syncs: u64,
    /// Kernel launches.
    pub launches: u64,
}

impl CostCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total global-memory transactions, load + store.
    pub fn global_transactions(&self) -> u64 {
        self.gld_transactions + self.gst_transactions
    }

    /// Total bytes moved through global memory, assuming 128-byte
    /// transactions.
    pub fn global_bytes(&self) -> u64 {
        self.global_transactions() * crate::device::TRANSACTION_BYTES as u64
    }

    /// Total shared-memory operations, load + store.
    pub fn shared_ops(&self) -> u64 {
        self.shared_loads + self.shared_stores
    }

    /// Achieved global-memory bandwidth over a window of `seconds`
    /// simulated seconds, in **bytes per simulated second**.
    ///
    /// This is the single definition of "achieved bandwidth", shared by
    /// the execution-trace exporter and the `profile_pipeline` example, so
    /// the two can never disagree on units. Divide by `1e9` for GB/s.
    pub fn achieved_bandwidth(&self, seconds: f64) -> f64 {
        self.global_bytes() as f64 / seconds
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &CostCounters) {
        *self += *other;
    }
}

impl AddAssign for CostCounters {
    fn add_assign(&mut self, rhs: Self) {
        self.gld_transactions += rhs.gld_transactions;
        self.gst_transactions += rhs.gst_transactions;
        self.gld_instructions += rhs.gld_instructions;
        self.gst_instructions += rhs.gst_instructions;
        self.shared_loads += rhs.shared_loads;
        self.shared_stores += rhs.shared_stores;
        self.shuffles += rhs.shuffles;
        self.alu_ops += rhs.alu_ops;
        self.syncs += rhs.syncs;
        self.launches += rhs.launches;
    }
}

impl Add for CostCounters {
    type Output = CostCounters;
    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let c = CostCounters::new();
        assert_eq!(c.global_transactions(), 0);
        assert_eq!(c.global_bytes(), 0);
        assert_eq!(c.shared_ops(), 0);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = CostCounters { gld_transactions: 1, shuffles: 2, ..Default::default() };
        let b = CostCounters {
            gld_transactions: 10,
            gst_transactions: 5,
            shuffles: 1,
            launches: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.gld_transactions, 11);
        assert_eq!(a.gst_transactions, 5);
        assert_eq!(a.shuffles, 3);
        assert_eq!(a.launches, 1);
        assert_eq!(a.global_transactions(), 16);
    }

    #[test]
    fn global_bytes_multiplies_by_transaction_size() {
        let c = CostCounters { gld_transactions: 3, gst_transactions: 1, ..Default::default() };
        assert_eq!(c.global_bytes(), 4 * 128);
    }

    #[test]
    fn add_operator_matches_add_assign() {
        let a = CostCounters { alu_ops: 7, syncs: 1, ..Default::default() };
        let b = CostCounters { alu_ops: 3, shared_loads: 2, ..Default::default() };
        let c = a + b;
        assert_eq!(c.alu_ops, 10);
        assert_eq!(c.syncs, 1);
        assert_eq!(c.shared_loads, 2);
    }
}
