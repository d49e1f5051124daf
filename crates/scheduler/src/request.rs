//! One tenant's scan request as the serving layer sees it.

use scan_core::ProblemParams;

use crate::kind::OpKind;

/// A queued scan job: what to scan, when it arrived, how many GPUs it
/// wants, and how urgent it is.
///
/// Problem shape is carried as the paper's `(n, g)` exponents — `2^g`
/// problems of `2^n` elements — so every request is a valid batch for the
/// Scan-SP/Scan-MPS planners by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Dense id, also the tie-break of last resort in every policy order.
    pub id: usize,
    /// Simulated arrival time, seconds.
    pub arrival: f64,
    /// log2 of the problem size `N`.
    pub n: u32,
    /// log2 of the batch `G` (number of independent problems).
    pub g: u32,
    /// GPUs the request asks for. The pool may grant fewer (a partial
    /// lease, planned with the degraded-mode subset rule).
    pub gpus_wanted: usize,
    /// Smaller is more urgent. Only breaks ties within a policy's primary
    /// key; it never overrides it.
    pub priority: u8,
    /// Tenant (user) id: the unit of hash placement and per-tenant SLO
    /// accounting in the sharded router. The default workload stamps
    /// every request tenant 0; single-server scheduling ignores it.
    pub tenant: u8,
    /// Absolute completion deadline, seconds (EDF's key; `None` = none).
    pub deadline: Option<f64>,
    /// Which operator/element-type instantiation to run.
    pub op: OpKind,
}

impl ServeRequest {
    /// The request's batch shape.
    pub fn problem(&self) -> ProblemParams {
        ProblemParams::new(self.n, self.g)
    }

    /// Total elements scanned: `2^g · 2^n`.
    pub fn total_elems(&self) -> usize {
        self.problem().total_elems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_round_trips_through_problem_params() {
        let r = ServeRequest {
            id: 0,
            arrival: 0.0,
            n: 12,
            g: 3,
            gpus_wanted: 2,
            priority: 0,
            tenant: 0,
            deadline: None,
            op: OpKind::AddI32,
        };
        assert_eq!(r.problem().problem_size(), 4096);
        assert_eq!(r.problem().batch(), 8);
        assert_eq!(r.total_elems(), 8 * 4096);
    }
}
