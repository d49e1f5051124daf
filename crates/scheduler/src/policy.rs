//! Pluggable dispatch-order policies.
//!
//! A policy is nothing but a total order over queued requests; the server
//! re-sorts its queue by the policy key at every dispatch point and always
//! serves the head (no backfilling — a blocked head blocks the queue,
//! which keeps the EDF feasibility argument honest).
//!
//! All keys end with `(priority, arrival bits, id)`: `priority` breaks
//! ties inside a policy's primary key, arrival breaks priority ties, and
//! the dense id makes the order total. Arrival times and deadlines are
//! finite `f64`s with a clear sign bit (the serving boundary rejects any
//! other), for which the IEEE-754 bit pattern orders exactly like the
//! value — so the key is plain integers and the sort is trivially
//! deterministic.

use crate::request::ServeRequest;

/// Whether `t` may be an arrival time or deadline: finite with a clear
/// sign bit. Only there does the bit pattern the policy keys sort by order
/// like the value; a negative time, `-0.0` included, or an infinite one
/// would sort after every finite time.
pub(crate) fn is_key_time(t: f64) -> bool {
    t.is_finite() && t.is_sign_positive()
}

/// Which order the queue drains in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First-in, first-out: by arrival time.
    Fifo,
    /// Shortest job first: by total elements to scan.
    Sjf,
    /// Earliest deadline first; deadline-less requests sort last (among
    /// themselves, by arrival).
    Edf,
}

impl Policy {
    /// Parse a CLI name (`fifo` / `sjf` / `edf`, case-insensitive).
    pub fn parse(name: &str) -> Option<Policy> {
        match name.to_ascii_lowercase().as_str() {
            "fifo" => Some(Policy::Fifo),
            "sjf" => Some(Policy::Sjf),
            "edf" => Some(Policy::Edf),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::Sjf => "sjf",
            Policy::Edf => "edf",
        }
    }

    /// All policies, in the order reports list them.
    pub fn all() -> [Policy; 3] {
        [Policy::Fifo, Policy::Sjf, Policy::Edf]
    }

    /// The sort key: requests dispatch in ascending key order.
    pub fn key(&self, r: &ServeRequest) -> (u64, u8, u64, usize) {
        debug_assert!(is_key_time(r.arrival) && r.deadline.is_none_or(is_key_time));
        let arrival = r.arrival.to_bits();
        let primary = match self {
            Policy::Fifo => arrival,
            Policy::Sjf => r.total_elems() as u64,
            Policy::Edf => r.deadline.map_or(u64::MAX, f64::to_bits),
        };
        (primary, r.priority, arrival, r.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, arrival: f64, g: u32, deadline: Option<f64>) -> ServeRequest {
        ServeRequest {
            id,
            arrival,
            n: 10,
            g,
            gpus_wanted: 1,
            priority: 0,
            tenant: 0,
            deadline,
            op: crate::request::OpKind::AddI32,
        }
    }

    fn order(policy: Policy, mut reqs: Vec<ServeRequest>) -> Vec<usize> {
        reqs.sort_by_key(|r| policy.key(r));
        reqs.iter().map(|r| r.id).collect()
    }

    #[test]
    fn fifo_is_arrival_order() {
        let reqs = vec![req(0, 0.3, 0, None), req(1, 0.1, 5, None), req(2, 0.2, 1, None)];
        assert_eq!(order(Policy::Fifo, reqs), vec![1, 2, 0]);
    }

    #[test]
    fn sjf_is_size_order() {
        let reqs = vec![req(0, 0.0, 3, None), req(1, 0.1, 0, None), req(2, 0.2, 1, None)];
        assert_eq!(order(Policy::Sjf, reqs), vec![1, 2, 0]);
    }

    #[test]
    fn edf_sorts_deadlines_first_then_fifo() {
        let reqs = vec![
            req(0, 0.0, 0, None),
            req(1, 0.3, 0, Some(0.5)),
            req(2, 0.2, 0, Some(0.4)),
            req(3, 0.1, 0, None),
        ];
        assert_eq!(order(Policy::Edf, reqs), vec![2, 1, 0, 3]);
    }

    #[test]
    fn priority_breaks_primary_ties_only() {
        let mut a = req(0, 0.1, 0, None);
        a.priority = 3;
        let b = req(1, 0.1, 0, None);
        // Same arrival: lower priority value wins under FIFO.
        assert_eq!(order(Policy::Fifo, vec![a.clone(), b.clone()]), vec![1, 0]);
        // Different arrival: priority cannot jump the primary key.
        a.arrival = 0.05;
        assert_eq!(order(Policy::Fifo, vec![a, b]), vec![0, 1]);
    }

    #[test]
    fn names_round_trip() {
        for p in Policy::all() {
            assert_eq!(Policy::parse(p.name()), Some(p));
        }
        assert_eq!(Policy::parse("EDF"), Some(Policy::Edf));
        assert_eq!(Policy::parse("lifo"), None);
    }
}
