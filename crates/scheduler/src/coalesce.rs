//! Coalescing: the paper's batching insight applied at the serving layer.
//!
//! Figures 11–13 show that G small scans in one batched launch beat G
//! separate invocations, and §5's library comparison attributes the gap to
//! per-invocation overhead. The server exploits this across tenants: when
//! several queued requests are *compatible* — same problem size `N`, same
//! operator/element kind (one launch runs one monoid over one element
//! type), single-GPU (the Scan-SP / Case-1 shape, no cross-GPU layout to
//! reconcile) — their batches are concatenated into one launch.
//!
//! The rule is a longest-prefix scan of the policy-ordered queue, so
//! coalescing never reorders the policy's dispatch decision: the head
//! dispatches now regardless, and only requests the policy would serve
//! next anyway can ride along. The combined problem count must stay a
//! power of two (every planner invariant assumes `G = 2^g`), so the prefix
//! stops at the longest length whose batch sum is one.
//!
//! Outputs are bit-identical to serving each member alone: problems scan
//! independently in the batched pipeline, and each member's slice of the
//! combined output is exactly its isolated result (pinned by property
//! test).

use crate::request::ServeRequest;

/// A dispatch group: the queue head plus any riders merged into its launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescePlan {
    /// Queue positions (into the policy-ordered queue) of the members, in
    /// order. The head is always `members[0] == 0`.
    pub members: Vec<usize>,
    /// log2 of the combined batch.
    pub g_combined: u32,
}

/// Decide how many queued requests the head's launch absorbs.
///
/// `queue` is in policy order; the head is `queue[0]`. Returns a
/// single-member plan when the head is not coalescible (multi-GPU request)
/// or no compatible neighbour follows it.
pub fn plan(queue: &[&ServeRequest], enabled: bool) -> CoalescePlan {
    let (len, g_combined) = plan_len(queue.iter().copied(), enabled);
    CoalescePlan { members: (0..len).collect(), g_combined }
}

/// Allocation-free form of [`plan`]: the members are always the queue
/// prefix positions `0..len`, so the length and combined batch exponent
/// carry the whole decision. Takes the policy-ordered queue as an
/// iterator — the scan prefix-stops at the first incompatible request, so
/// the serving hot path never materializes the queue's request refs.
pub fn plan_len<'a>(
    mut queue: impl Iterator<Item = &'a ServeRequest>,
    enabled: bool,
) -> (usize, u32) {
    let head = queue.next().expect("coalescing plans a non-empty queue");
    if !enabled || head.gpus_wanted != 1 {
        return (1, head.g);
    }

    // Longest compatible prefix of the policy order: stop at the first
    // request that cannot join (skipping it would reorder the policy).
    let mut problems = 1usize << head.g;
    let mut best: Option<(usize, usize)> = None;
    for (pos, r) in queue.enumerate() {
        if r.gpus_wanted != 1 || r.n != head.n || r.op != head.op {
            break;
        }
        problems += 1usize << r.g;
        if problems.is_power_of_two() {
            best = Some((pos + 2, problems));
        }
    }
    match best {
        Some((len, problems)) => (len, problems.trailing_zeros()),
        None => (1, head.g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::OpKind;

    fn req(id: usize, n: u32, g: u32, gpus: usize) -> ServeRequest {
        ServeRequest {
            id,
            arrival: id as f64 * 1e-3,
            n,
            g,
            gpus_wanted: gpus,
            priority: 0,
            tenant: 0,
            deadline: None,
            op: OpKind::AddI32,
        }
    }

    fn plan_of(reqs: &[ServeRequest]) -> CoalescePlan {
        let refs: Vec<&ServeRequest> = reqs.iter().collect();
        plan(&refs, true)
    }

    #[test]
    fn merges_equal_shapes_to_a_power_of_two() {
        // 2 + 1 + 1 = 4 problems: all three merge.
        let reqs = [req(0, 10, 1, 1), req(1, 10, 0, 1), req(2, 10, 0, 1)];
        let p = plan_of(&reqs);
        assert_eq!(p.members, vec![0, 1, 2]);
        assert_eq!(p.g_combined, 2);
    }

    #[test]
    fn prefix_stops_at_incompatible_request() {
        // Request 1 has a different N: nothing merges past it even though
        // request 2 would fit.
        let reqs = [req(0, 10, 0, 1), req(1, 11, 0, 1), req(2, 10, 0, 1)];
        assert_eq!(plan_of(&reqs).members, vec![0]);
        // A multi-GPU rider blocks the same way.
        let reqs = [req(0, 10, 0, 1), req(1, 10, 0, 2), req(2, 10, 0, 1)];
        assert_eq!(plan_of(&reqs).members, vec![0]);
    }

    #[test]
    fn takes_longest_power_of_two_sum() {
        // 1 + 1 + 2 + 1 problems: prefixes sum 1,2,4,5 -> best is 3 members.
        let reqs = [req(0, 12, 0, 1), req(1, 12, 0, 1), req(2, 12, 1, 1), req(3, 12, 0, 1)];
        let p = plan_of(&reqs);
        assert_eq!(p.members, vec![0, 1, 2]);
        assert_eq!(p.g_combined, 2);
    }

    #[test]
    fn non_power_prefix_falls_back_to_solo() {
        // 2 + 1: sums 2, 3 — only the solo head is a power of two.
        let reqs = [req(0, 10, 1, 1), req(1, 10, 0, 1)];
        let p = plan_of(&reqs);
        assert_eq!(p.members, vec![0]);
        assert_eq!(p.g_combined, 1);
    }

    #[test]
    fn different_operators_never_share_a_launch() {
        // Same shape throughout, but request 1 runs a different monoid:
        // the prefix stops there even though request 2 matches the head.
        let mut reqs = [req(0, 10, 0, 1), req(1, 10, 0, 1), req(2, 10, 0, 1)];
        reqs[1].op = OpKind::GatedF64;
        assert_eq!(plan_of(&reqs).members, vec![0]);
        // A uniform non-default kind coalesces normally.
        let mut reqs = [req(0, 10, 1, 1), req(1, 10, 0, 1), req(2, 10, 0, 1)];
        for r in &mut reqs {
            r.op = OpKind::MaxF64;
        }
        assert_eq!(plan_of(&reqs).members, vec![0, 1, 2]);
    }

    #[test]
    fn disabled_and_multi_gpu_heads_stay_solo() {
        let reqs = [req(0, 10, 0, 1), req(1, 10, 0, 1)];
        let refs: Vec<&ServeRequest> = reqs.iter().collect();
        assert_eq!(plan(&refs, false).members, vec![0]);
        let multi = [req(0, 10, 0, 4), req(1, 10, 0, 1)];
        let refs: Vec<&ServeRequest> = multi.iter().collect();
        assert_eq!(plan(&refs, true).members, vec![0]);
    }
}
