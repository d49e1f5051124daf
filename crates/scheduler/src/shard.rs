//! Per-shard serving-loop state.
//!
//! [`ShardState`] is the mutable half of one serve loop — queue, pool,
//! fleet timeline, in-flight launches, completion log — factored out of
//! [`crate::serve::Server::run`] so the sharded [`crate::router::Router`]
//! drives N of them on one shared simulated clock with **exactly** the
//! same stepping code the single-loop server uses. That construction is
//! what makes the 1-shard router byte-equal to the unsharded server: both
//! paths execute the same enqueue/dispatch/sample/advance/retire methods
//! in the same order.
//!
//! A shard also owes the responses its launches could not answer from the
//! response memo: [`ShardState::misses`] collects them while the window
//! runs, and the window-end response pass (`Server::report`) computes
//! them. Nothing reaches the memo before that pass, so a window that
//! fails leaves its server exactly as it found it.
//!
//! The module also owns the cross-shard *steal* cost model: a stolen
//! request's payload crosses the inter-shard InfiniBand fabric before its
//! launch may start, modeled as an explicit transfer node admitted into
//! the thief's timeline on the launch's own streams (resource exclusivity
//! then delays the launch by the transfer time — see `docs/sharding.md`).

use std::ops::Range;

use gpu_sim::EventKind;
use interconnect::{ExecGraph, FabricSpec, FleetTimeline, NodeMeta, Resource};

use crate::kind::OpKind;
use crate::pool::{DevicePool, PoolLease};
use crate::request::ServeRequest;
use crate::serve::Completion;

/// Virtual node-id base of the inter-shard steal fabric: steal-transfer
/// IB links are `ib(BASE + victim shard, BASE + thief shard)`, far above
/// any real cluster node id, so they collide with nothing and keep one
/// trace track per shard pair.
pub(crate) const STEAL_NODE_BASE: usize = 1 << 20;

/// `(request id, n, g, op)`: with the server's fixed input seed, a
/// response checksum is a pure function of this key.
pub(crate) type ResponseKey = (usize, u32, u32, OpKind);

/// One in-flight (possibly coalesced) launch.
pub(crate) struct Launch {
    pub(crate) seq: usize,
    pub(crate) lease: PoolLease,
    pub(crate) finish: f64,
    pub(crate) completions: Vec<Completion>,
    /// The entries of [`ShardState::misses`] this launch added.
    pub(crate) misses: Range<usize>,
}

/// A launch member the response memo could not answer at dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Miss {
    pub(crate) key: ResponseKey,
    /// Sequence number of the member's launch.
    pub(crate) launch: usize,
    /// The member's index in its launch until the launch retires, then
    /// its completion's index in the shard's completion log.
    pub(crate) slot: usize,
}

/// One queued request: its index into the window's request slice, plus
/// the shard it was stolen from when the router's work stealing moved it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueEntry {
    pub(crate) idx: usize,
    pub(crate) stolen_from: Option<usize>,
}

/// The mutable state of one serve loop (the whole state, for the
/// unsharded server; one shard's worth, for the router).
pub(crate) struct ShardState {
    /// Shard id (0 for the unsharded server).
    pub(crate) shard: usize,
    pub(crate) pool: DevicePool,
    pub(crate) fleet: FleetTimeline,
    pub(crate) queue: Vec<QueueEntry>,
    /// Whether `queue` is still in policy order. Enqueues (arrivals, steal
    /// pushes) clear it; dispatch re-sorts only when it is false — member
    /// removal preserves the order of the rest, so a drained-but-unchanged
    /// queue never pays the sort again.
    pub(crate) queue_sorted: bool,
    pub(crate) running: Vec<Launch>,
    pub(crate) completions: Vec<Completion>,
    pub(crate) queue_samples: Vec<(f64, usize)>,
    pub(crate) launches: usize,
    /// Request ids this shard stole from another shard, in steal order.
    pub(crate) stolen_ids: Vec<usize>,
    /// Completions already counted by the router's SLO accounting.
    pub(crate) accounted: usize,
    /// Launch members the response memo did not hold at dispatch, in
    /// dispatch order; the window-end response pass answers them.
    pub(crate) misses: Vec<Miss>,
    /// Launch members the response memo answered at dispatch.
    pub(crate) memo_hits: u64,
}

impl ShardState {
    pub(crate) fn new(shard: usize, pool: DevicePool) -> Self {
        ShardState {
            shard,
            pool,
            fleet: FleetTimeline::new(),
            queue: Vec::new(),
            queue_sorted: true,
            running: Vec::new(),
            completions: Vec::new(),
            queue_samples: Vec::new(),
            launches: 0,
            stolen_ids: Vec::new(),
            accounted: 0,
            misses: Vec::new(),
            memo_hits: 0,
        }
    }

    /// Admit an arrival into the queue.
    pub(crate) fn enqueue(&mut self, idx: usize) {
        self.queue.push(QueueEntry { idx, stolen_from: None });
        self.queue_sorted = false;
    }

    /// Record the queue depth after a scheduling step.
    pub(crate) fn sample(&mut self, now: f64) {
        self.queue_samples.push((now, self.queue.len()));
    }

    /// Bits of the earliest in-flight finish time (ties broken by launch
    /// sequence), `None` when nothing is running.
    pub(crate) fn next_finish(&self) -> Option<u64> {
        self.running.iter().map(|l| (l.finish.to_bits(), l.seq)).min().map(|(f, _)| f)
    }

    /// Retire every launch finishing at or before `now`, in
    /// `(finish, launch-sequence)` order.
    pub(crate) fn retire(&mut self, now: f64) {
        loop {
            let done = self
                .running
                .iter()
                .enumerate()
                .filter(|(_, l)| l.finish <= now)
                .min_by_key(|(_, l)| (l.finish.to_bits(), l.seq))
                .map(|(i, _)| i);
            let Some(i) = done else { break };
            let launch = self.running.remove(i);
            self.pool.release(launch.lease);
            for miss in &mut self.misses[launch.misses] {
                miss.slot += self.completions.len();
            }
            self.completions.extend(launch.completions);
        }
    }
}

/// Move the most-urgent queued request of an over-budget tenant to the
/// queue head (EDF priority escalation): the earliest-deadline entry whose
/// tenant is in `over`. When that entry was not already at the head, the
/// head — and any coalesced launch it was about to form — is preempted
/// back into the queue, not yet admitted. `queue` must already be in
/// policy order; everything behind the escalated entry keeps it.
pub(crate) fn escalate_urgent(
    queue: &mut Vec<QueueEntry>,
    requests: &[ServeRequest],
    over: &std::collections::BTreeSet<u8>,
) {
    let urgent = queue
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            let r = &requests[e.idx];
            r.deadline.is_some() && over.contains(&r.tenant)
        })
        .min_by_key(|(_, e)| {
            let r = &requests[e.idx];
            (r.deadline.expect("filtered on deadline").to_bits(), r.id)
        })
        .map(|(i, _)| i);
    if let Some(i) = urgent {
        if i > 0 {
            let e = queue.remove(i);
            queue.insert(0, e);
        }
    }
}

/// Admit the steal-in transfer of a stolen request into the thief's
/// timeline, immediately before its launch: one `Transfer` node moving the
/// request's payload over the inter-shard InfiniBand fabric
/// ([`FabricSpec::tsubame_kfc`]'s inter-node link parameters), claiming
/// the launch's own stream resources plus the shard pair's steal link —
/// so the launch's kernels queue behind the transfer, and two steals over
/// the same shard pair serialise on the same link.
pub(crate) fn admit_steal_transfer(
    fleet: &mut FleetTimeline,
    lease: &PoolLease,
    head: &ServeRequest,
    victim: usize,
    thief: usize,
    now: f64,
) {
    let bytes = head.total_elems() * head.op.elem_bytes();
    let seconds = FabricSpec::tsubame_kfc().inter_node.transfer_time(bytes);
    let mut g = ExecGraph::new();
    let phase = g.phase("steal-in");
    let mut resources: Vec<Resource> = lease
        .gpu_ids()
        .into_iter()
        .map(|gpu| Resource::Stream { gpu, stream: lease.stream() })
        .collect();
    resources.push(Resource::ib(STEAL_NODE_BASE + victim, STEAL_NODE_BASE + thief));
    g.add_with_meta(
        phase,
        "steal-in",
        EventKind::Transfer,
        seconds,
        &[],
        &resources,
        NodeMeta::transfer(bytes as u64),
    );
    fleet.admit(&g, now, &format!("r{}<s{}:", head.id, victim));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::OpKind;

    fn req(id: usize, tenant: u8, deadline: Option<f64>) -> ServeRequest {
        ServeRequest {
            id,
            arrival: 0.0,
            n: 10,
            g: 0,
            gpus_wanted: 1,
            priority: 0,
            tenant,
            deadline,
            op: OpKind::AddI32,
        }
    }

    #[test]
    fn escalation_moves_earliest_over_budget_deadline_to_head() {
        let requests =
            vec![req(0, 0, None), req(1, 1, Some(2.0)), req(2, 1, Some(1.0)), req(3, 2, Some(0.5))];
        let mut queue: Vec<QueueEntry> =
            (0..4).map(|idx| QueueEntry { idx, stolen_from: None }).collect();
        let over = std::collections::BTreeSet::from([1u8]);
        escalate_urgent(&mut queue, &requests, &over);
        // Request 2: tenant 1's earliest deadline. Tenant 2's tighter
        // deadline does not escalate — it is within budget.
        assert_eq!(queue[0].idx, 2);
        assert_eq!(queue.iter().map(|e| e.idx).collect::<Vec<_>>(), vec![2, 0, 1, 3]);
    }

    #[test]
    fn escalation_is_a_no_op_without_over_budget_deadlines() {
        let requests = vec![req(0, 0, Some(1.0)), req(1, 1, None)];
        let mut queue: Vec<QueueEntry> =
            (0..2).map(|idx| QueueEntry { idx, stolen_from: None }).collect();
        let over = std::collections::BTreeSet::from([1u8]);
        escalate_urgent(&mut queue, &requests, &over);
        assert_eq!(queue.iter().map(|e| e.idx).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn steal_transfer_delays_the_streams_it_claims() {
        let mut fleet = FleetTimeline::new();
        let mut pool = DevicePool::new(2);
        let lease = pool.lease(2).unwrap();
        let head = req(7, 0, None);
        admit_steal_transfer(&mut fleet, &lease, &head, 1, 0, 0.0);
        let cost = FabricSpec::tsubame_kfc().inter_node.transfer_time(1024 * 4);
        for gpu in [0, 1] {
            let free = fleet.resource_available(Resource::Stream { gpu, stream: lease.stream() });
            assert_eq!(free.to_bits(), cost.to_bits(), "stream {gpu} busy until transfer ends");
        }
        assert!(
            fleet.resource_available(Resource::ib(STEAL_NODE_BASE, STEAL_NODE_BASE + 1)) > 0.0,
            "the shard pair's steal link is claimed"
        );
    }
}
