//! Property/differential harness for the sharded serving router:
//!
//! * same seed + same shard count ⇒ bit-identical [`ShardedReport`];
//! * a 1-shard router is **byte-equal** to the unsharded [`Server::run`]
//!   (both drive the same shard-state stepping code);
//! * every response checksum equals the isolated reference run of that
//!   request alone, under all three placement policies;
//! * work stealing never violates `OpKind` coalescing compatibility —
//!   stolen requests always launch solo, and every coalesced launch is
//!   kind-uniform;
//! * SLO escalation reorders only *when* requests run, never *what* they
//!   compute;
//! * parallel shard stepping (the scoped worker pool) is **byte-equal** to
//!   serial stepping (`RouterConfig::threads` = 1) across seeds ×
//!   policies × placements × shard counts, including windows with steals,
//!   redirects and SLO escalations;
//! * a repeated window is served entirely from the shards' response memos
//!   and is byte-equal to the first, and malformed arrivals are a typed
//!   error that leaves the router as it was.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use multigpu_scan::prelude::*;
use multigpu_scan::scan::ScanError;
use multigpu_scan::serve::{requests_from_json, ResponseStats, ShardedReport};

fn mixed_workload(seed: u64, count: usize) -> Vec<ServeRequest> {
    let mut spec = WorkloadSpec::mixed_ops_for(seed, count);
    spec.n_range = (10, 11);
    spec.g_range = (0, 2);
    spec.tenants = 4;
    spec.generate()
}

/// Serve each request alone through a fresh unsharded server: the
/// isolated reference the sharded checksums must reproduce bit-exactly.
/// (A solo window runs the request through the same functional pipeline
/// the differential tests pin against the sequential CPU scan.)
fn isolated_checksums(requests: &[ServeRequest], input_seed: u64) -> BTreeMap<usize, u64> {
    requests
        .iter()
        .map(|r| {
            let server = Server::new(ServeConfig::new(Policy::Fifo, input_seed));
            let report = server.run(std::slice::from_ref(r)).unwrap();
            assert_eq!(report.completions.len(), 1);
            (r.id, report.completions[0].checksum)
        })
        .collect()
}

/// Render every bit of a sharded report — completions, per-shard steal
/// and redirect counters, rollup metrics JSON, and the merged Chrome
/// trace — so equality is byte-level, not field-by-field.
fn deep_snapshot(report: &ShardedReport) -> String {
    let mut out = String::new();
    for s in &report.shards {
        writeln!(
            out,
            "shard {} launches={} makespan={:016x} steals_in={} steals_out={} \
             redirects_in={} stolen_ids={:?}",
            s.shard,
            s.report.launches,
            s.report.makespan.to_bits(),
            s.steals_in,
            s.steals_out,
            s.redirects_in,
            s.stolen_ids,
        )
        .unwrap();
        for c in &s.report.completions {
            writeln!(
                out,
                "  request {} dispatched={:016x} started={:016x} finished={:016x} \
                 group={} gpus={:?} checksum={:016x}",
                c.request.id,
                c.dispatched.to_bits(),
                c.started.to_bits(),
                c.finished.to_bits(),
                c.coalesced,
                c.gpus,
                c.checksum,
            )
            .unwrap();
        }
        for &(t, depth) in &s.report.queue_samples {
            writeln!(out, "  queue {:016x} {}", t.to_bits(), depth).unwrap();
        }
    }
    for r in &report.rejections {
        writeln!(out, "reject {} at={:016x} shard={}", r.request.id, r.time.to_bits(), r.shard)
            .unwrap();
    }
    writeln!(out, "makespan={:016x}", report.makespan.to_bits()).unwrap();
    out.push_str(&report.metrics.to_json());
    out.push_str(&report.trace.chrome_trace_json());
    out
}

#[test]
fn same_seed_same_shards_is_bit_identical() {
    let requests = mixed_workload(7, 40);
    for policy in Policy::all() {
        let mut config = RouterConfig::new(3, policy, 7);
        config.queue_capacity = Some(16);
        config.slo = Some(SloConfig { miss_budget: 1 });
        let router = Router::new(config).unwrap();
        let a = deep_snapshot(&router.run(&requests).unwrap());
        let b = deep_snapshot(&router.run(&requests).unwrap());
        assert_eq!(a, b, "policy {policy:?}: same seed + shard count must be byte-identical");
    }
}

#[test]
fn one_shard_router_is_byte_equal_to_unsharded_server() {
    let requests = mixed_workload(7, 40);
    for policy in Policy::all() {
        let unsharded = Server::new(ServeConfig::new(policy, 7)).run(&requests).unwrap();
        let router = Router::new(RouterConfig::new(1, policy, 7)).unwrap();
        let sharded = router.run(&requests).unwrap();

        assert!(sharded.rejections.is_empty());
        assert_eq!(sharded.shards.len(), 1);
        let shard = &sharded.shards[0];
        assert_eq!(shard.steals_in, 0, "a 1-shard fleet has nobody to steal from");
        assert_eq!(shard.redirects_in, 0);
        let report = &shard.report;

        assert_eq!(report.launches, unsharded.launches, "{policy:?}");
        assert_eq!(report.makespan.to_bits(), unsharded.makespan.to_bits(), "{policy:?}");
        assert_eq!(report.completions.len(), unsharded.completions.len(), "{policy:?}");
        for (a, b) in report.completions.iter().zip(&unsharded.completions) {
            assert_eq!(a.request, b.request, "{policy:?}");
            assert_eq!(a.dispatched.to_bits(), b.dispatched.to_bits(), "{policy:?}");
            assert_eq!(a.started.to_bits(), b.started.to_bits(), "{policy:?}");
            assert_eq!(a.finished.to_bits(), b.finished.to_bits(), "{policy:?}");
            assert_eq!(a.coalesced, b.coalesced, "{policy:?}");
            assert_eq!(&a.gpus[..], &b.gpus[..], "{policy:?}");
            assert_eq!(a.checksum, b.checksum, "{policy:?}");
        }
        let same_samples = report.queue_samples.len() == unsharded.queue_samples.len()
            && report
                .queue_samples
                .iter()
                .zip(&unsharded.queue_samples)
                .all(|(&(ta, da), &(tb, db))| ta.to_bits() == tb.to_bits() && da == db);
        assert!(same_samples, "{policy:?}: queue-depth samples diverge");
        assert_eq!(report.metrics, unsharded.metrics, "{policy:?}");
        // The shard's own trace (before the `s0:` merge prefix) is the
        // unsharded trace, byte for byte.
        assert_eq!(
            report.trace.chrome_trace_json(),
            unsharded.trace.chrome_trace_json(),
            "{policy:?}: shard trace diverges from the unsharded fleet trace"
        );
    }
}

#[test]
fn every_placement_matches_the_isolated_reference() {
    let requests = mixed_workload(13, 32);
    let reference = isolated_checksums(&requests, 13);
    for placement in Placement::all() {
        for shards in [2usize, 3] {
            let mut config = RouterConfig::new(shards, Policy::Fifo, 13);
            config.placement = placement;
            let report = Router::new(config).unwrap().run(&requests).unwrap();
            let completions = report.completions();
            assert_eq!(completions.len(), requests.len(), "{placement} x{shards}");
            for c in completions {
                assert_eq!(
                    c.checksum, reference[&c.request.id],
                    "{placement} x{shards}: request {} diverges from its isolated run",
                    c.request.id
                );
            }
        }
    }
}

/// A steal-heavy scenario: locality placement pins 12 add-scans to shard
/// 0 and only 2 max-scans to shard 1, each shard owning a single GPU, so
/// shard 1 drains its own queue and then steals shard 0's backlog.
fn steal_workload() -> Vec<ServeRequest> {
    let mut requests = Vec::new();
    for id in 0..14usize {
        let op = if id < 12 { OpKind::AddI32 } else { OpKind::MaxF64 };
        // Alternate n so same-kind neighbours don't all coalesce away.
        let n = 10 + (id % 2) as u32;
        requests.push(ServeRequest {
            id,
            arrival: 0.0,
            n,
            g: 0,
            gpus_wanted: 1,
            priority: 0,
            tenant: 0,
            deadline: None,
            op,
        });
    }
    requests
}

#[test]
fn work_stealing_never_violates_coalescing_compatibility() {
    let requests = steal_workload();
    let reference = isolated_checksums(&requests, 99);
    let mut config = RouterConfig::new(2, Policy::Fifo, 99);
    config.gpus_per_shard = 1;
    config.placement = Placement::LocalityByOp;
    let report = Router::new(config).unwrap().run(&requests).unwrap();

    let steals: usize = report.shards.iter().map(|s| s.steals_in).sum();
    assert!(steals > 0, "the imbalanced window must provoke at least one steal");
    assert_eq!(report.metrics.steals, steals);
    assert_eq!(report.completions().len(), requests.len(), "every request served exactly once");

    for shard in &report.shards {
        // Group completions into launches: members of one coalesced
        // launch share the same `Arc<[usize]>` GPU set and the same
        // admission times. (The Arc alone no longer identifies a launch:
        // plan-cache identity hits share the cached plan's allocation
        // across launches.)
        type LaunchKey<'a> = (&'a Arc<[usize]>, u64, u64, u64);
        let mut launches: Vec<(LaunchKey, Vec<&multigpu_scan::serve::Completion>)> = Vec::new();
        for c in &shard.report.completions {
            let key: LaunchKey =
                (&c.gpus, c.dispatched.to_bits(), c.started.to_bits(), c.finished.to_bits());
            match launches.iter_mut().find(|((gpus, d, s, f), _)| {
                Arc::ptr_eq(gpus, key.0) && (*d, *s, *f) == (key.1, key.2, key.3)
            }) {
                Some((_, members)) => members.push(c),
                None => launches.push((key, vec![c])),
            }
        }
        for (_, members) in &launches {
            let kind = members[0].request.op;
            assert!(
                members.iter().all(|c| c.request.op == kind),
                "shard {}: a coalesced launch mixes operator kinds",
                shard.shard
            );
            assert!(
                members.iter().all(|c| c.coalesced == members.len()),
                "shard {}: coalesced count disagrees with launch membership",
                shard.shard
            );
        }
        for c in &shard.report.completions {
            assert_eq!(c.checksum, reference[&c.request.id], "request {}", c.request.id);
            if shard.stolen_ids.contains(&c.request.id) {
                assert_eq!(
                    c.coalesced, 1,
                    "stolen request {} must launch solo, never coalesced into local work",
                    c.request.id
                );
            }
        }
    }
}

/// SLO escalation: once tenant 1 blows its miss budget, its queued
/// deadline-carrying request jumps the whole FIFO backlog. The escalated
/// request finishes strictly earlier than without the SLO — and every
/// checksum is identical in both runs (scheduling changes *when*, never
/// *what*).
#[test]
fn slo_escalation_preempts_the_queue_but_not_the_answers() {
    let mut requests = Vec::new();
    // Tenant 1's first request: an impossible deadline, so the tenant is
    // over a zero-miss budget the moment it retires.
    requests.push(ServeRequest {
        id: 0,
        arrival: 0.0,
        n: 10,
        g: 0,
        gpus_wanted: 1,
        priority: 0,
        tenant: 1,
        deadline: Some(1e-9),
        op: OpKind::AddI32,
    });
    // A tenant-0 backlog that queues behind it on the single GPU.
    for id in 1..6usize {
        requests.push(ServeRequest {
            id,
            arrival: 1e-6 + id as f64 * 1e-8,
            n: 11,
            g: 0,
            gpus_wanted: 1,
            priority: 0,
            tenant: 0,
            deadline: None,
            op: OpKind::AddI32,
        });
    }
    // Tenant 1 again, with a generous deadline: FIFO would serve it last.
    requests.push(ServeRequest {
        id: 6,
        arrival: 2e-6,
        n: 10,
        g: 0,
        gpus_wanted: 1,
        priority: 0,
        tenant: 1,
        deadline: Some(1.0),
        op: OpKind::AddI32,
    });
    requests.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).unwrap());

    let run = |slo: Option<SloConfig>| {
        let mut config = RouterConfig::new(1, Policy::Fifo, 5);
        config.gpus_per_shard = 1;
        config.slo = slo;
        Router::new(config).unwrap().run(&requests).unwrap()
    };
    let with_slo = run(Some(SloConfig { miss_budget: 0 }));
    let without = run(None);

    let finish = |report: &ShardedReport, id: usize| {
        report.shards[0]
            .report
            .completions
            .iter()
            .find(|c| c.request.id == id)
            .unwrap_or_else(|| panic!("request {id} completed"))
            .finished
    };
    assert!(
        finish(&with_slo, 6) < finish(&without, 6),
        "escalation must finish tenant 1's request strictly earlier"
    );
    // With the SLO, request 6 overtakes the tenant-0 backlog; without it,
    // FIFO serves the backlog first.
    assert!(finish(&with_slo, 6) < finish(&with_slo, 5), "escalated past the backlog");
    assert!(finish(&without, 6) > finish(&without, 5), "FIFO order without the SLO");
    assert!(
        with_slo.metrics.deadline_misses >= 1,
        "the sacrificial first request must actually miss"
    );
    // Scheduling changed; the answers did not.
    for id in 0..requests.len() {
        let a = with_slo.shards[0].report.completions.iter().find(|c| c.request.id == id);
        let b = without.shards[0].report.completions.iter().find(|c| c.request.id == id);
        assert_eq!(a.unwrap().checksum, b.unwrap().checksum, "request {id}");
    }
}

/// A mixed-generation pool must never coalesce (or even launch) one batch
/// across device models: a batch is planned against a single `DeviceSpec`,
/// so a grant spanning generations would cost one model's timings on the
/// other's hardware. With `v100:4 + a100:4` the pool assigns GPUs 0–3 to
/// the V100s and 4–7 to the A100s, and every launch's GPU set must stay
/// on one side of that boundary — while the answers still match the
/// isolated (homogeneous K80) reference bit-for-bit, because scheduling
/// hardware changes *when*, never *what*.
#[test]
fn mixed_generation_pool_never_spans_models_in_one_launch() {
    let requests = mixed_workload(21, 40);
    let reference = isolated_checksums(&requests, 21);

    let mut config = ServeConfig::new(Policy::Fifo, 21);
    config.devices = vec![(DevicePreset::V100, 4), (DevicePreset::A100, 4)];
    config.fabric = FabricPreset::Dgx2;
    let report = Server::new(config).run(&requests).unwrap();
    assert_eq!(report.completions.len(), requests.len());

    // Group completions into launches (same idiom as the stealing test).
    type LaunchKey<'a> = (&'a Arc<[usize]>, u64, u64, u64);
    let mut launches: Vec<(LaunchKey, Vec<&multigpu_scan::serve::Completion>)> = Vec::new();
    for c in &report.completions {
        let key: LaunchKey =
            (&c.gpus, c.dispatched.to_bits(), c.started.to_bits(), c.finished.to_bits());
        match launches.iter_mut().find(|((gpus, d, s, f), _)| {
            Arc::ptr_eq(gpus, key.0) && (*d, *s, *f) == (key.1, key.2, key.3)
        }) {
            Some((_, members)) => members.push(c),
            None => launches.push((key, vec![c])),
        }
    }

    let mut v100_launches = 0usize;
    let mut a100_launches = 0usize;
    for ((gpus, ..), members) in &launches {
        let on_v100 = gpus.iter().all(|&g| g < 4);
        let on_a100 = gpus.iter().all(|&g| (4..8).contains(&g));
        assert!(on_v100 || on_a100, "launch over GPUs {gpus:?} spans both device generations");
        if on_v100 {
            v100_launches += 1;
        } else {
            a100_launches += 1;
        }
        let kind = members[0].request.op;
        assert!(members.iter().all(|c| c.request.op == kind), "kind-uniform launches");
    }
    assert!(a100_launches > 0, "the faster generation must serve some of the window");
    assert!(v100_launches > 0, "the backlog must spill onto the slower generation");

    for c in &report.completions {
        assert_eq!(c.checksum, reference[&c.request.id], "request {}", c.request.id);
    }

    // The rollup attributes busy time to both generations.
    let classes: Vec<&str> = report.metrics.class_busy.iter().map(|&(c, _)| c).collect();
    assert_eq!(classes, ["v100", "a100"], "per-generation busy fractions in the rollup");
    for &(class, busy) in &report.metrics.class_busy {
        assert!((0.0..=1.0).contains(&busy), "{class} busy fraction {busy} out of range");
    }
}

/// The parallel-stepping differential matrix: stepping shards on the
/// scoped worker pool (forced to 4 threads so the pool engages even on a
/// single-core host) must be **byte-equal** to serial stepping
/// (`threads: 1`) — completion order, checksums, queue-depth samples,
/// rollup metrics JSON and the merged Chrome trace, all rendered through
/// [`deep_snapshot`] — across seeds × policies × placements × shard
/// counts, under bounded queues and an SLO budget so redirects and
/// escalations are in play. `threads` is the only knob flipped, so any
/// byte of divergence is the worker pool's fault alone.
#[test]
fn parallel_stepping_is_byte_equal_to_serial() {
    for seed in [7u64, 19] {
        let requests = mixed_workload(seed, 40);
        for policy in [Policy::Fifo, Policy::Edf] {
            for placement in Placement::all() {
                for shards in [2usize, 4] {
                    let run = |threads: usize| {
                        let mut config = RouterConfig::new(shards, policy, seed);
                        config.placement = placement;
                        config.queue_capacity = Some(12);
                        config.slo = Some(SloConfig { miss_budget: 1 });
                        config.threads = threads;
                        deep_snapshot(&Router::new(config).unwrap().run(&requests).unwrap())
                    };
                    let ctx = format!("seed {seed}, {policy:?}, {placement}, {shards} shard(s)");
                    assert_eq!(run(1), run(4), "{ctx}: parallel diverges from serial");
                }
            }
        }
    }
}

/// The steal-heavy window under parallel stepping: the imbalanced
/// locality placement still provokes steals, the stolen requests still
/// launch solo with their transfer admitted, and every byte matches the
/// serial engine.
#[test]
fn parallel_stepping_is_byte_equal_under_steals() {
    let requests = steal_workload();
    let run = |threads: usize| {
        let mut config = RouterConfig::new(2, Policy::Fifo, 99);
        config.gpus_per_shard = 1;
        config.placement = Placement::LocalityByOp;
        config.threads = threads;
        Router::new(config).unwrap().run(&requests).unwrap()
    };
    let parallel = run(4);
    let steals: usize = parallel.shards.iter().map(|s| s.steals_in).sum();
    assert!(steals > 0, "the imbalanced window must provoke at least one steal");
    assert_eq!(deep_snapshot(&run(1)), deep_snapshot(&parallel));
}

/// The fleet-admission differential: every shard's live schedule —
/// incremental admission through the per-resource availability index and
/// plan-cache remap tables — must be **bit-equal**, node by node, to the
/// replay of that shard's admission log through the O(n²) reference list
/// scheduler: same starts, finishes and predecessors, same makespan bits,
/// across seeds × queue policies × shard counts.
#[test]
fn incremental_admission_matches_reference_engine() {
    for seed in [3u64, 11] {
        let requests = mixed_workload(seed, 40);
        for policy in [Policy::Fifo, Policy::Sjf, Policy::Edf] {
            for shards in [1usize, 2, 4] {
                let report = Router::new(RouterConfig::new(shards, policy, seed))
                    .unwrap()
                    .run(&requests)
                    .unwrap();
                let ctx = format!("seed {seed}, {policy:?}, {shards} shard(s)");
                assert_eq!(
                    report.completions().len(),
                    requests.len(),
                    "{ctx}: every request served"
                );
                let mut nodes = 0;
                for shard in &report.shards {
                    let live = shard.report.trace.schedule();
                    let replay = shard.report.trace.reference_schedule();
                    let ctx = format!("{ctx}, shard {}", shard.shard);
                    assert_eq!(live.start.len(), replay.start.len(), "{ctx}: node count");
                    for i in 0..live.start.len() {
                        assert_eq!(
                            live.start[i].to_bits(),
                            replay.start[i].to_bits(),
                            "{ctx}: node {i} start"
                        );
                        assert_eq!(
                            live.finish[i].to_bits(),
                            replay.finish[i].to_bits(),
                            "{ctx}: node {i} finish"
                        );
                        assert_eq!(live.pred[i], replay.pred[i], "{ctx}: node {i} predecessor");
                    }
                    assert_eq!(
                        live.makespan.to_bits(),
                        replay.makespan.to_bits(),
                        "{ctx}: makespan"
                    );
                    nodes += live.start.len();
                }
                assert!(nodes > 0, "{ctx}: the window admitted no nodes");
            }
        }
    }
}

#[test]
fn repeated_sharded_window_is_served_from_the_memo_byte_equal() {
    let requests = mixed_workload(11, 48);
    let mut config = RouterConfig::new(3, Policy::Edf, 11);
    config.queue_capacity = Some(8);
    let router = Router::new(config).unwrap();
    let first = router.run(&requests).unwrap();
    let served = first.completions().len() as u64;
    assert_eq!(
        router.response_stats().served,
        0,
        "a window of distinct ids computes every response"
    );
    let entries = router.response_stats().entries;
    assert_eq!(entries as u64, served, "each shard memoizes the responses it computed");
    let second = router.run(&requests).unwrap();
    assert_eq!(deep_snapshot(&first), deep_snapshot(&second));
    assert_eq!(
        router.response_stats(),
        ResponseStats { served, entries },
        "the repeat is served entirely from the shards' memos"
    );
}

#[test]
fn malformed_arrivals_are_invalid_config_and_leave_the_router_untouched() {
    let requests = mixed_workload(5, 24);
    let router = Router::new(RouterConfig::new(2, Policy::Fifo, 5)).unwrap();
    router.run(&requests).unwrap();
    let before = router.response_stats();
    let mut unsorted = requests.clone();
    unsorted.swap(1, 20);
    let mut negative = requests.clone();
    negative[0].arrival = -1.0;
    let mut nan = requests.clone();
    nan[3].arrival = f64::NAN;
    let mut negative_zero = requests.clone();
    negative_zero[0].arrival = -0.0;
    let mut too_wide = requests.clone();
    too_wide[7].n = 45;
    let mut negative_deadline = requests.clone();
    negative_deadline[4].deadline = Some(-1.0);
    let mut infinite_deadline = requests.clone();
    infinite_deadline[9].deadline = Some(f64::INFINITY);
    // Both parse, but neither batch fits a grant of an 8-GPU shard.
    let oversized = [
        r#"{"requests": [{"arrival": 0.0, "n": 39, "g": 39}]}"#,
        r#"{"requests": [{"arrival": 0.0, "n": 30, "g": 12}]}"#,
    ]
    .map(|trace| requests_from_json(trace).expect("the trace parses"));
    let deadlines = [negative_deadline, infinite_deadline];
    for bad in [unsorted, negative, nan, negative_zero, too_wide]
        .into_iter()
        .chain(deadlines)
        .chain(oversized)
    {
        assert!(matches!(router.run(&bad), Err(ScanError::InvalidConfig(_))));
        assert_eq!(router.response_stats(), before, "a failed call changes no memo state");
    }
    // The next valid window of fresh ids is reference-exact.
    let fresh: Vec<ServeRequest> =
        requests.iter().map(|r| ServeRequest { id: r.id + 1000, ..r.clone() }).collect();
    let expected = isolated_checksums(&fresh, 5);
    let report = router.run(&fresh).unwrap();
    assert_eq!(report.completions().len(), fresh.len());
    for c in report.completions() {
        assert_eq!(c.checksum, expected[&c.request.id], "request {}", c.request.id);
    }
}
