//! Plan-cache integration tests: a lease launch planned through a shared
//! [`PlanCache`] must behave exactly like a cold [`scan_on_lease`] — same
//! data bits, same schedule bits, same errors — for every lease shape and
//! served element type, with exact hit/miss accounting. See
//! `docs/perf.md` for the keying rules.

use multigpu_scan::fabric::FleetTimeline;
use multigpu_scan::kernels::Scannable;
use multigpu_scan::prelude::*;
use multigpu_scan::scan::{scan_on_lease, GpuLease, LeaseRun, ScanKind};
use multigpu_scan::serve::{Completion, ServeReport, ServedKind};
use multigpu_scan::PlanCache;
use proptest::prelude::*;

fn pseudo(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 16807 + 11) % 211) as i32 - 105).collect()
}

/// A lease over `ids` on stream 0.
fn lease(ids: &[usize]) -> GpuLease {
    GpuLease::new(ids.to_vec(), 0).unwrap()
}

/// Scan `input` with `op` on `lease` of a K80 TSUBAME-KFC node, default
/// tuple and policy: cold through [`scan_on_lease`] when `cache` is
/// `None`, else planned through it (a replay on a hit, a cold run that
/// memoizes on a miss).
fn run_on<T: Scannable, O: ScanOp<T>>(
    cache: Option<&PlanCache>,
    op: O,
    lease: &GpuLease,
    problem: ProblemParams,
    kind: ScanKind,
    input: &[T],
) -> LeaseRun<T> {
    let (device, fabric) = (DeviceSpec::tesla_k80(), Fabric::tsubame_kfc(1));
    let (tuple, policy) = (SplkTuple::kepler_premises(0), PipelinePolicy::default());
    let run = match cache {
        None => scan_on_lease(op, tuple, &device, &fabric, lease, problem, input, kind, &policy),
        Some(cache) => cache
            .plan::<T, O>(&device, &fabric, lease, problem, tuple, kind, &policy)
            .run(op, input),
    };
    run.unwrap()
}

/// A scanned value's bit pattern, so float results compare bit for bit.
trait Bits: Copy {
    fn bits(self) -> [u64; 2];
}

impl Bits for i32 {
    fn bits(self) -> [u64; 2] {
        [self as u32 as u64, 0]
    }
}

impl Bits for f32 {
    fn bits(self) -> [u64; 2] {
        [self.to_bits() as u64, 0]
    }
}

impl Bits for f64 {
    fn bits(self) -> [u64; 2] {
        [self.to_bits(), 0]
    }
}

impl<T: Bits> Bits for SegPair<T> {
    fn bits(self) -> [u64; 2] {
        [self.v.bits()[0], self.reset as u64]
    }
}

impl<T: Bits> Bits for AffinePair<T> {
    fn bits(self) -> [u64; 2] {
        [self.a.bits()[0], self.b.bits()[0]]
    }
}

/// A planned run must be indistinguishable from a cold one: data,
/// makespan, GPUs used and every node's resources and seconds, bit for
/// bit.
fn assert_identical<T: Bits>(cold: &LeaseRun<T>, planned: &LeaseRun<T>) {
    assert_eq!(planned.gpus_used, cold.gpus_used);
    assert_same_timing(cold, planned);
    let (p, c) = (planned.run.graph.nodes(), cold.run.graph.nodes());
    for (i, (pn, cn)) in p.iter().zip(c).enumerate() {
        assert_eq!(pn.resources, cn.resources, "node {i} resources");
    }
}

/// Data, makespan and every node's seconds, bit for bit: what a run on an
/// equivalent lease shares with the cold run.
fn assert_same_timing<T: Bits>(cold: &LeaseRun<T>, planned: &LeaseRun<T>) {
    let bits = |v: &[T]| v.iter().map(|x| x.bits()).collect::<Vec<_>>();
    assert!(bits(&planned.data) == bits(&cold.data), "data must match bit for bit");
    assert_eq!(planned.run.makespan.to_bits(), cold.run.makespan.to_bits(), "makespan");
    let (p, c) = (planned.run.graph.nodes(), cold.run.graph.nodes());
    assert_eq!(p.len(), c.len(), "planned graphs keep the cold run's shape");
    for (i, (pn, cn)) in p.iter().zip(c).enumerate() {
        assert_eq!(pn.seconds.to_bits(), cn.seconds.to_bits(), "node {i} seconds");
    }
}

/// Every lease shape: the first planned run misses (and matches a cold
/// run), the second hits (and still matches). Widths 1, 2 and 4 on one
/// PCIe network, and the pair `[0, 4]` across the node's two networks.
#[test]
fn cached_runs_are_bit_identical_across_lease_shapes() {
    let problem = ProblemParams::new(13, 2);
    let input = pseudo(problem.total_elems());
    let cache = PlanCache::new();
    for (i, ids) in [&[0][..], &[0, 1], &[0, 1, 2, 3], &[0, 4]].into_iter().enumerate() {
        let lease = lease(ids);
        let cold = run_on(None, Add, &lease, problem, ScanKind::Inclusive, &input);
        assert_eq!(cold.gpus_used, ids, "the lease runs at full width");
        let miss = run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &input);
        let hit = run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &input);
        assert_identical(&cold, &miss);
        assert_identical(&cold, &hit);
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (i as u64 + 1, i as u64 + 1, i + 1),
            "one miss then one hit per lease ({ids:?})"
        );
    }
}

/// Same shape, different data: the hit must track the new input, not replay
/// the old output.
#[test]
fn hits_recompute_for_fresh_inputs() {
    let cache = PlanCache::new();
    let problem = ProblemParams::new(12, 3);
    let a = pseudo(problem.total_elems());
    let b: Vec<i32> = a.iter().map(|v| v.wrapping_mul(7) - 3).collect();
    let lease = lease(&[0]);
    run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &a);
    let hit = run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &b);
    assert_identical(&run_on(None, Add, &lease, problem, ScanKind::Inclusive, &b), &hit);
    assert_eq!(cache.stats().hits, 1);
}

/// Exclusive semantics key separately from inclusive.
#[test]
fn scan_kind_is_part_of_the_key() {
    let cache = PlanCache::new();
    let problem = ProblemParams::new(12, 2);
    let input = pseudo(problem.total_elems());
    let lease = lease(&[0, 1]);
    let incl = run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &input);
    let excl = run_on(Some(&cache), Add, &lease, problem, ScanKind::Exclusive, &input);
    assert_ne!(incl.data, excl.data);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
    // And each replays its own entry.
    let cold = run_on(None, Add, &lease, problem, ScanKind::Exclusive, &input);
    let hit = run_on(Some(&cache), Add, &lease, problem, ScanKind::Exclusive, &input);
    assert_identical(&cold, &hit);
    assert_eq!(cache.stats().hits, 1);
}

/// Floating-point runs stay correct through the cache: the self-validation
/// on the cold miss decides whether the shape is replayable, and either way
/// a later run is bit-identical to a cold one.
#[test]
fn float_runs_stay_bit_identical_to_cold_runs() {
    let cache = PlanCache::new();
    let problem = ProblemParams::new(12, 2);
    let input: Vec<f32> =
        (0..problem.total_elems()).map(|i| (i % 17) as f32 * 0.25 - 2.0).collect();
    let lease = lease(&[0]);
    let cold = run_on(None, Add, &lease, problem, ScanKind::Inclusive, &input);
    let first = run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &input);
    let second = run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &input);
    assert_identical(&cold, &first);
    assert_identical(&cold, &second);
}

/// Operators never share cache entries: the same shape scanned under
/// `Add` and `Max` must key separately, and each later run must replay
/// its own operator's plan bit-identically. Before the key carried an
/// operator fingerprint this was the plan-cache poisoning bug — a warm
/// `Add` entry would serve a `Max` request.
#[test]
fn operators_never_share_cache_entries() {
    let cache = PlanCache::new();
    let problem = ProblemParams::new(12, 2);
    let input = pseudo(problem.total_elems());
    let lease = lease(&[0]);
    let sum = run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &input);
    let max = run_on(Some(&cache), Max, &lease, problem, ScanKind::Inclusive, &input);
    assert_ne!(sum.data, max.data, "the two operators disagree on this input");
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 2, 2),
        "same shape, different operator: two distinct entries"
    );
    // Each operator hits its own entry and stays bit-identical to cold.
    let cold_max = run_on(None, Max, &lease, problem, ScanKind::Inclusive, &input);
    let hit_max = run_on(Some(&cache), Max, &lease, problem, ScanKind::Inclusive, &input);
    assert_identical(&cold_max, &hit_max);
    let cold_sum = run_on(None, Add, &lease, problem, ScanKind::Inclusive, &input);
    let hit_sum = run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &input);
    assert_identical(&cold_sum, &hit_sum);
    assert_eq!(cache.stats().hits, 2);
}

/// Element types key separately even when the same width: an `i32` plan
/// must never be replayed for `f32` data (both 4 bytes — a byte-size key
/// would alias them).
#[test]
fn element_types_with_equal_widths_key_separately() {
    let cache = PlanCache::new();
    let problem = ProblemParams::new(12, 2);
    let ints = pseudo(problem.total_elems());
    let floats: Vec<f32> = ints.iter().map(|&v| v as f32 * 0.5).collect();
    let lease = lease(&[0]);
    run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &ints);
    run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &floats);
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 2, 2),
        "i32 and f32 are both 4 bytes wide but must not share an entry"
    );
}

/// At the serving layer: two requests with the same shape on the same
/// lease but different operator kinds get distinct plans, launches and
/// checksums — the window's shared cache never crosses the operator
/// boundary.
#[test]
fn operator_kinds_get_distinct_plans_and_checksums_on_one_lease() {
    let mk = |id, op| ServeRequest {
        id,
        arrival: 0.0,
        n: 11,
        g: 1,
        gpus_wanted: 1,
        priority: 0,
        tenant: 0,
        deadline: None,
        op,
    };
    // Two identical shapes, different operators: two launches (the
    // coalescer must not merge across the operator boundary) and two
    // distinct cache entries, zero hits.
    let requests = vec![mk(0, OpKind::AddI32), mk(1, OpKind::MaxF64)];
    let report = Server::new(ServeConfig::new(Policy::Fifo, 4)).run(&requests).unwrap();
    assert_eq!(report.completions.len(), 2);
    assert_eq!(
        report.metrics.launches, 2,
        "different operator kinds must not coalesce into one launch"
    );
    let sums: Vec<_> = report.completions.iter().map(|c| c.checksum).collect();
    assert_ne!(sums[0], sums[1], "identical shapes, different operators, different checksums");
    let stats = report.cache_stats;
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (0, 2, 2),
        "same shape and pool, different operator: two cache entries"
    );
    // Repeat each kind (coalescing off so every request launches alone):
    // each kind hits its own warm entry, never the other's.
    let mut cfg = ServeConfig::new(Policy::Fifo, 4);
    cfg.coalesce = false;
    let warm = vec![
        mk(0, OpKind::AddI32),
        mk(1, OpKind::MaxF64),
        mk(2, OpKind::AddI32),
        mk(3, OpKind::MaxF64),
    ];
    let report = Server::new(cfg).run(&warm).unwrap();
    assert_eq!(report.metrics.launches, 4);
    let stats = report.cache_stats;
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (2, 2, 2),
        "the repeat of each kind hits its own entry"
    );
}

/// Each completion's id, checksum and finish bits, in completion order.
fn served_bits(completions: &[&Completion]) -> Vec<(usize, u64, u64)> {
    completions.iter().map(|c| (c.request.id, c.checksum, c.finished.to_bits())).collect()
}

/// A warm engine re-serving a mixed-operator window under fresh ids finds
/// every launch's plan, the gated recurrence's schedule-only plans
/// included, so it records no new miss; and it serves the window exactly
/// as an engine without a plan cache does. The router places by operator
/// kind, so fresh ids leave each shard's launches unchanged.
#[test]
fn warm_mixed_windows_replay_every_plan_like_uncached_engines() {
    let window = WorkloadSpec::mixed_ops_for(7, 160).generate();
    assert!(window.iter().any(|r| r.op == OpKind::GatedF64));
    let fresh: Vec<ServeRequest> =
        window.iter().map(|r| ServeRequest { id: r.id + 10_000, ..r.clone() }).collect();

    let server = Server::new(ServeConfig::new(Policy::Edf, 3));
    server.run(&window).unwrap();
    let warm = server.cache_stats();
    let hot = server.run(&fresh).unwrap();
    assert_eq!(hot.cache_stats.misses, warm.misses, "the warm server misses no plan");
    assert!(hot.cache_stats.schedule_hits > warm.schedule_hits, "gated launches replay");
    let mut uncached = ServeConfig::new(Policy::Edf, 3);
    uncached.plan_cache = false;
    let cold = Server::new(uncached).run(&fresh).unwrap();
    let all = |r: &ServeReport| served_bits(&r.completions.iter().collect::<Vec<_>>());
    assert_eq!(all(&hot), all(&cold));
    assert_eq!(hot.makespan.to_bits(), cold.makespan.to_bits());

    let mut config = RouterConfig::new(4, Policy::Edf, 3);
    config.placement = Placement::LocalityByOp;
    let router = Router::new(config.clone()).unwrap();
    let misses = |r: &ShardedReport| r.shards.iter().map(|s| s.report.cache_stats.misses).sum();
    let warm: u64 = misses(&router.run(&window).unwrap());
    let hot = router.run(&fresh).unwrap();
    assert_eq!(misses(&hot), warm, "the warm router misses no plan");
    config.plan_cache = false;
    let cold = Router::new(config).unwrap().run(&fresh).unwrap();
    assert_eq!(served_bits(&hot.completions()), served_bits(&cold.completions()));
    assert_eq!(hot.makespan.to_bits(), cold.makespan.to_bits());
}

/// Tracing works identically on hits: the replayed graph supports
/// critical-path attribution with the cold run's makespan.
#[test]
fn trace_capture_works_on_cache_hits() {
    let cache = PlanCache::new();
    let problem = ProblemParams::new(12, 2);
    let input = pseudo(problem.total_elems());
    let lease = lease(&[0, 1]);
    let cold = run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &input);
    let hit = run_on(Some(&cache), Add, &lease, problem, ScanKind::Inclusive, &input);
    assert_eq!(cache.stats().hits, 1);
    let cold_trace = TraceHandle::from_graph(&cold.run.graph);
    let hit_trace = TraceHandle::from_graph(&hit.run.graph);
    assert_eq!(
        hit_trace.critical_path().total_seconds().to_bits(),
        cold_trace.critical_path().total_seconds().to_bits()
    );
    assert_eq!(hit_trace.critical_path().total_seconds().to_bits(), cold.run.makespan.to_bits());
}

/// Arena-retarget exactness: a plan memoized on one lease serves a hit on
/// a *different* but topologically equivalent lease by retargeting the
/// shared arena graph through the resource remap — and the retargeted
/// run must be bit-identical to cold-building the plan on that second
/// lease directly, down to every node's resources. Any drift here means
/// the remap table, not the arena, decided the schedule.
#[test]
fn arena_retarget_is_bit_identical_across_equivalent_leases() {
    let cache = PlanCache::new();
    let problem = ProblemParams::new(12, 2);
    let input = pseudo(problem.total_elems());

    // Warm the arena on GPUs [0, 1]; [2, 3] shares the PCIe network and
    // hence the topological shape, so the second run must be a hit.
    let warm = run_on(Some(&cache), Add, &lease(&[0, 1]), problem, ScanKind::Inclusive, &input);
    let retargeted =
        run_on(Some(&cache), Add, &lease(&[2, 3]), problem, ScanKind::Inclusive, &input);
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries),
        (1, 1, 1),
        "equivalent leases must share one arena entry"
    );

    // The oracle: the same launch cold-built on [2, 3], no cache. Node
    // storage is shared with the [0, 1] plan; resource identity is not.
    let cold = run_on(None, Add, &lease(&[2, 3]), problem, ScanKind::Inclusive, &input);
    assert_identical(&cold, &retargeted);
    assert_eq!(
        retargeted.run.makespan.to_bits(),
        warm.run.makespan.to_bits(),
        "equal shapes schedule identically"
    );
}

/// GPU `g`'s twin on the other PCIe network of a TSUBAME-KFC node. The
/// swap keeps every pairwise link class, so a lease and its twin share a
/// plan.
fn twin(g: usize) -> usize {
    g ^ 4
}

/// Each node's start and finish bits in `fleet`'s schedule.
fn schedule_bits(fleet: &FleetTimeline) -> Vec<[u64; 2]> {
    let s = fleet.schedule();
    s.start.iter().zip(&s.finish).map(|(a, b)| [a.to_bits(), b.to_bits()]).collect()
}

/// Two planned runs of one served kind through `cache` against one cold
/// run on `lease`. The first runs on the lease's twin, on another stream,
/// and builds the entry; the second replays that entry retargeted onto
/// `lease` when it is bit-exact, and runs cold otherwise. Both match the
/// cold run bit for bit when it succeeds, and return its error when it
/// fails. When the cold run succeeds, the warm entry also serves a hit on
/// `lease` whatever its verdict, and admitting that hit into a fresh fleet
/// schedules every node exactly as admitting the cold run's graph does.
fn planned_runs_match_cold<T: ServedKind + Bits>(
    cache: &PlanCache,
    lease: &GpuLease,
    problem: ProblemParams,
    seed: u64,
) {
    let mut input = Vec::new();
    T::input_into(seed, 0, problem.total_elems(), &mut input);
    let (device, fabric) = (DeviceSpec::tesla_k80(), Fabric::tsubame_kfc(1));
    let (tuple, policy) = (SplkTuple::kepler_premises(0), PipelinePolicy::default());
    let kind = ScanKind::Inclusive;
    let twin_ids = lease.granted().iter().map(|&g| twin(g)).collect();
    let twin_lease = GpuLease::new(twin_ids, 3 - lease.stream()).unwrap();
    let planned = |on: &GpuLease| {
        cache
            .plan::<T, T::Op>(&device, &fabric, on, problem, tuple, kind, &policy)
            .run(T::OP, &input)
    };
    let (warm, replay) = (planned(&twin_lease), planned(lease));
    match scan_on_lease(T::OP, tuple, &device, &fabric, lease, problem, &input, kind, &policy) {
        Ok(cold) => {
            assert_identical(&cold, &replay.unwrap());
            let warm = warm.unwrap();
            assert_same_timing(&cold, &warm);
            let twin_gpus: Vec<usize> = cold.gpus_used.iter().map(|&g| twin(g)).collect();
            assert_eq!(warm.gpus_used, twin_gpus);

            let hit =
                cache.plan::<T, T::Op>(&device, &fabric, lease, problem, tuple, kind, &policy);
            let Ok(hit) = hit.into_hit() else { panic!("{}: a warm plan serves a hit", T::NAME) };
            assert_eq!(hit.gpus_used[..], cold.gpus_used[..]);
            let mut from_hit = FleetTimeline::new();
            from_hit.admit_shared(hit.graph, hit.remap, 0.0, String::new());
            let mut from_cold = FleetTimeline::new();
            from_cold.admit(&cold.run.graph, 0.0, "");
            assert_eq!(schedule_bits(&from_hit), schedule_bits(&from_cold), "{}", T::NAME);
        }
        Err(cold) => {
            assert_eq!(warm.unwrap_err(), cold);
            assert_eq!(replay.unwrap_err(), cold);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random grants of one 8-GPU node, in any order and on any stream,
    /// for every served element type: each planned run, hit or miss,
    /// equals a cold `scan_on_lease`, each hit admits the cold schedule,
    /// and every lookup is exactly one hit, schedule hit or miss. Only
    /// the twin's runs miss; the three exact kinds replay both lookups on
    /// the lease.
    #[test]
    fn planned_runs_match_cold_runs_on_random_leases(
        order in prop::collection::vec(any::<u32>(), 8),
        width in 1usize..=8,
        stream in 0usize..4,
        n in 10u32..=13,
        g in 0u32..=3,
        seed in any::<u64>(),
    ) {
        let mut ids: Vec<usize> = (0..8).collect();
        ids.sort_by_key(|&i| order[i]);
        ids.truncate(width);
        let lease = GpuLease::new(ids, stream).unwrap();
        let problem = ProblemParams::new(n, g);
        let cache = PlanCache::new();
        planned_runs_match_cold::<i32>(&cache, &lease, problem, seed);
        planned_runs_match_cold::<f64>(&cache, &lease, problem, seed);
        planned_runs_match_cold::<SegPair<i32>>(&cache, &lease, problem, seed);
        planned_runs_match_cold::<AffinePair<f64>>(&cache, &lease, problem, seed);
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.schedule_hits + stats.misses, 12);
        prop_assert_eq!(stats.misses, 4, "only the twin's runs miss");
        prop_assert!(stats.hits >= 6, "the exact kinds replay retargeted");
    }
}
