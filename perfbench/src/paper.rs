//! `paper-sweep`: the paper's batch-scan sweep (Fig. 9–13) at 2^22
//! elements per point, n = 13…22 — Scan-SP, Scan-MPS with W = 2 and W = 8,
//! Scan-MP-PC and multi-node Scan-MPS (M = 2) through `ScanRequest::run`,
//! plus the CUB and LightScan baselines through `ScanLibrary::batch_scan`.
//!
//! Host time here is mostly gpu-sim block simulation (the stage kernels and
//! the libraries' kernels), then worker set-up and output assembly; the
//! workload never touches scan-serve, the plan cache or fleet admission.

use std::time::Instant;

use baselines::{Cub, LightScan, ScanLibrary};
use gpu_sim::{CostCounters, DeviceSpec};
use interconnect::{Fabric, Topology};
use scan_core::multi_gpu::{assemble_output, build_workers, gather_aux, scatter_offsets};
use scan_core::plan::ExecutionPlan;
use scan_core::stage1::run_stage1;
use scan_core::stage2::run_stage2;
use scan_core::stage3::run_stage3;
use scan_core::verify::verify_batch;
use scan_core::{
    premises, NodeConfig, ProblemParams, Proposal, ScanOutput, ScanRequest, ScanResult,
};
use skeletons::{Add, SplkTuple};

use crate::spans::Tracer;
use crate::stats::{nearest_rank, SplitMix64};
use crate::{host_threads, repeated_setup, Args, Outcome, Timed};

/// log2 of the elements per sweep point (`G · N`).
const TOTAL_LOG2: u32 = 22;
/// Smallest problem size of the sweep, as in the paper.
const N_LO: u32 = 13;
/// Simulated latency limit a configuration is held to for `slo_attain`:
/// the serving workloads' largest deadline slack.
const LIMIT_S: f64 = 400e-6;

enum Entry {
    Request(Box<ScanRequest<Add>>),
    Library(Box<dyn ScanLibrary<i32>>),
}

/// One point of the sweep: a proposal or library at one problem size.
struct Config {
    label: String,
    problem: ProblemParams,
    tuple: SplkTuple,
    /// GPU groups the replica runs the three stages on, each with its
    /// share of the batch (empty for the libraries).
    groups: Vec<Vec<usize>>,
    fabric: Fabric,
    entry: Entry,
}

impl Config {
    fn run(&self, device: &DeviceSpec, input: &[i32]) -> ScanResult<ScanOutput<i32>> {
        match &self.entry {
            Entry::Request(req) => req.run(input),
            Entry::Library(lib) => lib.batch_scan(device, self.problem, input),
        }
    }
}

/// The premise tuple with the default `K` for `parts` GPUs per problem.
fn tuple_for(device: &DeviceSpec, problem: &ProblemParams, parts: usize) -> Option<SplkTuple> {
    let base = premises::derive_tuple(device, 4, 0);
    premises::default_k(device, problem, &base, parts).map(|k| base.with_k(k))
}

fn configs(device: &DeviceSpec) -> Vec<Config> {
    let mut out = Vec::new();
    for n in N_LO..=TOTAL_LOG2 {
        let problem = ProblemParams::fixed_total(TOTAL_LOG2, n);
        let request = |proposal, cfg: Option<NodeConfig>, tuple| {
            let req = ScanRequest::new(Add, problem).proposal(proposal).tuple(tuple);
            Entry::Request(Box::new(match cfg {
                Some(cfg) => req.devices(cfg),
                None => req,
            }))
        };
        if let Some(tuple) = tuple_for(device, &problem, 1) {
            out.push(Config {
                label: format!("Scan-SP n={n}"),
                problem,
                tuple,
                groups: vec![vec![0]],
                fabric: Fabric::new(Topology::single_gpu(), Default::default()),
                entry: request(Proposal::Sp, None, tuple),
            });
        }
        for (w, v, y) in [(2, 2, 1), (8, 4, 2)] {
            let cfg = NodeConfig::new(w, v, y, 1).expect("valid single-node config");
            let fabric = Fabric::tsubame_kfc(1);
            if let Some(tuple) = tuple_for(device, &problem, w) {
                out.push(Config {
                    label: format!("Scan-MPS W={w} n={n}"),
                    problem,
                    tuple,
                    groups: vec![cfg.selected_gpus(fabric.topology())],
                    fabric,
                    entry: request(Proposal::Mps, Some(cfg), tuple),
                });
            }
        }
        let cfg = NodeConfig::new(8, 4, 2, 1).expect("valid MP-PC config");
        if let Some(tuple) = tuple_for(device, &problem, cfg.v()) {
            let fabric = Fabric::tsubame_kfc(1);
            let groups = (cfg.m() * cfg.y()).min(problem.batch());
            let groups = (0..groups)
                .map(|g| {
                    let (node, network) = (g / cfg.y(), g % cfg.y());
                    (0..cfg.v()).map(|slot| fabric.topology().gpu_at(node, network, slot)).collect()
                })
                .collect();
            out.push(Config {
                label: format!("Scan-MP-PC n={n}"),
                problem,
                tuple,
                groups,
                fabric,
                entry: request(Proposal::Mppc, Some(cfg), tuple),
            });
        }
        let cfg = NodeConfig::new(4, 4, 1, 2).expect("valid multi-node config");
        if let Some(tuple) = tuple_for(device, &problem, cfg.total_gpus()) {
            let fabric = Fabric::tsubame_kfc(2);
            out.push(Config {
                label: format!("Scan-MPS M=2 n={n}"),
                problem,
                tuple,
                groups: vec![cfg.selected_gpus(fabric.topology())],
                fabric,
                entry: request(Proposal::MpsMultinode, Some(cfg), tuple),
            });
        }
        let libs: [(&str, Box<dyn ScanLibrary<i32>>); 2] =
            [("CUB", Box::new(Cub::new(Add))), ("LightScan", Box::new(LightScan::new(Add)))];
        for (name, lib) in libs {
            out.push(Config {
                label: format!("{name} n={n}"),
                problem,
                tuple: SplkTuple::kepler_premises(0),
                groups: Vec::new(),
                fabric: Fabric::new(Topology::single_gpu(), Default::default()),
                entry: Entry::Library(lib),
            });
        }
    }
    out
}

/// The shared input: `2^22` values on `[-100, 100]`. Every point of the
/// sweep keeps `G · N = 2^22`, so one buffer serves every batch layout.
fn generate_input(seed: u64) -> Vec<i32> {
    let mut rng = SplitMix64(seed ^ 0x7061_7065_7273_7770);
    (0..1usize << TOTAL_LOG2).map(|_| (rng.next_u64() % 201) as i32 - 100).collect()
}

struct Setup {
    device: DeviceSpec,
    input: Vec<i32>,
    configs: Vec<Config>,
}

/// Generate the input, build every configuration, and warm up on the
/// first sweep point (thread pools, allocator, page faults).
fn setup(seed: u64) -> Setup {
    let device = DeviceSpec::tesla_k80();
    let input = generate_input(seed);
    let configs = configs(&device);
    for c in configs.iter().filter(|c| c.problem.n() == N_LO) {
        let out = c.run(&device, &input).expect("warm-up configuration runs");
        std::hint::black_box(out);
    }
    Setup { device, input, configs }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(format!("the paper's sweep at 2^{TOTAL_LOG2} elements per point"));
    let Setup { device, input, configs } =
        repeated_setup(&mut out, host_threads(), || setup(args.seed));
    out.note(format!("{} configurations", configs.len()));

    // Timed phase: whole passes over the sweep until `seconds` elapse.
    // Only the configuration calls are timed; verification runs between.
    let mut ok = vec![true; configs.len()];
    let mut makespans: Vec<u64> = Vec::new();
    let mut timed = Timed::new(args.seconds, host_threads());
    while timed.more() {
        let first_pass = timed.rates.is_empty();
        let mut elems = 0;
        for (i, c) in configs.iter().enumerate() {
            let res = timed.time(|| c.run(&device, &input));
            out.attempted += 1;
            let verified = match &res {
                Ok(o) => verify_batch(Add, c.problem, &input, &o.data).map_err(|m| m.to_string()),
                Err(e) => Err(e.to_string()),
            };
            match verified {
                Ok(()) => elems += c.problem.total_elems(),
                Err(why) => {
                    ok[i] = false;
                    out.mismatch(format!("{}: {why}", c.label));
                }
            }
            if let Ok(o) = &res {
                let bits = o.report.makespan.to_bits();
                if first_pass {
                    makespans.push(bits);
                } else if makespans[i] != bits {
                    out.mismatch(format!("{}: simulated makespan changed between passes", c.label));
                }
            } else if first_pass {
                makespans.push(f64::NAN.to_bits());
            }
        }
        timed.push(elems);
    }

    let makespans: Vec<f64> = makespans.into_iter().map(f64::from_bits).collect();
    let mut lat_us: Vec<f64> = makespans.iter().map(|m| m * 1e6).collect();
    lat_us.sort_by(f64::total_cmp);
    let total_elems: usize = configs.iter().map(|c| c.problem.total_elems()).sum();
    let sim_total: f64 = makespans.iter().sum();
    let ok_configs = ok.iter().filter(|&&v| v).count();
    timed.record(&mut out, "passes");
    out.note(format!(
        "sim: {} samples (one simulated makespan per configuration; p99 is the nearest rank)",
        lat_us.len()
    ));
    out.metric("sim_melem_s", total_elems as f64 / sim_total / 1e6);
    out.metric("ok_frac", ok_configs as f64 / configs.len() as f64);
    out.metric("sim_p50_us", nearest_rank(&lat_us, 50.0));
    out.metric("sim_p99_us", nearest_rank(&lat_us, 99.0));
    out.metric(
        "slo_attain",
        makespans.iter().filter(|&&m| m <= LIMIT_S).count() as f64 / configs.len() as f64,
    );
    out.metric("sim_capacity_rps", configs.len() as f64 / sim_total);

    if args.trace {
        traced(args, &device, &input, &configs, &makespans, timed.median_secs(), &mut out);
    }
    out
}

/// The traced run: per configuration, the opaque call, then the replica of
/// its request path through the layers' public functions.
fn traced(
    args: &Args,
    device: &DeviceSpec,
    input: &[i32],
    configs: &[Config],
    makespans: &[f64],
    untraced_pass_s: f64,
    out: &mut Outcome,
) {
    let mut tr = Tracer::new();
    let mut counters = CostCounters::new();
    let mut last_trace = None;
    for (i, c) in configs.iter().enumerate() {
        let name = match c.entry {
            Entry::Request(_) => "opaque.scan-core.request",
            Entry::Library(_) => "opaque.baselines.batch_scan",
        };
        let (res, _) = tr.opaque(name, i, || c.run(device, input));
        let opaque = match res {
            Ok(o) => o,
            Err(e) => {
                out.mismatch(format!("{} (traced): {e}", c.label));
                continue;
            }
        };
        if opaque.report.makespan.to_bits() != makespans[i].to_bits() {
            out.mismatch(format!("{}: traced makespan differs from the untraced run", c.label));
        }
        let t = tr.begin("request", i);
        let replica = match &c.entry {
            Entry::Library(lib) => {
                let (res, end) =
                    tr.span("baselines.batch_scan", t, || lib.batch_scan(device, c.problem, input));
                tr.end(end);
                res.map(|o| o.data)
            }
            Entry::Request(_) => {
                let res = replica_request(&mut tr, t, device, c, input, &opaque, &mut counters);
                match res {
                    Ok((parts, end)) => {
                        tr.end(end);
                        Ok(parts.concat())
                    }
                    Err(e) => {
                        tr.end(Instant::now());
                        Err(e)
                    }
                }
            }
        };
        match replica {
            Ok(data) if data == opaque.data => {}
            Ok(_) => {
                out.mismatch(format!("{}: replica output differs from ScanRequest::run", c.label))
            }
            Err(e) => out.mismatch(format!("{} (replica): {e}", c.label)),
        }
        if let Some(trace) = opaque.trace() {
            last_trace = Some((c.label.clone(), trace));
        }
    }

    let sum = tr.summary();
    let stage_s: f64 =
        ["gpu-sim.stage1", "gpu-sim.stage2", "gpu-sim.stage3"].iter().map(|n| sum.self_s(n)).sum();
    let warp_instr = counters.gld_instructions
        + counters.gst_instructions
        + counters.shared_loads
        + counters.shared_stores
        + counters.shuffles
        + counters.alu_ops;
    out.metric("gpu-sim.stage1_s", sum.self_s("gpu-sim.stage1"));
    out.metric("gpu-sim.stage2_s", sum.self_s("gpu-sim.stage2"));
    out.metric("gpu-sim.stage3_s", sum.self_s("gpu-sim.stage3"));
    out.metric("gpu-sim.warp_instr_per_s", warp_instr as f64 / stage_s);
    out.metric("gpu-sim.warp_instr", warp_instr as f64);
    out.metric("gpu-sim.gmem_bytes", counters.global_bytes() as f64);
    out.metric("baselines.batch_scan_s", sum.self_s("baselines.batch_scan"));
    out.metric("scan-core.request_s", sum.self_s("opaque.scan-core.request"));
    out.metric("interconnect.schedule_s", sum.self_s("interconnect.schedule"));
    let overhead = sum.opaque / untraced_pass_s - 1.0;
    let sim_json = last_trace.map(|(label, t)| {
        out.note(format!("simulated trace in the combined file: {label}"));
        t.chrome_trace_json()
    });
    crate::finish_trace(args, &tr, &sum, sim_json, overhead, &["gpu-sim", "baselines"], out);
}

/// One ScanRequest configuration's request path, outside in: plan and
/// worker set-up, the per-GPU stage kernels, the aux exchange, the output
/// assembly, then the list schedule of the graph the program built.
fn replica_request(
    tr: &mut Tracer,
    mut t: Instant,
    device: &DeviceSpec,
    c: &Config,
    input: &[i32],
    opaque: &ScanOutput<i32>,
    counters: &mut CostCounters,
) -> ScanResult<(Vec<Vec<i32>>, Instant)> {
    let per_group = c.problem.batch() / c.groups.len();
    let sub = ProblemParams::new(c.problem.n(), per_group.trailing_zeros());
    let span_elems = sub.total_elems();
    let mut parts = Vec::with_capacity(c.groups.len());
    for (g, ids) in c.groups.iter().enumerate() {
        let slice = &input[g * span_elems..(g + 1) * span_elems];
        let (built, t1) = tr.span("scan-core.plan", t, || -> ScanResult<_> {
            let plan = ExecutionPlan::new(sub, c.tuple, ids.len())?;
            let workers = build_workers(device, &plan, ids, slice)?;
            Ok((plan, workers))
        });
        let (plan, mut workers) = built?;
        t = t1;
        for w in workers.iter_mut() {
            let (stats, t1) = tr.span("gpu-sim.stage1", t, || {
                run_stage1(&mut w.gpu, &plan, Add, &w.input, &mut w.aux)
            });
            counters.merge(&stats?.counters);
            t = t1;
        }
        let (root_aux, t1) = tr.span("scan-core.exchange", t, || -> ScanResult<_> {
            let mut root = workers[0].gpu.alloc::<i32>(plan.aux_global_len())?;
            gather_aux(&c.fabric, &workers, &mut root, &plan);
            Ok(root)
        });
        let mut root_aux = root_aux?;
        let (stats, t1) = tr.span("gpu-sim.stage2", t1, || {
            run_stage2(&mut workers[0].gpu, &plan, Add, &mut root_aux)
        });
        counters.merge(&stats?.counters);
        let (_, t1) = tr.span("scan-core.exchange", t1, || {
            scatter_offsets(&c.fabric, &mut workers, &root_aux, &plan)
        });
        t = t1;
        for w in workers.iter_mut() {
            let (stats, t1) = tr.span("gpu-sim.stage3", t, || {
                run_stage3(&mut w.gpu, &plan, Add, &w.input, &w.offsets, &mut w.output)
            });
            counters.merge(&stats?.counters);
            t = t1;
        }
        let (part, t1) = tr.span("scan-core.assemble", t, || assemble_output(&plan, &workers));
        parts.push(part);
        t = t1;
    }
    let graph = opaque.report.graph.as_ref().expect("ScanRequest runs keep their execution graph");
    let (schedule, t) = tr.span("interconnect.schedule", t, || graph.schedule());
    std::hint::black_box(schedule);
    Ok((parts, t))
}
