//! Regenerate the paper's tables and figures on the simulator.
//!
//! ```text
//! figures [--total-log2 N] [--n-lo N] [--no-verify] [--trace-dir DIR]
//!         [--seed N] [--requests N] [--policy fifo|sjf|edf|all]
//!         [--pool-gpus N] [--no-coalesce] [--shards N] [--threads N]
//!         [--out DIR] [--workload FILE] [--op-mix] [--fabric-sweep]
//!         [--devices model:count,...] [--fabric NAME] [CMD...]
//!
//! CMD: table3 fig1 fig9 fig10 fig11 fig12 fig13 fig14 mw-sweep k-sweep
//!      ablations trace serve bench-scan self all (default: all)
//! ```
//!
//! Every argument is checked before any command runs: an unknown command
//! or flag, or a bad or missing value, prints the usage line and exits
//! with status 2.
//!
//! `self` benchmarks the *simulator itself*: wall-clock throughput of the
//! serving engine with its plan cache against the same engine with the
//! cache off, asserts both produce bit-identical results and that the
//! uncached window's fleet schedule equals the replay of its admission log
//! through the O(n²) reference scheduler, counts the exact host work
//! (allocations and bytes) of one run per proposal and library and of
//! fixed `Server` and router windows, and writes `BENCH_wall.json` to
//! `--out`. See `docs/perf.md`.
//!
//! `trace` exports Chrome-trace JSON (`*.trace.json`, loadable in
//! `chrome://tracing` or Perfetto) for the Fig. 9 Scan-MPS configurations
//! and an eviction-recovery run, into `--trace-dir` (default
//! `target/traces`), together with per-resource utilization and
//! critical-path attribution.
//!
//! `serve` runs the multi-tenant scheduler (`scan-serve`) over a seeded
//! workload — or a JSON trace via `--workload` — under every policy,
//! prints p50/p99 latency, throughput and the coalescing ratio, writes
//! `BENCH_serve.json` into `--out` (default `.`) and one fleet-wide
//! Chrome trace per selected policy into `--trace-dir`. `--op-mix`
//! switches the generated workload to the mixed-operator mix (i32 sum,
//! f64 max, segmented sum, gated recurrence) — point `--out` somewhere
//! else then, as the committed `BENCH_serve.json` pins the default mix.
//! `--shards N` (N > 1) additionally serves the workload through the
//! sharded front-end router (N shards of `--pool-gpus` GPUs each, hash
//! placement, work stealing on) and appends a `"sharded"` section to the
//! JSON — the unsharded section stays byte-identical, so point `--out`
//! elsewhere to keep the committed golden. The router steps every tick on
//! the calling thread; `--threads 1` also keeps the shards' window-end
//! reports (their response passes) there, and any other count fans those
//! out across the cores. Every count produces byte-identical output, which
//! CI pins by diffing `--threads 1` against the default. See
//! `docs/sharding.md`.
//!
//! `bench-scan` runs a pinned set of single-scan configurations
//! (independent of the sweep flags, so the output is byte-stable) and
//! writes their makespans to `BENCH_scan.json` in `--out`.
//!
//! `--total-log2 28` reproduces the paper's full 2^28-element sweeps
//! (slow); the default 22 preserves every shape at a fraction of the
//! runtime.

use bench::{average_speedups, render_table, Harness, Series};
use devices::{DevicePreset, FabricPreset};
use gpu_sim::{occupancy, AccessWidth, DeviceSpec, Gpu, LaunchConfig};
use scan_serve::{requests_from_json, Policy, ServeRequest};
use skeletons::{lf, shared_scan, warp_scan_exclusive, warp_scan_inclusive, Add, Max};

/// A counting wrapper around the system allocator — **bench binary
/// only**, the library crates never pay for it. `self` uses the
/// per-thread counters to report `allocs_per_request` on the steady
/// (memo-hit) serve path and to hold it to O(1), and to pin the exact
/// host work of one run per proposal and library (the `"work"` section):
/// allocator pressure is the regression the wall-clock gate can miss on
/// a fast machine, and a count repeats exactly where a wall time cannot.
struct CountingAlloc;

thread_local! {
    static ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Charge one allocation of `bytes` to this thread.
fn count(bytes: usize) {
    // try_with: the counters themselves may be mid-teardown during thread
    // exit, and the allocator must keep working then.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: defers to `System` for every operation; the counters are
// thread-local bookkeeping on the side.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count(layout.size());
        std::alloc::System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        count(layout.size());
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations charged to this thread so far.
fn allocs_now() -> u64 {
    ALLOCS.try_with(std::cell::Cell::get).unwrap_or(0)
}

/// Bytes those allocations asked for (a `realloc` counts its new size).
fn bytes_now() -> u64 {
    BYTES.try_with(std::cell::Cell::get).unwrap_or(0)
}

/// Everything the commands read from the command line.
#[derive(Default)]
struct Opts {
    harness: Harness,
    trace_dir: String,
    serve: ServeOpts,
}

type Command = fn(&Opts);

/// The paper's tables and figures, in the order `all` runs them.
const PAPER: [(&str, Command); 11] = [
    ("table3", |_| table3()),
    ("fig1", |_| fig1()),
    ("fig9", |o| fig9(&o.harness)),
    ("fig10", |o| fig10(&o.harness)),
    ("fig11", |o| fig11(&o.harness)),
    ("fig12", |o| fig12(&o.harness)),
    ("fig13", |o| fig13(&o.harness)),
    ("fig14", |o| fig14(&o.harness)),
    ("mw-sweep", |o| mw_sweep(&o.harness)),
    ("k-sweep", |o| k_sweep(&o.harness)),
    ("ablations", |_| ablations()),
];

/// The commands `all` leaves out.
const TOOLS: [(&str, Command); 4] = [
    ("trace", |o| trace_export(&o.trace_dir)),
    ("serve", |o| serve(&o.serve, &o.trace_dir)),
    ("bench-scan", |o| bench_scan(&o.serve.out, o.serve.fabric_sweep)),
    ("self", |o| bench_self(&o.serve)),
];

fn usage() -> String {
    let commands: Vec<&str> = PAPER.iter().chain(&TOOLS).map(|&(name, _)| name).collect();
    format!(
        "figures [--total-log2 N] [--n-lo N] [--no-verify] [--trace-dir DIR] \
         [--seed N] [--requests N] [--policy fifo|sjf|edf|all] [--pool-gpus N] \
         [--no-coalesce] [--shards N] [--threads N] [--out DIR] [--workload FILE] [--op-mix] \
         [--fabric-sweep] [--devices model:count,...] [--fabric pcie|nvlink|nvswitch|dgx1|dgx2] \
         [{} all]",
        commands.join(" ")
    )
}

fn main() {
    let (opts, commands) = match parse_args(std::env::args().skip(1)) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return println!("{}", usage()),
        Err(err) => {
            eprintln!("figures: {err}\n{}", usage());
            std::process::exit(2);
        }
    };
    println!(
        "# Reproduction harness — total = 2^{} elements per point, n = {}..={}, verify = {}\n",
        opts.harness.total_log2, opts.harness.n_lo, opts.harness.total_log2, opts.harness.verify
    );
    for command in commands {
        command(&opts);
    }
}

/// Parse the whole command line before anything runs: the options and the
/// commands to run in order (`all` by default), `None` for `--help`, or
/// what is wrong with an argument.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<Option<(Opts, Vec<Command>)>, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
        value.parse().map_err(|_| format!("{flag} takes an integer, not {value:?}"))
    }
    let mut opts = Opts { trace_dir: "target/traces".into(), ..Opts::default() };
    let mut commands: Vec<Command> = Vec::new();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} takes a value"));
        let serve = &mut opts.serve;
        match arg.as_str() {
            "--total-log2" => opts.harness.total_log2 = number(&arg, value()?)?,
            "--n-lo" => opts.harness.n_lo = number(&arg, value()?)?,
            "--no-verify" => opts.harness.verify = false,
            "--trace-dir" => opts.trace_dir = value()?,
            "--seed" => serve.seed = number(&arg, value()?)?,
            "--requests" => serve.requests = number(&arg, value()?)?,
            "--policy" => {
                serve.policy = value()?;
                if serve.policy != "all" && Policy::parse(&serve.policy).is_none() {
                    return Err(format!("--policy takes fifo|sjf|edf|all, not {:?}", serve.policy));
                }
            }
            "--pool-gpus" => serve.pool_gpus = number(&arg, value()?)?,
            "--no-coalesce" => serve.coalesce = false,
            "--shards" => serve.shards = number(&arg, value()?)?,
            "--threads" => serve.threads = number(&arg, value()?)?,
            "--out" => serve.out = value()?,
            "--workload" => {
                let path = value()?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("--workload cannot read {path:?}: {e}"))?;
                let requests = requests_from_json(&text)
                    .map_err(|e| format!("--workload {path:?} is not a request trace: {e}"))?;
                serve.workload = Some(requests);
            }
            "--op-mix" => serve.op_mix = true,
            "--fabric-sweep" => serve.fabric_sweep = true,
            "--devices" => serve.devices = parse_devices(&value()?)?,
            "--fabric" => {
                let name = value()?;
                serve.fabric = FabricPreset::parse(&name).ok_or_else(|| {
                    format!("--fabric takes pcie|nvlink|nvswitch|dgx1|dgx2, not {name:?}")
                })?;
            }
            "--help" | "-h" => return Ok(None),
            "all" => commands.extend(PAPER.map(|(_, command)| command)),
            name => match PAPER.iter().chain(&TOOLS).find(|&&(known, _)| known == name) {
                Some(&(_, command)) => commands.push(command),
                None if name.starts_with('-') => return Err(format!("unknown flag {name:?}")),
                None => return Err(format!("unknown command {name:?}")),
            },
        }
    }
    if commands.is_empty() {
        commands.extend(PAPER.map(|(_, command)| command));
    }
    Ok(Some((opts, commands)))
}

fn table3() {
    println!("## Table 3 — Performance parameters per SM (Kepler CC 3.7)");
    println!(
        "{:>16} {:>16} {:>18} {:>18} {:>14}",
        "warps/block", "regs/thread", "smem/block (B)", "warp occupancy", "blocks/SM"
    );
    for row in occupancy::table3(&DeviceSpec::tesla_k80()) {
        println!(
            "{:>16} {:>16} {:>18} {:>17.0}% {:>14}",
            row.warps_per_block,
            row.regs_per_thread,
            row.shared_bytes_per_block,
            row.warp_occupancy_pct,
            row.blocks_per_sm
        );
    }
    println!();
}

fn fig1() {
    println!("## Figure 1 — LF scan primitive for addition with N=8");
    print!("{}", lf::render(8));
    let mut data = vec![3, 1, 7, 0, 4, 1, 6, 3];
    println!("  input:  {data:?}");
    lf::scan_inplace(Add, &mut data);
    println!("  output: {data:?}\n");
}

fn print_speedups(series: &[Series]) {
    let ours = &series[0];
    let speedups = average_speedups(ours, &series[1..]);
    println!("Average speedup of `{}`:", ours.name);
    for (name, s) in speedups {
        println!("  {s:>7.2}x vs {name}");
    }
    println!();
}

fn fig9(h: &Harness) {
    let series = h.fig9();
    print!(
        "{}",
        render_table(
            "Figure 9 — Scan-MPS, G = 2^total/N (note the W=8 host-staging collapse at small n)",
            "n",
            "Melem/s",
            &series
        )
    );
    println!();
}

fn fig10(h: &Harness) {
    let series = h.fig10();
    print!(
        "{}",
        render_table(
            "Figure 10 — Scan-MP-PC, G = 2^total/N (all exchanges P2P)",
            "n",
            "Melem/s",
            &series
        )
    );
    println!();
}

fn fig11(h: &Harness) {
    let series = h.fig11();
    print!("{}", render_table("Figure 11 — G = 1 comparison", "n", "Melem/s", &series));
    print_speedups(&series);
}

fn fig12(h: &Harness) {
    let series = h.fig12();
    print!(
        "{}",
        render_table("Figure 12 — batch comparison, G = 2^total/N", "n", "Melem/s", &series)
    );
    print_speedups(&series);
}

fn fig13(h: &Harness) {
    let series = h.fig13();
    print!(
        "{}",
        render_table(
            "Figure 13 — multi-node (M=2, W=4) vs single-GPU libraries, G = 2^total/N",
            "n",
            "Melem/s",
            &series
        )
    );
    print_speedups(&series);
}

fn fig14(h: &Harness) {
    println!("## Figure 14 — breakdown of times, M=2, W=4, G = 2^total/N");
    for (n, breakdown) in h.fig14() {
        println!("n = {n}:");
        print!("{breakdown}");
    }
    println!();
}

fn mw_sweep(h: &Harness) {
    let series = h.mw_sweep();
    print!("{}", render_table("§5.2 — M×W = 8 combinations", "n", "Melem/s", &series));
    // The paper's 1.48x -> 1.03x narrowing.
    if let (Some(m2), Some(m8)) =
        (series.iter().find(|s| s.name == "M=2,W=4"), series.iter().find(|s| s.name == "M=8,W=1"))
    {
        let lo = h.n_lo;
        let hi = h.total_log2;
        if let (Some(a), Some(b)) = (m2.at(lo), m8.at(lo)) {
            println!("  at n={lo}: M=2,W=4 is {:.2}x faster than M=8,W=1", a / b);
        }
        if let (Some(a), Some(b)) = (m2.at(hi), m8.at(hi)) {
            println!("  at n={hi}: M=2,W=4 is {:.2}x faster than M=8,W=1", a / b);
        }
    }
    println!();
}

fn k_sweep(h: &Harness) {
    let n = (h.total_log2 - 2).max(h.n_lo);
    println!("## Premise 3 — K sweep at n = {n}, G = 2^{}", h.total_log2 - n);
    for (k, secs) in h.k_sweep(n) {
        println!("  K = {:>4}: {:>10.3} ms", 1 << k, secs * 1e3);
    }
    println!();
}

/// Export Chrome-trace JSON for the Fig. 9 Scan-MPS configurations and an
/// eviction-recovery run, plus the derived observability reports.
///
/// Files land in `dir` as `fig9_mps_w{W}.trace.json` and
/// `recovery_mps_w4_evict_gpu2.trace.json`; load them in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
fn trace_export(dir: &str) {
    use interconnect::FaultPlan;
    use scan_core::{
        NodeConfig, PipelinePolicy, ProblemParams, Proposal, ScanRequest, TraceOptions,
    };
    use skeletons::SplkTuple;

    println!("## Trace export — Chrome-trace JSON into {dir}/");
    std::fs::create_dir_all(dir).expect("create trace dir");
    let problem = ProblemParams::new(13, 2);
    let input: Vec<i32> =
        (0..problem.total_elems()).map(|i| ((i as i64 * 16807 + 11) % 211) as i32 - 105).collect();
    let tuple = SplkTuple::kepler_premises(0);

    for (w, v, y) in [(1usize, 1usize, 1usize), (2, 2, 1), (4, 4, 1), (8, 4, 2)] {
        let out = ScanRequest::new(Add, problem)
            .proposal(Proposal::Mps)
            .devices(NodeConfig::new(w, v, y, 1).unwrap())
            .tuple(tuple)
            .trace(TraceOptions::full())
            .run(&input)
            .expect("Fig. 9 config must run");
        let handle = out.trace.expect("tracing was requested");
        let path = format!("{dir}/fig9_mps_w{w}.trace.json");
        handle.write_chrome_trace(&path).expect("write trace");
        println!("wrote {path} ({} nodes)", out.report.graph.as_ref().unwrap().nodes().len());
        if w == 4 {
            println!("\n{}", handle.utilization());
            println!("{}", handle.critical_path());
        }
    }

    let out = ScanRequest::new(Add, problem)
        .proposal(Proposal::Mps)
        .devices(NodeConfig::new(4, 4, 1, 1).unwrap())
        .tuple(tuple)
        .pipeline(PipelinePolicy::batched_barrier(4))
        .faults(FaultPlan::new(0xC0FFEE).evict_gpu(2, 1))
        .trace(TraceOptions::full())
        .run(&input)
        .expect("recovery run must complete");
    let handle = out.trace.expect("tracing was requested");
    let path = format!("{dir}/recovery_mps_w4_evict_gpu2.trace.json");
    handle.write_chrome_trace(&path).expect("write trace");
    println!("wrote {path} (eviction recovery; replans = {})", {
        out.faults.as_ref().map(|f| f.replans()).unwrap_or(0)
    });
    println!("\n{}", handle.critical_path());
}

/// CLI options of the `serve` and `bench-scan` commands.
struct ServeOpts {
    seed: u64,
    requests: usize,
    policy: String,
    pool_gpus: usize,
    coalesce: bool,
    shards: usize,
    threads: usize,
    out: String,
    /// The `--workload` trace, read and checked at parse.
    workload: Option<Vec<ServeRequest>>,
    op_mix: bool,
    fabric_sweep: bool,
    devices: Vec<(DevicePreset, usize)>,
    fabric: FabricPreset,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            seed: 7,
            requests: 200,
            policy: "edf".into(),
            pool_gpus: 8,
            coalesce: true,
            shards: 1,
            threads: 0,
            out: String::from("."),
            workload: None,
            op_mix: false,
            fabric_sweep: false,
            devices: Vec::new(),
            fabric: FabricPreset::Pcie,
        }
    }
}

/// Parse `--devices` specs like `v100:4,a100:4` into `(model, count)`
/// runs in GPU-id order.
fn parse_devices(spec: &str) -> Result<Vec<(DevicePreset, usize)>, String> {
    spec.split(',')
        .map(|run| {
            let (name, count) = run.split_once(':').ok_or_else(|| {
                format!("--devices takes model:count[,model:count...], not {spec:?}")
            })?;
            let preset = DevicePreset::parse(name)
                .ok_or_else(|| format!("unknown device model {name:?}"))?;
            let count = count
                .parse()
                .map_err(|_| format!("--devices count must be an integer: {run:?}"))?;
            Ok((preset, count))
        })
        .collect()
}

/// Serve a multi-tenant workload (`scan-serve`) and write `BENCH_serve.json`.
///
/// Every policy runs over the same workload so the JSON is independent of
/// `--policy` (the golden file compares byte-for-byte across invocations);
/// the flag only selects which summaries print and which fleet traces are
/// exported.
fn serve(opts: &ServeOpts, trace_dir: &str) {
    use bench::{bench_serve_json, serve_windows, sharded_windows};
    use scan_serve::WorkloadSpec;

    let requests = match &opts.workload {
        Some(requests) => requests.clone(),
        None if opts.op_mix => WorkloadSpec::mixed_ops_for(opts.seed, opts.requests).generate(),
        None => WorkloadSpec::default_for(opts.seed, opts.requests).generate(),
    };
    // With `--devices` the pool size is the mix's total, not `--pool-gpus`.
    let pool_gpus = if opts.devices.is_empty() {
        opts.pool_gpus
    } else {
        opts.devices.iter().map(|&(_, count)| count).sum()
    };
    println!(
        "## scan-serve — {} requests, seed {}, pool of {} GPUs on {}, coalescing {}{}{}{}",
        requests.len(),
        opts.seed,
        pool_gpus,
        opts.fabric,
        if opts.coalesce { "on" } else { "off" },
        if opts.op_mix { ", mixed operators" } else { "" },
        if opts.devices.is_empty() {
            String::new()
        } else {
            let mix: Vec<String> = opts.devices.iter().map(|(d, c)| format!("{d}x{c}")).collect();
            format!(", devices {}", mix.join("+"))
        },
        if opts.shards > 1 {
            format!(", {} shards x {} GPUs", opts.shards, opts.pool_gpus)
        } else {
            String::new()
        }
    );
    if opts.op_mix {
        let mut counts = std::collections::BTreeMap::new();
        for r in &requests {
            *counts.entry(r.op.as_str()).or_insert(0usize) += 1;
        }
        let mix: Vec<String> = counts.iter().map(|(k, c)| format!("{k}={c}")).collect();
        println!("operator mix: {}", mix.join(" "));
    }

    let selected: Vec<Policy> = if opts.policy == "all" {
        Policy::all().to_vec()
    } else {
        vec![Policy::parse(&opts.policy).expect("--policy was checked at parse")]
    };
    std::fs::create_dir_all(&opts.out).expect("create --out dir");
    std::fs::create_dir_all(trace_dir).expect("create trace dir");

    let windows = serve_windows(
        &requests,
        opts.seed,
        opts.pool_gpus,
        opts.coalesce,
        &opts.devices,
        opts.fabric,
    );
    for (policy, report) in &windows {
        if selected.contains(policy) {
            println!("{}", report.metrics.summary());
            let path = format!("{trace_dir}/serve_{}_seed{}.trace.json", policy.name(), opts.seed);
            report.trace.write_chrome_trace(&path).expect("write fleet trace");
            println!(
                "wrote {path} ({} launches, {} nodes)",
                report.launches,
                report.trace.graph().nodes().len()
            );
        }
    }

    // `--shards N` (N > 1): serve the same workload through the sharded
    // router as well, and append a "sharded" section to the JSON. The
    // unsharded section — and so the committed default golden — is
    // unaffected.
    let sharded = (opts.shards > 1).then(|| {
        sharded_windows(
            &requests,
            opts.seed,
            opts.shards,
            opts.pool_gpus,
            opts.coalesce,
            opts.threads,
        )
    });
    if let Some(sharded) = &sharded {
        for (policy, report) in sharded {
            if selected.contains(policy) {
                println!("{}", report.metrics.summary());
                let path = format!(
                    "{trace_dir}/serve_sharded{}_{}_seed{}.trace.json",
                    opts.shards,
                    policy.name(),
                    opts.seed
                );
                report.trace.write_chrome_trace(&path).expect("write merged fleet trace");
                println!(
                    "wrote {path} ({} shards, {} nodes)",
                    report.shards.len(),
                    report.trace.graph().nodes().len()
                );
            }
        }
    }

    let path = format!("{}/BENCH_serve.json", opts.out);
    let json = bench_serve_json(
        opts.seed,
        requests.len(),
        pool_gpus,
        opts.coalesce,
        &windows,
        sharded.as_ref().map(|s| (opts.shards, opts.pool_gpus, s.as_slice())),
    );
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("wrote {path}\n");
}

/// Makespans of a pinned configuration set, written to `BENCH_scan.json`.
///
/// The harness here is fixed (2^20 elements, verify on, default seed) and
/// deliberately ignores `--total-log2`/`--n-lo`, so two runs of
/// `bench-scan` always produce byte-identical JSON — the CI artifact and
/// regression baseline.
fn bench_scan(out: &str, fabric_sweep: bool) {
    let rows = bench::bench_scan_rows();
    println!("## bench-scan — pinned configs at 2^20 elements");
    for r in &rows {
        println!(
            "  {:>14}: {:>10.3} ms  {:>9.2} Melem/s",
            r.name,
            r.makespan_s * 1e3,
            r.melems_per_s
        );
    }

    // `--fabric-sweep`: re-run the Fig. 9/10 sweeps on every fabric preset
    // (pinned at 2^18 per point) and append a "fabrics" section. Without
    // the flag the JSON is exactly the historical golden bytes.
    let sweeps = fabric_sweep.then(bench::fabric_sweep_rows);
    if let Some(sweeps) = &sweeps {
        for sweep in sweeps {
            println!("  fabric {}:", sweep.fabric);
            for s in sweep.fig9.iter().chain(&sweep.fig10) {
                let top = s.points.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
                println!(
                    "    {:>8}: peak {:>9.2} Melem/s over {} points",
                    s.name,
                    top,
                    s.points.len()
                );
            }
        }
    }

    std::fs::create_dir_all(out).expect("create --out dir");
    let path = format!("{out}/BENCH_scan.json");
    std::fs::write(&path, bench::bench_scan_json(&rows, sweeps.as_deref()))
        .expect("write BENCH_scan.json");
    println!("wrote {path}\n");
}

/// Wall-clock self-benchmark of the serving engine's fast path.
///
/// Runs the same seeded workload through the fast path (every default,
/// plan cache on) and the slow path (plan cache off, so every launch
/// builds its graph cold), asserts the two windows are bit-identical and
/// that the slow window's fleet schedule equals the replay of its
/// admission log through the O(n²) reference scheduler, then times the
/// scheduler alone on a ~20k-node synthetic layered DAG. Writes
/// `BENCH_wall.json` to `--out`; the committed copy at the repo root is
/// the CI baseline (the perf-smoke job fails below 0.5x of it).
///
/// Wall-clock seconds vary across machines and runs — only the *outputs*
/// are deterministic, so the JSON is a baseline for ratio gates, not a
/// byte-stable golden. The `"work"` section ([`work_counts`],
/// [`serve_work_counts`]) is the exception: its counts repeat exactly,
/// and perf-smoke holds them to 1%.
fn bench_self(opts: &ServeOpts) {
    use interconnect::reference_schedule;
    use scan_serve::{ServeConfig, Server, WorkloadSpec};
    use std::time::Instant;

    println!(
        "## bench self — {} requests, seed {}: fast path vs uncached engine",
        opts.requests, opts.seed
    );
    let requests = WorkloadSpec::default_for(opts.seed, opts.requests).generate();

    // Fast path: every default (heap scheduler, plan cache, parallel blocks).
    let t = Instant::now();
    let fast =
        Server::new(ServeConfig::new(Policy::Fifo, opts.seed)).run(&requests).expect("fast serve");
    let fast_s = t.elapsed().as_secs_f64();

    // Steady state: the same window on a warmed server — plan cache and
    // response memo populated, which is how a long-lived serving engine
    // actually runs. One warmed window finishes in well under a
    // millisecond, so time a batch of them and report the mean.
    const STEADY_WINDOWS: usize = 10;
    let warmed = Server::new(ServeConfig::new(Policy::Fifo, opts.seed));
    warmed.run(&requests).expect("warmup serve");
    let mut steady_reports = Vec::with_capacity(STEADY_WINDOWS);
    let t = Instant::now();
    let allocs_before = allocs_now();
    for _ in 0..STEADY_WINDOWS {
        steady_reports.push(warmed.run(&requests).expect("steady serve"));
    }
    let steady_allocs = allocs_now() - allocs_before;
    let steady_s = t.elapsed().as_secs_f64() / STEADY_WINDOWS as f64;
    let allocs_per_request = steady_allocs as f64 / (requests.len() * STEADY_WINDOWS) as f64;
    let steady = steady_reports.pop().expect("at least one steady window");

    // Slow path: the plan cache off, so every launch builds its graph cold;
    // its fleet schedule is checked against the replay of its admission
    // log through the O(n²) reference scheduler.
    let mut slow_cfg = ServeConfig::new(Policy::Fifo, opts.seed);
    slow_cfg.plan_cache = false;
    let t = Instant::now();
    let slow = Server::new(slow_cfg).run(&requests).expect("slow serve");
    let slow_s = t.elapsed().as_secs_f64();
    assert_same_schedule(
        slow.trace.schedule(),
        &slow.trace.reference_schedule(),
        "the fleet schedule and its replay",
    );

    assert_eq!(fast.completions.len(), slow.completions.len());
    assert_eq!(
        fast.makespan.to_bits(),
        slow.makespan.to_bits(),
        "fast and slow paths must produce the same fleet schedule"
    );
    for (a, b) in fast.completions.iter().zip(&slow.completions) {
        assert_eq!(a.request.id, b.request.id, "completion order must match");
        assert_eq!(a.checksum, b.checksum, "request {} output differs", a.request.id);
        assert_eq!(a.finished.to_bits(), b.finished.to_bits(), "request {} timing", a.request.id);
    }
    for steady in steady_reports.iter().chain(std::iter::once(&steady)) {
        assert_eq!(steady.completions.len(), slow.completions.len());
        assert_eq!(steady.makespan.to_bits(), slow.makespan.to_bits());
        for (a, b) in steady.completions.iter().zip(&slow.completions) {
            assert_eq!(a.request.id, b.request.id, "steady completion order must match");
            assert_eq!(a.checksum, b.checksum, "steady request {} output differs", a.request.id);
            assert_eq!(
                a.finished.to_bits(),
                b.finished.to_bits(),
                "steady request {}",
                a.request.id
            );
        }
    }

    let fast_rps = requests.len() as f64 / fast_s;
    let slow_rps = requests.len() as f64 / slow_s;
    let steady_rps = requests.len() as f64 / steady_s;
    let serve_speedup = slow_s / fast_s;
    let steady_speedup = slow_s / steady_s;
    let stats = fast.cache_stats;
    let responses = warmed.response_stats();
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    println!("  serve cold  : {fast_s:>8.3} s  ({fast_rps:>9.1} req/s)  {serve_speedup:>6.2}x");
    println!(
        "  serve steady: {steady_s:>8.3} s  ({steady_rps:>9.1} req/s)  {steady_speedup:>6.2}x"
    );
    println!("  serve slow  : {slow_s:>8.3} s  ({slow_rps:>9.1} req/s)   1.00x  (plan cache off)");
    println!("  (all three windows bit-identical)");
    println!(
        "  plan cache : {} hits / {} misses ({:.1}% hit rate), {} entries",
        stats.hits,
        stats.misses,
        hit_rate * 100.0,
        stats.entries
    );
    println!(
        "  responses  : {} of {} served from the memo across {STEADY_WINDOWS} steady windows",
        responses.served,
        requests.len() * STEADY_WINDOWS,
    );

    // Scheduler alone: one wide layered DAG with contended streams, the
    // shape that separates O(n log n) from O(n²).
    let graph = synthetic_layered_dag(20_000, 2_000);
    let nodes = graph.nodes().len();
    let t = Instant::now();
    let heap = graph.schedule();
    let heap_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let reference = reference_schedule(&graph);
    let reference_s = t.elapsed().as_secs_f64();
    assert_same_schedule(&heap, &reference, "heap and reference schedules");

    let heap_nps = nodes as f64 / heap_s;
    let reference_nps = nodes as f64 / reference_s;
    let schedule_speedup = reference_s / heap_s;
    println!("  schedule heap      : {heap_s:>8.3} s  ({heap_nps:>12.0} nodes/s)");
    println!("  schedule reference : {reference_s:>8.3} s  ({reference_nps:>12.0} nodes/s)");
    println!("  speedup            : {schedule_speedup:>8.2}x  ({nodes} nodes)");

    // Admission alone: repeatedly admit one pipeline-shaped graph into a
    // growing shared fleet — the incremental zero-copy path (shared
    // storage, pooled scratch, availability index) against the replay of
    // the same admission log through the O(n²) reference scheduler. The
    // differential suite proves them bit-equal; this times them.
    let unit = std::sync::Arc::new(synthetic_layered_dag(64, 8));
    const ADMISSIONS: usize = 400;
    let t = Instant::now();
    let mut incr_fleet = interconnect::FleetTimeline::new();
    for i in 0..ADMISSIONS {
        let release = incr_fleet.makespan();
        incr_fleet.admit_shared(
            unit.clone(),
            interconnect::empty_remap(),
            release,
            format!("a{i}:"),
        );
    }
    let admit_incr_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let replay = incr_fleet.reference_schedule();
    let admit_ref_s = t.elapsed().as_secs_f64();
    assert_same_schedule(
        &incr_fleet.schedule(),
        &replay,
        "incremental admissions and their replay",
    );
    let incr_aps = ADMISSIONS as f64 / admit_incr_s;
    let ref_aps = ADMISSIONS as f64 / admit_ref_s;
    let admit_speedup = admit_ref_s / admit_incr_s;
    println!("  admit incremental  : {admit_incr_s:>8.3} s  ({incr_aps:>12.0} admissions/s)");
    println!("  admit reference    : {admit_ref_s:>8.3} s  ({ref_aps:>12.0} admissions/s)");
    println!(
        "  speedup            : {admit_speedup:>8.2}x  ({ADMISSIONS} admissions x {} nodes)",
        unit.nodes().len()
    );

    // The sharded window whole on one thread (`threads: 1`) and with its
    // shards' window-end reports (their response passes) fanned out
    // across the cores (the router steps its ticks on the caller either
    // way). Byte-equality is asserted here (the differential suite proves
    // it across a matrix; this proves it on the benchmark workload too),
    // then both are timed. The speedup is machine-dependent — on a
    // single-core host the fan degrades to ~1.0x and the committed number
    // says so honestly.
    const PAR_SHARDS: usize = 4;
    const PAR_THREADS: usize = 4;
    const PAR_WINDOWS: usize = 9;
    let run_sharded = |threads: usize| {
        let mut config = scan_serve::RouterConfig::new(PAR_SHARDS, Policy::Fifo, opts.seed);
        config.threads = threads;
        scan_serve::Router::new(config)
            .expect("valid shard topology")
            .run(&requests)
            .expect("sharded serve")
    };
    let serial_report = run_sharded(1);
    let parallel_report = run_sharded(PAR_THREADS);
    assert_eq!(
        serial_report.metrics.to_json(),
        parallel_report.metrics.to_json(),
        "the fanned window must be byte-equal to the one-thread window"
    );
    assert_eq!(
        serial_report.trace.chrome_trace_json(),
        parallel_report.trace.chrome_trace_json(),
        "the fanned window must merge the same trace bytes"
    );
    // Beside the two windows, what the host's cores give any fan right
    // now: two equal compute units on one host fan against the same two
    // on this thread. A shared host can withhold the second core for
    // seconds at a time, and then no fan gains; perf-smoke judges the
    // window's speedup only when this ratio shows the core was there,
    // and it is the pairs' lower quartile, so most of the pairs must
    // show it. The four legs run in every pair, in reverse order every
    // other pair, so drift in the host's speed lands on all of them; a
    // window leg's time is its median.
    let timed = |leg: &dyn Fn()| {
        let t = Instant::now();
        leg();
        t.elapsed().as_secs_f64()
    };
    let fan_units = || std::hint::black_box(gpu_sim::host::fan_out([1u64, 2], fan_unit));
    let mut times: [Vec<f64>; 4] = Default::default();
    for pair in 0..PAR_WINDOWS {
        let mut legs = [0, 1, 2, 3];
        if pair % 2 == 1 {
            legs.reverse();
        }
        for leg in legs {
            times[leg].push(match leg {
                0 => timed(&|| drop(run_sharded(1))),
                1 => timed(&|| drop(run_sharded(PAR_THREADS))),
                2 => timed(&|| drop(gpu_sim::host::as_worker(fan_units))),
                _ => timed(&|| drop(fan_units())),
            });
        }
    }
    let [serial, parallel, units_one, units_fan] = times;
    let median = |mut leg: Vec<f64>| {
        leg.sort_by(f64::total_cmp);
        leg[leg.len() / 2]
    };
    let (serial_s, parallel_s) = (median(serial), median(parallel));
    let mut fan_ratios: Vec<f64> =
        units_one.iter().zip(&units_fan).map(|(one, fan)| one / fan).collect();
    fan_ratios.sort_by(f64::total_cmp);
    let host_fan_speedup = fan_ratios[PAR_WINDOWS / 4];
    let serial_rps = requests.len() as f64 / serial_s;
    let parallel_rps = requests.len() as f64 / parallel_s;
    let parallel_speedup = serial_s / parallel_s;
    let cores = gpu_sim::host::width();
    println!(
        "  sharded 1 thread : {serial_s:>8.3} s  ({serial_rps:>9.1} req/s)  \
         {PAR_SHARDS} shards, whole window on one thread"
    );
    println!(
        "  sharded fanned   : {parallel_s:>8.3} s  ({parallel_rps:>9.1} req/s)  \
         {PAR_SHARDS} shards, threads {PAR_THREADS}: shard reports on {cores} core(s)"
    );
    println!("  speedup          : {parallel_speedup:>8.2}x  (byte-identical windows)");
    println!(
        "  host fan         : {host_fan_speedup:>8.2}x  (two equal compute units fanned vs \
         one thread, lower quartile)"
    );
    println!("  allocs/request   : {allocs_per_request:>8.2}  (steady memo-hit path)");
    // The steady path is allocation-free per request up to report
    // assembly: a memo-hit request may append to the completion log and
    // amortize a handful of growths, but never rebuilds keys, inputs or
    // remap tables. A small constant bounds it; rebuilding any of those
    // shows up as 10x this.
    assert!(
        allocs_per_request <= 16.0,
        "steady path must stay O(1) allocations per memo-hit request, got {allocs_per_request:.2}"
    );

    // Exact host work of one run per proposal and library, and of the
    // fixed serving windows: counts repeat run to run, so CI gates them at
    // 1% where wall times need 2x.
    let work = work_counts();
    for (name, allocs, bytes) in &work {
        println!(
            "  work {name:<16}: {allocs:>9} allocs  {bytes:>12} B  \
             (n={WORK_N}, g={WORK_G}, one thread)"
        );
    }
    let serve_work = serve_work_counts();
    for (name, allocs, bytes) in &serve_work {
        println!(
            "  work {name:<16}: {allocs:>9} allocs  {bytes:>12} B  \
             ({WORK_REQUESTS} requests, one thread)"
        );
    }
    let work_runs = work
        .iter()
        .chain(&serve_work)
        .map(|(name, allocs, bytes)| {
            format!("      \"{name}\": {{ \"allocs\": {allocs}, \"bytes\": {bytes} }}")
        })
        .collect::<Vec<_>>()
        .join(",\n");

    std::fs::create_dir_all(&opts.out).expect("create --out dir");
    let path = format!("{}/BENCH_wall.json", opts.out);
    let json = format!(
        "{{\n  \"seed\": {},\n  \"requests\": {},\n  \"serve\": {{\n    \"fast_s\": {:.6},\n    \
         \"steady_s\": {:.6},\n    \"slow_s\": {:.6},\n    \"fast_rps\": {:.3},\n    \
         \"steady_rps\": {:.3},\n    \"slow_rps\": {:.3},\n    \"speedup\": {:.3},\n    \
         \"steady_speedup\": {:.3}\n  }},\n  \"schedule\": {{\n    \"nodes\": {},\n    \
         \"heap_s\": {:.6},\n    \"reference_s\": {:.6},\n    \"heap_nodes_per_s\": {:.1},\n    \
         \"reference_nodes_per_s\": {:.1},\n    \"speedup\": {:.3}\n  }},\n  \"admission\": {{\n    \
         \"admissions\": {},\n    \"graph_nodes\": {},\n    \"incremental_s\": {:.6},\n    \
         \"reference_s\": {:.6},\n    \"incremental_admissions_per_s\": {:.1},\n    \
         \"reference_admissions_per_s\": {:.1},\n    \"speedup\": {:.3}\n  }},\n  \
         \"parallel\": {{\n    \"shards\": {},\n    \"threads\": {},\n    \"cores\": {},\n    \
         \"serial_s\": {:.6},\n    \"parallel_s\": {:.6},\n    \"serial_rps\": {:.3},\n    \
         \"parallel_rps\": {:.3},\n    \"speedup\": {:.3},\n    \"host_fan_speedup\": {:.3}\n  }},\n  \
         \"cache\": {{\n    \
         \"hits\": {},\n    \"misses\": {},\n    \"hit_rate\": {:.4},\n    \
         \"responses_served\": {},\n    \"allocs_per_request\": {:.3}\n  }},\n  \
         \"work\": {{\n    \"n\": {},\n    \"g\": {},\n    \"requests\": {},\n    \
         \"runs\": {{\n{}\n    }}\n  }}\n}}\n",
        opts.seed,
        requests.len(),
        fast_s,
        steady_s,
        slow_s,
        fast_rps,
        steady_rps,
        slow_rps,
        serve_speedup,
        steady_speedup,
        nodes,
        heap_s,
        reference_s,
        heap_nps,
        reference_nps,
        schedule_speedup,
        ADMISSIONS,
        unit.nodes().len(),
        admit_incr_s,
        admit_ref_s,
        incr_aps,
        ref_aps,
        admit_speedup,
        PAR_SHARDS,
        PAR_THREADS,
        cores,
        serial_s,
        parallel_s,
        serial_rps,
        parallel_rps,
        parallel_speedup,
        host_fan_speedup,
        stats.hits,
        stats.misses,
        hit_rate,
        responses.served,
        allocs_per_request,
        WORK_N,
        WORK_G,
        WORK_REQUESTS,
        work_runs,
    );
    std::fs::write(&path, json).expect("write BENCH_wall.json");
    println!("wrote {path}\n");
}

/// One unit of `self`'s host-fan check: a chain of FNV-1a steps over
/// `seed`, a few milliseconds of compute that touches no memory.
fn fan_unit(seed: u64) -> u64 {
    (0..1u64 << 21).fold(seed, |h, i| (h ^ i).wrapping_mul(0x100_0000_01b3))
}

/// The shape `work_counts` runs: the paper's 2^22-element sweep point at
/// n = 16, G = 2^6.
const WORK_N: u32 = 16;
const WORK_G: u32 = 6;

/// Requests in each window `serve_work_counts` serves, all from seed 7.
const WORK_REQUESTS: usize = 2000;

/// `run` on this thread as a fan worker ([`gpu_sim::host::as_worker`]),
/// so no site fans out and every allocation lands on this thread's
/// counters: its result, allocations and allocated bytes.
fn counted<R>(run: impl FnOnce() -> R) -> (R, u64, u64) {
    gpu_sim::host::as_worker(|| {
        let (allocs, bytes) = (allocs_now(), bytes_now());
        let out = run();
        (out, allocs_now() - allocs, bytes_now() - bytes)
    })
}

/// Exact host work of the fixed serving windows, each [`counted`]:
/// `default_for(7, WORK_REQUESTS)` on an EDF [`scan_serve::Server`]
/// (`server_cold`, then the same list again, `server_steady`) and
/// `mixed_ops_for(7, WORK_REQUESTS)` on a 4-shard EDF router with queue
/// bound 5 and `threads: 1` (`router4_cold`, then `router4_reserve`).
/// `(name, allocations, bytes)`; each re-served window must complete
/// like its cold one.
fn serve_work_counts() -> Vec<(&'static str, u64, u64)> {
    use scan_serve::{Completion, Router, RouterConfig, ServeConfig, Server, WorkloadSpec};

    fn print<'a>(completions: impl IntoIterator<Item = &'a Completion>) -> Vec<(usize, u64, u64)> {
        completions.into_iter().map(|c| (c.request.id, c.checksum, c.finished.to_bits())).collect()
    }
    let requests = WorkloadSpec::default_for(7, WORK_REQUESTS).generate();
    let server = Server::new(ServeConfig::new(Policy::Edf, 7));
    let serve = || server.run(&requests).expect("server work window");
    let (cold, cold_allocs, cold_bytes) = counted(serve);
    let (steady, steady_allocs, steady_bytes) = counted(serve);
    assert_eq!(
        print(&cold.completions),
        print(&steady.completions),
        "server_steady completes like server_cold"
    );

    let requests = WorkloadSpec::mixed_ops_for(7, WORK_REQUESTS).generate();
    let mut config = RouterConfig::new(4, Policy::Edf, 7);
    config.queue_capacity = Some(5);
    config.threads = 1;
    let router = Router::new(config).expect("valid shard topology");
    let serve = || router.run(&requests).expect("router work window");
    let (cold_router, router_allocs, router_bytes) = counted(serve);
    let (reserve, reserve_allocs, reserve_bytes) = counted(serve);
    assert_eq!(
        print(cold_router.completions()),
        print(reserve.completions()),
        "router4_reserve completes like router4_cold"
    );
    vec![
        ("server_cold", cold_allocs, cold_bytes),
        ("server_steady", steady_allocs, steady_bytes),
        ("router4_cold", router_allocs, router_bytes),
        ("router4_reserve", reserve_allocs, reserve_bytes),
    ]
}

/// Exact host work of one run of each proposal and library at
/// [`WORK_N`], [`WORK_G`]: `(name, allocations, bytes)`. Each run is
/// counted inside [`gpu_sim::host::as_worker`], so no site fans out and
/// every allocation lands on this thread's counters; each output is
/// verified after its count is taken.
fn work_counts() -> Vec<(&'static str, u64, u64)> {
    use baselines::{Cub, LightScan, ScanLibrary};
    use scan_core::verify::verify_batch;
    use scan_core::{
        premises, NodeConfig, ProblemParams, Proposal, ScanOutput, ScanRequest, ScanResult,
    };

    let device = DeviceSpec::tesla_k80();
    let problem = ProblemParams::new(WORK_N, WORK_G);
    let input = bench::workload::uniform_input(problem.total_elems(), 7);
    let count = |name: &'static str, run: &dyn Fn(&[i32]) -> ScanResult<ScanOutput<i32>>| {
        let (out, allocs, bytes) = counted(|| run(&input));
        let out = out.unwrap_or_else(|e| panic!("work run {name}: {e}"));
        verify_batch(Add, problem, &input, &out.data)
            .unwrap_or_else(|e| panic!("work run {name}: {e}"));
        (name, allocs, bytes)
    };
    // Each proposal with its (W, V, Y, M) selection and the GPUs sharing
    // one problem, which sets the premise tuple's default K.
    let proposals = [
        ("sp", Proposal::Sp, None, 1),
        ("mps_w4", Proposal::Mps, Some((4, 4, 1, 1)), 4),
        ("mppc_w8_v4", Proposal::Mppc, Some((8, 4, 2, 1)), 4),
        ("multinode_m2_w4", Proposal::MpsMultinode, Some((4, 4, 1, 2)), 8),
        ("case1_w4", Proposal::Case1, Some((4, 4, 1, 1)), 1),
    ];
    let base = premises::derive_tuple(&device, 4, 0);
    let mut counts: Vec<_> = proposals
        .into_iter()
        .map(|(name, proposal, cfg, parts)| {
            let k = premises::default_k(&device, &problem, &base, parts).expect("feasible K");
            let mut request =
                ScanRequest::new(Add, problem).proposal(proposal).tuple(base.with_k(k));
            if let Some((w, v, y, m)) = cfg {
                request = request
                    .devices(NodeConfig::new(w, v, y, m).expect("valid selection"))
                    .fabric(interconnect::Fabric::tsubame_kfc(m));
            }
            count(name, &|input| request.run(input))
        })
        .collect();
    let libraries: [(&str, Box<dyn ScanLibrary<i32>>); 2] =
        [("cub", Box::new(Cub::new(Add))), ("lightscan", Box::new(LightScan::new(Add)))];
    for (name, lib) in libraries {
        counts.push(count(name, &|input| lib.batch_scan(&device, problem, input)));
    }
    counts
}

/// Assert two schedules agree bit for bit: every node's start, finish and
/// predecessor, and the makespan.
fn assert_same_schedule(a: &interconnect::Schedule, b: &interconnect::Schedule, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.start), bits(&b.start), "{what}: start times");
    assert_eq!(bits(&a.finish), bits(&b.finish), "{what}: finish times");
    assert_eq!(a.pred, b.pred, "{what}: predecessors");
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{what}: makespan");
}

/// A deterministic wide layered DAG: `width` nodes per layer, each
/// depending on two nodes of the previous layer, 16 contended stream
/// resources. Durations come from a fixed LCG so the graph (and both
/// schedules of it) are identical on every run.
fn synthetic_layered_dag(nodes: usize, width: usize) -> interconnect::ExecGraph {
    use gpu_sim::EventKind;
    use interconnect::{ExecGraph, NodeId, Resource};

    let mut g = ExecGraph::new();
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut prev: Vec<NodeId> = Vec::new();
    let mut made = 0;
    let mut layer = 0usize;
    while made < nodes {
        let w = width.min(nodes - made);
        let label = format!("layer{layer}");
        let p = g.phase(&label);
        let cur: Vec<NodeId> = (0..w)
            .map(|j| {
                let deps: Vec<NodeId> = if prev.is_empty() {
                    Vec::new()
                } else {
                    vec![prev[j % prev.len()], prev[(j * 7 + 3) % prev.len()]]
                };
                g.add(
                    p,
                    &label,
                    EventKind::Kernel,
                    1.0e-6 + rng() * 1.0e-4,
                    &deps,
                    &[Resource::Stream { gpu: j % 8, stream: (j / 8) % 2 }],
                )
            })
            .collect();
        made += w;
        prev = cur;
        layer += 1;
    }
    g
}

/// Counter-level ablations of the §3.1 design choices.
fn ablations() {
    println!("## Ablations — hardware-counter comparisons");

    // Shuffle vs shared-memory warp exchange.
    let lanes: gpu_sim::LaneArray<i32> = std::array::from_fn(|i| i as i32);
    let run = |f: &mut dyn FnMut(&mut gpu_sim::BlockCtx<'_, i32>)| {
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let cfg = LaunchConfig::new("abl", (1, 1), (32, 1)).shared_elems(64).regs(32);
        gpu.launch::<i32, _>(&cfg, f).unwrap().counters
    };
    let c_shfl = run(&mut |ctx| {
        warp_scan_inclusive(ctx, Add, &lanes);
    });
    let c_shared = run(&mut |ctx| {
        shared_scan::warp_scan_inclusive_shared(ctx, Add, &lanes, 0);
    });
    println!("Warp scan exchange (one warp):");
    println!("  shuffle-based : {} shuffles, {} shared ops", c_shfl.shuffles, c_shfl.shared_ops());
    println!(
        "  shared-memory : {} shuffles, {} shared ops",
        c_shared.shuffles,
        c_shared.shared_ops()
    );

    // Exclusive-scan trick: invertible vs non-invertible operator.
    let c_add = run(&mut |ctx| {
        warp_scan_exclusive(ctx, Add, &lanes);
    });
    let c_max = run(&mut |ctx| {
        warp_scan_exclusive(ctx, Max, &lanes);
    });
    println!("Exclusive warp scan (§3.1's saved communication step):");
    println!("  add (invertible)    : {} shuffles", c_add.shuffles);
    println!("  max (needs shift)   : {} shuffles", c_max.shuffles);

    // int4 vs scalar loads.
    let mut width_counters = Vec::new();
    for width in [AccessWidth::Vec4, AccessWidth::Scalar] {
        let mut gpu = Gpu::new(0, DeviceSpec::tesla_k80());
        let data: Vec<i32> = (0..4096).collect();
        let buf = gpu.alloc_from(&data).unwrap();
        let cfg = LaunchConfig::new("abl", (1, 1), (128, 1)).regs(32).width(width);
        let stats = gpu
            .launch::<i32, _>(&cfg, |ctx| {
                let mut tile = vec![0i32; 4096];
                ctx.read_global(buf.host_view(), 0, &mut tile);
            })
            .unwrap();
        width_counters.push((width, stats.counters));
    }
    println!("Global loads of 4096 i32 (one block):");
    for (width, c) in width_counters {
        println!(
            "  {width:?}: {} load instructions, {} transactions",
            c.gld_instructions, c.gld_transactions
        );
    }
    println!();
}
