//! perfbench — the workspace's two-clock benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-sweep|serve-cold|serve-replay|router-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is generated from `--seed`, set up `SETUP_REPS` times
//! (the median is `setup_s`), driven through the program's public entry
//! points for `--seconds` seconds with only calls into the program inside
//! the timed region, and verified outside it. `--trace 1` adds the traced
//! run: an outside-in replay of the request path through each layer's
//! public functions, with spans, written to `perfbench/out/`. The last
//! line of standard output is the JSON result; see `perfbench/README.md`.

mod check;
mod paper;
mod serving;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use spans::{Summary, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `peak_rss_mb` is read after this many timed repetitions (or at the end
/// of a shorter phase): a fixed amount of work, so a run's length cannot
/// move it — the serving memo grows with every fresh window.
const RSS_AFTER_REPS: usize = 4;

/// The timed phase: repetitions until `seconds` elapse, each timed around
/// calls into the program only.
///
/// Every call is preceded by the machine-speed probe (`stats::probe_speed`,
/// untimed). `host_melem_s` scales the repetitions' throughput by the
/// probe's reference speed over the run's median probe speed, so a run
/// the neighbours slow down as a whole reads as if on the reference
/// machine, while a change to the program moves only the program.
pub struct Timed {
    start: Instant,
    seconds: f64,
    /// Threads the probe runs on: the threads the timed calls keep busy.
    probe_threads: usize,
    /// Measured host Melem/s of each repetition, in order.
    pub rates: Vec<f64>,
    /// Measured host seconds of each repetition.
    secs: Vec<f64>,
    /// The open repetition's host seconds.
    open_secs: f64,
    probe_gops: Vec<f64>,
    rss_mb: Option<f64>,
}

impl Timed {
    pub fn new(seconds: f64, probe_threads: usize) -> Self {
        Timed {
            start: Instant::now(),
            seconds,
            probe_threads,
            rates: Vec::new(),
            secs: Vec::new(),
            open_secs: 0.0,
            probe_gops: Vec::new(),
            rss_mb: None,
        }
    }

    /// Whether another repetition starts: always the first one, then
    /// while the phase's seconds last.
    pub fn more(&self) -> bool {
        self.rates.is_empty() || self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Probe the machine, then time `f` (one call into the program) as
    /// part of the open repetition.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.probe_gops.push(stats::probe_speed(self.probe_threads));
        let t = Instant::now();
        let out = f();
        self.open_secs += t.elapsed().as_secs_f64();
        out
    }

    /// Close the open repetition: `elems` verified elements.
    pub fn push(&mut self, elems: usize) {
        let secs = std::mem::take(&mut self.open_secs);
        self.rates.push(elems as f64 / secs / 1e6);
        self.secs.push(secs);
        if self.rates.len() == RSS_AFTER_REPS {
            self.rss_mb = Some(stats::peak_rss_mb());
        }
    }

    /// Median measured host seconds of one repetition.
    pub fn median_secs(&self) -> f64 {
        stats::median(&self.secs)
    }

    /// Record `host_melem_s` — the upper decile of the repetitions'
    /// throughput, probe-scaled — and `peak_rss_mb`.
    pub fn record(&self, out: &mut Outcome, label: &str) {
        let mut sorted = self.rates.clone();
        sorted.sort_by(f64::total_cmp);
        let p90 = stats::nearest_rank(&sorted, 90.0);
        let probe = stats::median(&self.probe_gops);
        out.note(format!(
            "timed: {} {label}; host Melem/s measured median {:.2} p90 {p90:.2}; probe median {probe:.4} Gop/s \
             (range {:.3}–{:.3})\n  measured in order {:?}",
            self.rates.len(),
            stats::median(&sorted),
            self.probe_gops.iter().copied().fold(f64::INFINITY, f64::min),
            self.probe_gops.iter().copied().fold(0.0, f64::max),
            self.rates.iter().map(|r| (r * 10.0).round() / 10.0).collect::<Vec<_>>()
        ));
        out.metric("host_melem_s", p90 * stats::PROBE_REF_GOPS / probe);
        out.metric("peak_rss_mb", self.rss_mb.unwrap_or_else(stats::peak_rss_mb));
    }
}

/// End-to-end metrics: name, unit, and the regression bound — kept equal
/// to `BENCHMARK.json`, which the sensitivity row divides by.
const END_TO_END: &[(&str, &str, f64)] = &[
    ("host_melem_s", "Melem/s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.2),
    ("sim_melem_s", "Melem/s_sim", 0.2),
    ("ok_frac", "ratio", 0.05),
    ("sim_p50_us", "us_sim", 0.2),
    ("sim_p99_us", "us_sim", 0.25),
    ("slo_attain", "ratio", 0.1),
    ("sim_capacity_rps", "req/s_sim", 0.25),
];

/// Per-layer metrics of the traced run: name and unit. A workload that
/// never reaches a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("gpu-sim.stage1_s", "s"),
    ("gpu-sim.stage2_s", "s"),
    ("gpu-sim.stage3_s", "s"),
    ("gpu-sim.warp_instr_per_s", "1/s"),
    ("gpu-sim.warp_instr", "count"),
    ("gpu-sim.gmem_bytes", "B"),
    ("baselines.batch_scan_s", "s"),
    ("scan-core.request_s", "s"),
    ("scan-core.plan_lookup_us", "us"),
    ("scan-core.plan_hit_ratio", "ratio"),
    ("scan-core.cold_build_ms", "ms"),
    ("scan-core.cold_builds", "count"),
    ("interconnect.schedule_s", "s"),
    ("interconnect.admit_us", "us"),
    ("interconnect.fleet_nodes", "count"),
    ("interconnect.merge_s", "s"),
    ("scan-serve.input_gen_melem_s", "Melem/s"),
    ("skeletons.reference_melem_s", "Melem/s"),
    ("scan-serve.lease_us", "us"),
    ("scan-serve.window_s", "s"),
    ("scan-serve.memo_hit_ratio", "ratio"),
    ("scan-serve.coalesce_ratio", "ratio"),
    ("scan-serve.gpu_busy_frac", "ratio"),
    ("scan-serve.queue_depth_mean", "count"),
    ("scan-serve.router.window_s", "s"),
    ("scan-serve.router.serial_window_s", "s"),
    ("scan-serve.router.parallel_speedup", "ratio"),
    ("scan-serve.router.steals", "count"),
    ("scan-serve.router.redirects", "count"),
    ("scan-serve.router.reject_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
    ("trace.replica_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("gpu-sim.share", "ratio"),
    ("skeletons.share", "ratio"),
    ("baselines.share", "ratio"),
    ("scan-core.share", "ratio"),
    ("interconnect.share", "ratio"),
    ("scan-serve.share", "ratio"),
];

/// The crates a traced run attributes time to, with their share metric.
const LAYER_SHARES: &[(&str, &str)] = &[
    ("gpu-sim", "gpu-sim.share"),
    ("skeletons", "skeletons.share"),
    ("baselines", "baselines.share"),
    ("scan-core", "scan-core.share"),
    ("interconnect", "interconnect.share"),
    ("scan-serve", "scan-serve.share"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its span trace and layer table (one
    /// directory per workload; the latest traced run wins).
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper-sweep", "serve-cold", "serve-replay", "router-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let trace = trace.ok_or("--trace is required")?;
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(&workload);
    Ok(Args { workload, seed, seconds, trace, out_dir })
}

/// What one run measured and checked.
pub struct Outcome {
    title: String,
    pub attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    setup_times: Vec<f64>,
}

impl Outcome {
    pub fn new(title: String) -> Self {
        Outcome {
            title,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
            setup_times: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.metrics.iter().all(|&(n, _)| n != name), "metric {name} set twice");
        // `+ 0.0` turns an empty sum's -0.0 into 0.
        self.metrics.push((name, value + 0.0));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A failed check: named, counted, and the run exits non-zero.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Set up `SETUP_REPS` times, each right after a probe on `probe_threads`
/// threads; `setup_s` is the median set-up time scaled like the timed
/// phase (× the median probe speed ÷ the reference). Returns the last
/// set-up.
pub fn repeated_setup<S>(out: &mut Outcome, probe_threads: usize, mut f: impl FnMut() -> S) -> S {
    let mut state = None;
    let mut probes = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        drop(state.take());
        probes.push(stats::probe_speed(probe_threads));
        let t = Instant::now();
        state = Some(f());
        out.setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median(&out.setup_times) * stats::median(&probes) / stats::PROBE_REF_GOPS;
    out.metric("setup_s", setup_s);
    state.expect("set up at least once")
}

/// Threads the multi-threaded workloads keep busy: the program's block
/// workers, router workers and per-GPU threads size themselves to this.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Shared tail of every traced run: the trace ratios, per-layer shares and
/// the sensitivity row; writes the combined Chrome trace (the program's
/// simulated trace, when given, plus the host spans) and the layer table.
pub fn finish_trace(
    args: &Args,
    tr: &Tracer,
    sum: &Summary,
    sim_json: Option<String>,
    overhead: f64,
    focus: &[&str],
    out: &mut Outcome,
) {
    out.metric("trace.accounted_frac", sum.accounted_frac());
    out.metric("trace.replica_ratio", sum.replica_ratio());
    out.metric("trace.overhead_frac", overhead);
    for &(layer, metric) in LAYER_SHARES {
        out.metric(metric, sum.layer_self(layer) / sum.replica_wall);
    }
    // The sensitivity row: the share of the replica's wall time the
    // workload's chosen layers take, that share scaled to the opaque call
    // (× replica_ratio — the part of the end-to-end time those layers
    // explain), and the smallest slowdown of them that the
    // `host_melem_s` bound can detect (bound ÷ share of the opaque time).
    let share: f64 = focus.iter().map(|l| sum.layer_self(l)).sum::<f64>() / sum.replica_wall;
    let of_opaque = share * sum.replica_ratio();
    let bound = END_TO_END.iter().find(|m| m.0 == "host_melem_s").expect("host metric").2;
    out.note(format!(
        "sensitivity: {} | layers {} | share of replica {:.3} | replica_ratio {:.3} | share of opaque {:.3} | \
         smallest detectable slowdown {:.0}% (bound {:.0}% / share of opaque)",
        args.workload,
        focus.join("+"),
        share,
        sum.replica_ratio(),
        of_opaque,
        100.0 * bound / of_opaque,
        100.0 * bound
    ));

    std::fs::create_dir_all(&args.out_dir).expect("create the trace output directory");
    let table = sum.table();
    std::fs::write(args.out_dir.join("layers.tsv"), &table).expect("write layers.tsv");
    let host = tr.chrome_events(1000).join(",\n");
    const TAIL: &str = "\n],\"displayTimeUnit\":\"ms\"}\n";
    let json = match sim_json.as_deref().and_then(|s| s.strip_suffix(TAIL)) {
        Some(head) => format!("{head},\n{host}{TAIL}"),
        None => format!("{{\"traceEvents\":[\n{host}{TAIL}"),
    };
    std::fs::write(args.out_dir.join("trace.json"), json).expect("write trace.json");
    out.note(format!("layer table:\n{}", table.trim_end()));
    out.note(format!("wrote {}/{{trace.json,layers.tsv}}", args.out_dir.display()));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-sweep|serve-cold|serve-replay|router-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "paper-sweep" => paper::run(&args),
        "serve-cold" => serving::serve_cold(&args),
        "serve-replay" => serving::serve_replay(&args),
        "router-mixed" => serving::router_mixed(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    for &(name, _) in PER_LAYER {
        if args.trace && out.value(name).is_none() {
            out.metric(name, 0.0);
        }
    }

    println!(
        "== perfbench {} seed {} ({} s, trace {}) — {}",
        args.workload, args.seed, args.seconds, args.trace as u8, out.title
    );
    println!(
        "setup: {} repetitions {:?} s",
        out.setup_times.len(),
        out.setup_times.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    );
    for line in &out.notes {
        println!("{line}");
    }
    for m in &out.mismatches {
        println!("MISMATCH: {m}");
    }
    let units: Vec<(&str, &str)> =
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).chain(PER_LAYER.iter().copied()).collect();
    for &(name, value) in &out.metrics {
        let unit = units.iter().find(|&&(n, _)| n == name).map_or("", |&(_, u)| u);
        println!("  {name:<36} {value:>20.6} {unit}");
    }
    let selected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    let fields: Vec<String> = selected
        .iter()
        .map(|&(name, unit)| {
            let v = out.value(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
