//! Golden reports of the single-GPU runs: the five competing libraries of
//! Figs. 11–13 (plus Thrust's segmented scan) and the batch reduction.
//! Each entry of `tests/golden/library_reports.txt` holds the run's label,
//! every timeline phase with its seconds as f64 hex bits, the makespan bits
//! and the FNV-1a of the output, so any drift in the libraries' simulated
//! time or data shows up as a readable diff. A second test pins the shape
//! every such run reports through: a two-node execution-graph chain.
//! Regenerate the golden after an intentional timing-model change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_libraries
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use multigpu_scan::fabric::{EventKind, Resource};
use multigpu_scan::prelude::*;
use multigpu_scan::scan::{reduce_sp, Breakdown, RunReport};

/// The two shapes every run is pinned at: a batch of eight 2^13 problems
/// and one 2^16 problem.
const SHAPES: [(u32, u32); 2] = [(13, 3), (16, 0)];

fn pseudo(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i as i64 * 16807 + 11) % 211) as i32 - 105).collect()
}

fn fnv1a(data: &[i32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in data.iter().flat_map(|v| v.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Every pinned run at `problem`: its case name and output (for the
/// reduction, its totals and report).
fn runs(problem: ProblemParams) -> Vec<(String, ScanOutput<i32>)> {
    let device = DeviceSpec::tesla_k80();
    let input = pseudo(problem.total_elems());
    let libraries: [&dyn ScanLibrary<i32>; 5] = [
        &Cudpp::new(Add),
        &Thrust::new(Add),
        &ModernGpu::new(Add),
        &Cub::new(Add),
        &LightScan::new(Add),
    ];
    let mut runs: Vec<(String, ScanOutput<i32>)> = libraries
        .iter()
        .map(|lib| (lib.name().to_string(), lib.batch_scan(&device, problem, &input).unwrap()))
        .collect();
    let seg = Thrust::new(Add).segmented_scan(&device, problem, &input).unwrap();
    runs.push(("Thrust-segmented".into(), seg));
    let reduced = reduce_sp(Add, SplkTuple::kepler_premises(1), &device, problem, &input).unwrap();
    runs.push(("Reduce-SP".into(), ScanOutput::new(reduced.totals, reduced.report)));
    runs
}

/// One golden entry: a `[case]` header, then the label, one line per
/// timeline phase, the makespan and the output checksum.
fn render(case: &str, report: &RunReport, data: &[i32]) -> String {
    let mut s = String::new();
    writeln!(s, "[{case}]").unwrap();
    writeln!(s, "label: {}", report.label).unwrap();
    for phase in report.timeline.phases() {
        writeln!(s, "phase: {} {:016x}", phase.label, phase.seconds.to_bits()).unwrap();
    }
    writeln!(s, "makespan: {:016x}", report.makespan.to_bits()).unwrap();
    writeln!(s, "fnv1a: {:016x}", fnv1a(data)).unwrap();
    s
}

#[test]
fn library_reports_are_stable() {
    let mut rendered = String::new();
    for (n, g) in SHAPES {
        let problem = ProblemParams::new(n, g);
        for (name, out) in runs(problem) {
            rendered.push_str(&render(&format!("{name} n={n} g={g}"), &out.report, &out.data));
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/library_reports.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path:?} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    for (ln, (want, got)) in golden.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "library reports diverge from {path:?} at line {} \
             (run with UPDATE_GOLDEN=1 if the timing model changed intentionally)",
            ln + 1
        );
    }
    assert_eq!(golden.lines().count(), rendered.lines().count(), "entry count differs");
}

/// Every library and the batch reduction report through a two-node chain
/// on GPU 0's stream 0: the run has a trace, its schedule is the report's
/// makespan bit for bit, and its breakdown is the timeline's.
#[test]
fn library_runs_report_through_a_two_node_chain() {
    let stream0 = [Resource::Stream { gpu: 0, stream: 0 }];
    for (n, g) in SHAPES {
        for (name, out) in runs(ProblemParams::new(n, g)) {
            let case = format!("{name} n={n} g={g}");
            assert!(out.trace().is_some(), "{case}: no trace");
            let graph = out.report.graph.as_ref().unwrap();
            let nodes = graph.nodes();
            let expect = if name == "Reduce-SP" {
                [
                    ("stage1:chunk-reduce", EventKind::Kernel),
                    ("stage2:final-reduce", EventKind::Kernel),
                ]
            } else {
                [("host:setup", EventKind::Host), ("kernels", EventKind::Kernel)]
            };
            let shape: Vec<_> = nodes.iter().map(|node| (node.label.as_str(), node.kind)).collect();
            assert_eq!(shape, expect, "{case}: nodes");
            assert!(nodes[0].deps.is_empty(), "{case}: the chain starts at zero");
            assert_eq!(nodes[1].deps.iter().map(|d| d.index()).collect::<Vec<_>>(), [0]);
            assert!(nodes.iter().all(|node| node.resources == stream0), "{case}: resources");
            let kernels = nodes[1].meta.counters.expect("kernel nodes carry counters");
            assert!(kernels.launches > 0, "{case}: no launch counted");
            assert_eq!(
                graph.schedule().makespan.to_bits(),
                out.report.makespan.to_bits(),
                "{case}: makespan"
            );
            assert_eq!(
                Breakdown::from_graph(graph),
                Breakdown::from_timeline(&out.report.timeline),
                "{case}: breakdown"
            );
        }
    }
}
