//! Run reports: what a pipeline invocation returns besides the data.

use interconnect::{
    CriticalPathReport, EventKind, ExecGraph, FaultReport, NodeId, NodeMeta, Resource, Timeline,
    Trace, UtilizationReport,
};

use crate::exec::PipelineRun;

/// Timing report of one batch-scan invocation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which proposal produced it (`"Scan-SP"`, `"Scan-MPS"`, …).
    pub label: String,
    /// Total elements processed (`G · N`).
    pub elements: usize,
    /// Phase timeline (simulated seconds), derived from the execution
    /// graph when one was built.
    pub timeline: Timeline,
    /// Scheduled makespan (critical path through the execution graph).
    ///
    /// For barrier-synchronous plans this is bit-identical to
    /// [`Timeline::total`]; with pipelining enabled it can be strictly
    /// smaller.
    pub makespan: f64,
    /// The execution graph the run was scheduled from. Every constructor
    /// sets it; it stays an `Option` for readers that match on it.
    pub graph: Option<ExecGraph>,
}

impl RunReport {
    /// Report for a run whose phases ran back to back on one GPU (a
    /// library or the batch reduction): one node per `(label, kind,
    /// seconds, meta)` phase, each depending on the one before, all on GPU
    /// 0's stream 0. The schedule adds the phases' seconds in order from
    /// zero, the same additions as [`Timeline::total`].
    pub fn from_chain<'a>(
        label: impl Into<String>,
        elements: usize,
        phases: impl IntoIterator<Item = (&'a str, EventKind, f64, NodeMeta)>,
    ) -> Self {
        let mut graph = ExecGraph::new();
        let stream = [Resource::Stream { gpu: 0, stream: 0 }];
        let mut prev: Option<NodeId> = None;
        for (name, kind, seconds, meta) in phases {
            let (p, deps) = (graph.phase(name), prev.as_slice());
            prev = Some(graph.add_with_meta(p, name, kind, seconds, deps, &stream, meta));
        }
        Self::from_run(label, elements, PipelineRun::from_graph(graph))
    }

    /// Report for a run scheduled through an execution graph.
    pub fn from_run(label: impl Into<String>, elements: usize, run: PipelineRun) -> Self {
        RunReport {
            label: label.into(),
            elements,
            timeline: run.timeline,
            makespan: run.makespan,
            graph: Some(run.graph),
        }
    }

    /// Total simulated duration: the scheduled makespan.
    pub fn seconds(&self) -> f64 {
        self.makespan
    }

    /// Throughput in elements per simulated second — the paper's
    /// performance metric.
    pub fn throughput(&self) -> f64 {
        self.elements as f64 / self.seconds()
    }

    /// Throughput in gigabytes per simulated second for the given element
    /// width.
    pub fn throughput_gbs(&self, elem_bytes: usize) -> f64 {
        self.throughput() * elem_bytes as f64 / 1e9
    }
}

/// Handle to a run's execution trace: the scheduled graph wrapped for
/// observability queries and Chrome-trace export.
///
/// Obtained from [`ScanOutput::trace`] (populated when the run was issued
/// through [`crate::ScanRequest`] with tracing enabled) or built on demand
/// from any report that carries an execution graph.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    trace: Trace,
}

impl TraceHandle {
    /// Build a handle by scheduling `graph` (one deterministic pass).
    pub fn from_graph(graph: &ExecGraph) -> Self {
        TraceHandle { trace: Trace::from_graph(graph) }
    }

    /// Render the run as Chrome-trace JSON (load in `chrome://tracing` or
    /// Perfetto).
    pub fn chrome_trace_json(&self) -> String {
        self.trace.chrome_trace_json()
    }

    /// Write the Chrome-trace JSON to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.trace.write_chrome_trace(path)
    }

    /// Per-resource utilization metrics over the scheduled run.
    pub fn utilization(&self) -> UtilizationReport {
        self.trace.utilization()
    }

    /// Critical-path attribution of the makespan.
    pub fn critical_path(&self) -> CriticalPathReport {
        self.trace.critical_path()
    }
}

/// Result of a batch scan: the scanned data plus the timing report, and —
/// for fault-injected or traced runs — the fault record and trace handle.
#[derive(Debug, Clone)]
pub struct ScanOutput<T> {
    /// Scanned batch, same layout as the input (`[g][N]`, problem-major).
    pub data: Vec<T>,
    /// Timing report.
    pub report: RunReport,
    /// What was injected, retried and replanned — `Some` exactly when the
    /// run executed under a [`interconnect::FaultPlan`] (even an empty
    /// one), `None` for a healthy run.
    pub faults: Option<FaultReport>,
    /// Execution trace captured at run time, when tracing was requested
    /// (see [`crate::TraceOptions`]). Use [`ScanOutput::trace`] to get a
    /// handle regardless.
    pub trace: Option<TraceHandle>,
}

impl<T> ScanOutput<T> {
    /// A healthy, untraced output (no fault record, no captured trace).
    pub fn new(data: Vec<T>, report: RunReport) -> Self {
        ScanOutput { data, report, faults: None, trace: None }
    }

    /// The run's execution trace: the captured handle when tracing was
    /// requested, otherwise built on demand from the report's graph.
    pub fn trace(&self) -> Option<TraceHandle> {
        if let Some(t) = &self.trace {
            return Some(t.clone());
        }
        self.report.graph.as_ref().map(TraceHandle::from_graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let k = |name, seconds| (name, EventKind::Kernel, seconds, NodeMeta::default());
        let r = RunReport::from_chain("test", 1_000_000, [k("stage1", 0.5), k("stage3", 0.5)]);
        assert!((r.seconds() - 1.0).abs() < 1e-12);
        assert!((r.throughput() - 1.0e6).abs() < 1e-6);
        assert!((r.throughput_gbs(4) - 0.004).abs() < 1e-12);
    }

    /// A chain schedules to the left-to-right sum of its phases, bit for
    /// bit, and its timeline lists them in order.
    #[test]
    fn chain_is_the_phase_sum() {
        let (a, b, c) = (3.0e-6, 0.1 + 0.2, 1.0 / 3.0);
        let mut tl = Timeline::new();
        for (name, seconds) in [("a", a), ("b", b), ("c", c)] {
            tl.push(name, seconds);
        }
        let phases = [("a", a), ("b", b), ("c", c)]
            .map(|(name, seconds)| (name, EventKind::Host, seconds, NodeMeta::default()));
        let r = RunReport::from_chain("chain", 1, phases);
        assert_eq!(r.makespan.to_bits(), tl.total().to_bits());
        assert_eq!(r.timeline.phases(), tl.phases());
        let deps: Vec<Vec<usize>> = r
            .graph
            .as_ref()
            .unwrap()
            .nodes()
            .iter()
            .map(|n| n.deps.iter().map(|d| d.index()).collect())
            .collect();
        assert_eq!(deps, [vec![], vec![0], vec![1]]);
    }
}
