//! Run reports: what a pipeline invocation returns besides the data.

use interconnect::{
    CriticalPathReport, ExecGraph, FaultReport, Timeline, Trace, UtilizationReport,
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
    /// The execution graph the run was scheduled from, when the proposal
    /// builds one (the reduce and baseline paths only record a timeline).
    pub graph: Option<ExecGraph>,
}

impl RunReport {
    /// Report for a run that only recorded a phase timeline (no execution
    /// graph): the makespan is the phase sum.
    pub fn from_timeline(label: impl Into<String>, elements: usize, timeline: Timeline) -> Self {
        let makespan = timeline.total();
        RunReport { label: label.into(), elements, timeline, makespan, graph: None }
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
    /// `None` only for proposals that record a bare timeline (no graph).
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
        let mut tl = Timeline::new();
        tl.push("stage1", 0.5);
        tl.push("stage3", 0.5);
        let r = RunReport::from_timeline("test", 1_000_000, tl);
        assert!((r.seconds() - 1.0).abs() < 1e-12);
        assert!((r.throughput() - 1.0e6).abs() < 1e-6);
        assert!((r.throughput_gbs(4) - 0.004).abs() < 1e-12);
        assert!(r.graph.is_none());
    }
}
