//! Chrome-trace (Perfetto-compatible) JSON export.
//!
//! The emitted file loads directly in `chrome://tracing` or
//! <https://ui.perfetto.dev>: each simulated node class becomes a process
//! (clients, middlewares, data sources, control plane), each node an
//! individual thread, and each span an `"X"` complete event stamped in
//! virtual microseconds. The JSON is hand-rolled — the build environment is
//! offline, so no serde — and fully deterministic: spans appear in program
//! order and metadata rows in sorted node order.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::span::{Span, TraceNode};

/// Render spans as a Chrome-trace JSON document.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");

    // Process/thread naming metadata, in sorted node order.
    let mut nodes: Vec<TraceNode> = spans.iter().map(|s| s.id.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut first = true;
    let mut named_classes: Vec<u32> = Vec::new();
    for node in &nodes {
        let pid = node.class.rank();
        if !named_classes.contains(&pid) {
            named_classes.push(pid);
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                node.class.group_name()
            );
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_sort_index\",\
                 \"args\":{{\"sort_index\":{pid}}}}}"
            );
        }
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{node}\"}}}}",
            node.index
        );
    }

    // One complete event per span, in program (deterministic) order.
    for span in spans {
        sep(&mut out, &mut first);
        let parent = match span.parent {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
             \"name\":\"{}\",\"cat\":\"{}\",\"args\":{{\"id\":\"{}\",\
             \"gtrid\":{},\"arg\":{},\"parent\":{parent}}}}}",
            span.id.node.class.rank(),
            span.id.node.index,
            span.start.as_micros(),
            span.duration_micros(),
            span.kind.label(),
            span.kind.label(),
            span.id,
            span.id.gtrid,
            span.arg,
        );
    }

    out.push_str("]}");
    out
}

/// Write spans to `path` as Chrome-trace JSON, creating parent directories.
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_trace_json(spans))
}

/// Render a metrics timeline (snapshots recorded with
/// [`crate::MetricsRegistry::snapshot_to_timeline`]) as CSV — long format,
/// one row per `(snapshot, metric)`, ready for a spreadsheet or a plotting
/// script. Counters and gauges fill `value`; histograms fill `value` with
/// the sample count plus `mean_us`/`p99_us`. Snapshots are already
/// key-sorted, so the bytes are deterministic.
pub fn metrics_timeline_csv(timeline: &[crate::MetricsSnapshot]) -> String {
    use crate::MetricValue;
    let mut out = String::from("at_us,name,label,index,kind,value,mean_us,p99_us\n");
    for snap in timeline {
        let at = snap.at.as_micros();
        for ((name, label, index), value) in &snap.entries {
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{at},{name},{label},{index},counter,{c},,");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{at},{name},{label},{index},gauge,{g},,");
                }
                MetricValue::Histogram { count, mean, p99 } => {
                    let _ = writeln!(
                        out,
                        "{at},{name},{label},{index},histogram,{count},{},{}",
                        mean.as_micros(),
                        p99.as_micros()
                    );
                }
            }
        }
    }
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;
    use crate::tracer::Tracer;
    use geotp_simrt::{sleep, Runtime};
    use std::time::Duration;

    #[test]
    fn export_is_deterministic_and_structurally_sound() {
        let render = || {
            let mut rt = Runtime::new();
            rt.block_on(async {
                let tracer = Tracer::new();
                let root = tracer.start_root(5, TraceNode::middleware(1), SpanKind::Txn, 0);
                let exec = tracer.start_scoped_under(
                    5,
                    TraceNode::data_source(2),
                    SpanKind::AgentExec,
                    0,
                    Some(root),
                );
                sleep(Duration::from_micros(75)).await;
                tracer.end(exec);
                tracer.end(root);
                let json = chrome_trace_json(&tracer.spans());
                json
            })
        };
        let json = render();
        assert_eq!(json, render(), "export must be byte-identical across runs");
        // Structural spot-checks (no JSON parser available offline).
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"process_name\",\"args\":{\"name\":\"middlewares\"}"));
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"ds2\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":75"));
        assert!(json.contains("\"parent\":\"5/dm1#0\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        // Balanced braces — cheap well-formedness proxy.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
