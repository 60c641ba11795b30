//! Zero-cost-when-disabled observability for the cuisine workspace.
//!
//! Three primitives, all process-global so instrumented crates never have
//! to thread a context through their APIs:
//!
//! * **Spans** — [`span`] opens a nested, timed region; dropping the
//!   returned guard closes it. Spans form a per-thread tree (a span's
//!   parent is the innermost span still open on the same thread), so a
//!   `table4` run yields a tree like `model[LSTM] → train → epoch[3]`.
//! * **Counters** — monotonically increasing `u64`s declared as statics
//!   at the instrumentation site ([`Counter::new`] is `const`). They
//!   self-register with the global [`MetricsRegistry`] on first use.
//! * **Gauges** — last-value / running-max `u64`s, same lifecycle.
//!
//! # The zero-cost contract
//!
//! Tracing is **off** by default. Every hot-path entry point first does a
//! single `Relaxed` atomic load ([`enabled`]) and returns immediately when
//! tracing is off: no clock reads, no allocation, no locks. Timing-heavy
//! call sites (e.g. the tensor pool's wait accounting) must gate their
//! `Instant::now()` calls on [`enabled`] themselves — the API is designed
//! so the cheap check happens before any expensive measurement.
//!
//! When tracing is **on**, span open/close takes one clock read plus one
//! short-lived lock on the finished-span list at close; counters are a
//! single relaxed `fetch_add`. That is cheap enough to leave instrumented
//! code in release builds permanently.
//!
//! # Snapshots
//!
//! [`snapshot`] freezes the current span tree and metric values into a
//! [`TraceSnapshot`], which renders to deterministic JSON via
//! [`TraceSnapshot::to_json`] (spans in start order, metrics sorted by
//! name). [`write_json`] is the one-call version used by the harness
//! binaries to emit `RUN_trace.json`.
//!
//! ```
//! static REQUESTS: trace::Counter = trace::Counter::new("doc.requests");
//!
//! trace::enable();
//! {
//!     let _span = trace::span("doc.handle");
//!     REQUESTS.incr();
//! }
//! let snap = trace::snapshot();
//! assert!(snap.counter("doc.requests").unwrap() >= 1);
//! assert!(snap.span_total_ns("doc.handle") > 0);
//! ```
//!
//! # The workspace checksum
//!
//! [`crc32`] is the one CRC-32 of the workspace (checkpoint-v2 files,
//! linear-model snapshots and serving wire frames); [`Crc32`] is its
//! running form, which the checkpoint loader folds a file into as it
//! streams. On x86-64 CPUs with `pclmulqdq` and `sse4.1` (detected once,
//! at the first call) [`Crc32::update`] folds each piece of 64 bytes or
//! more with carry-less multiplies, 64 bytes per step, and finishes the
//! piece's last 0-15 bytes with slice-by-8 tables; elsewhere the tables
//! do it all. The two paths give the same value on every input, and the
//! table path is what the fold is tested against. It lives here only
//! because every crate that checks one already depends on `trace`.

#![warn(missing_docs)]

mod crc;
mod json;
mod metrics;
mod span;

pub use crc::{crc32, Crc32};
pub use json::escape as json_escape;
pub use metrics::{Counter, Gauge, MetricKind, MetricValue, MetricsRegistry};
pub use span::{span, SpanGuard, SpanRecord};

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is currently collecting. A single `Relaxed` load — the
/// only cost instrumented code pays when observability is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on. Spans opened before this call are not recorded.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns collection off. Spans already open still record on drop so the
/// tree stays balanced.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Enables tracing when the `CUISINE_TRACE` environment variable is set to
/// anything but `0`/empty. Returns whether tracing ended up enabled.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("CUISINE_TRACE") {
        let v = v.trim();
        if !v.is_empty() && v != "0" {
            enable();
        }
    }
    enabled()
}

/// Clears every recorded span and resets all registered metrics to zero.
/// The enabled flag is left untouched.
pub fn reset() {
    span::reset();
    MetricsRegistry::global().reset();
}

/// A frozen view of the recorded spans and metric values.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Finished spans, in start order.
    pub spans: Vec<SpanRecord>,
    /// `(name, value)` per counter, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(&'static str, u64)>,
}

impl TraceSnapshot {
    /// Total recorded duration of every span named `name`, in nanoseconds.
    pub fn span_total_ns(&self, name: &str) -> u128 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Value of a counter, or `None` if it never registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge, or `None` if it never registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Renders the snapshot as a JSON document: the span tree (children
    /// nested under parents), then counters and gauges as sorted objects.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.spans.len() * 128);
        out.push_str("{\n  \"trace\": \"cuisine-run\",\n  \"spans\": [");
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| {
                self.spans[i]
                    .parent
                    .is_none_or(|p| !self.spans.iter().any(|s| s.id == p))
            })
            .collect();
        for (i, &r) in roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            self.write_span(&mut out, r, 2);
        }
        if roots.is_empty() {
            out.push(']');
        } else {
            out.push_str("\n  ]");
        }
        out.push_str(",\n  \"counters\": {");
        Self::write_metrics(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        Self::write_metrics(&mut out, &self.gauges);
        out.push_str("}\n}\n");
        out
    }

    fn write_metrics(out: &mut String, metrics: &[(&'static str, u64)]) {
        for (i, (name, value)) in metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            out.push_str(&json::escape(name));
            out.push_str("\": ");
            out.push_str(&value.to_string());
        }
        if !metrics.is_empty() {
            out.push_str("\n  ");
        }
    }

    fn write_span(&self, out: &mut String, idx: usize, depth: usize) {
        let pad = "  ".repeat(depth);
        let s = &self.spans[idx];
        out.push_str(&format!(
            "{pad}{{\"name\": \"{}\", \"thread\": \"{}\", \
             \"start_us\": {}, \"dur_us\": {}",
            json::escape(&s.name),
            json::escape(&s.thread),
            s.start_ns / 1_000,
            s.dur_ns / 1_000,
        ));
        let children: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(s.id))
            .collect();
        if children.is_empty() {
            out.push('}');
            return;
        }
        out.push_str(", \"children\": [");
        for (i, &c) in children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            self.write_span(out, c, depth + 1);
        }
        out.push_str(&format!("\n{pad}]}}"));
    }
}

/// Freezes the current spans and metrics into a [`TraceSnapshot`].
pub fn snapshot() -> TraceSnapshot {
    let (counters, gauges) = MetricsRegistry::global().snapshot();
    TraceSnapshot {
        spans: span::finished(),
        counters,
        gauges,
    }
}

/// Writes [`snapshot`]'s JSON to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_json(path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, snapshot().to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Tests share the process-global collector; serialize them.
    pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    static C_DISABLED: Counter = Counter::new("test.lib.disabled");

    #[test]
    fn disabled_collects_nothing() {
        let _x = exclusive();
        disable();
        reset();
        {
            let _s = span("ghost");
            C_DISABLED.add(5);
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.counter("test.lib.disabled").unwrap_or(0), 0);
    }

    #[test]
    fn nested_spans_form_a_tree() {
        let _x = exclusive();
        enable();
        reset();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            let _sibling = span("sibling");
        }
        let snap = snapshot();
        disable();
        assert_eq!(snap.spans.len(), 3);
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = snap.spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        // parent fully covers its children
        assert!(outer.dur_ns >= inner.dur_ns);
        let json = snap.to_json();
        assert!(json.contains("\"name\": \"outer\""));
        assert!(json.contains("\"children\": ["));
    }

    #[test]
    fn snapshot_json_is_well_formed_when_empty() {
        let _x = exclusive();
        disable();
        reset();
        let json = snapshot().to_json();
        assert!(json.contains("\"spans\": []"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn span_total_and_lookup_helpers() {
        let _x = exclusive();
        enable();
        reset();
        {
            let _a = span("work");
        }
        {
            let _b = span("work");
        }
        let snap = snapshot();
        disable();
        assert_eq!(snap.spans.len(), 2);
        assert!(snap.span_total_ns("work") >= snap.spans[0].dur_ns);
        assert_eq!(snap.span_total_ns("absent"), 0);
        assert_eq!(snap.counter("no.such.counter"), None);
    }

    #[test]
    fn init_from_env_respects_zero() {
        let _x = exclusive();
        disable();
        // no env var set in tests → stays disabled
        std::env::remove_var("CUISINE_TRACE");
        assert!(!init_from_env());
        std::env::set_var("CUISINE_TRACE", "0");
        assert!(!init_from_env());
        std::env::set_var("CUISINE_TRACE", "1");
        assert!(init_from_env());
        std::env::remove_var("CUISINE_TRACE");
        disable();
    }
}
