//! In-memory span recorder for the traced run, and its writer in Chrome
//! trace-event JSON (opens in Perfetto and `chrome://tracing`).
//!
//! A disabled tracer records nothing: `begin` returns `None` without
//! reading the clock, so the untraced runs that give the end-to-end
//! numbers pay one branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
struct Span {
    name: &'static str,
    label: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records nested spans (name, start, end, parent) in memory.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, label: String) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned; spans close innermost first.
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// Self time of every span called `name`, in seconds, summed: each
    /// span's duration minus the part its child spans cover.
    pub fn self_time_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let total: u64 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(span, _)| span.name == name)
            .map(|(span, child)| (span.end_ns - span.start_ns).saturating_sub(*child))
            .sum();
        total as f64 * 1e-9
    }

    /// Renders every span as a Chrome trace-event "complete" (`X`) event,
    /// with its parent's index in `args`.
    pub fn to_chrome_json(&self, process_name: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{}\"}}}}",
            escape(process_name)
        );
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"id\":{id},\"parent\":{parent},\"label\":\"{}\"}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(span.name),
                micros(span.start_ns),
                micros(span.end_ns - span.start_ns),
                escape(&span.label),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Nanoseconds as a decimal microsecond count, the trace-event time unit.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
