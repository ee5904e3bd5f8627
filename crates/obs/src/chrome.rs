//! Chrome `trace_event` export and schema lint.
//!
//! Spans export as complete (`"ph":"X"`) events in the [Trace Event
//! Format], one track per (node, proc): `pid` is the protocol node, `tid`
//! the global processor id, timestamps are virtual microseconds. The
//! resulting file loads directly in `chrome://tracing` or Perfetto.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! The lint re-parses an exported document and checks the subset of the
//! schema those viewers rely on; the `obsgate` gate runs it on a real
//! export so a formatting regression fails CI instead of silently producing
//! a file the viewer rejects.

use std::fmt::Write as _;

use crate::json::{self, push_str_escaped, Value};
use crate::span::Span;

/// Renders spans as a Chrome trace_event JSON document.
///
/// `labels` supplies optional `process_name` metadata per node (pass `&[]`
/// to skip). Events are emitted in the given order; viewers sort by
/// timestamp themselves.
#[must_use]
pub fn export(spans: &[Span], labels: &[String]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (node, label) in labels.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\"tid\":0,\"args\":{{\"name\":"
        );
        push_str_escaped(&mut out, label);
        out.push_str("}}");
    }
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
            s.kind.label(),
            micros(s.begin),
            micros(s.dur()),
            s.node,
            s.proc,
        );
        if s.page >= 0 {
            let _ = write!(out, ",\"args\":{{\"page\":{}}}", s.page);
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Virtual nanoseconds to the format's microsecond timestamps, exactly
/// (three decimal places, no float formatting involved).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Validates an exported trace document against the viewer-relevant schema
/// subset. Returns the number of duration events on success.
///
/// Checked: top level is an object with a `traceEvents` array; every event
/// is an object with a string `name` and a string `ph`; `"X"` events carry
/// finite, non-negative numeric `ts`/`dur` and integer `pid`/`tid`.
pub fn lint(doc: &str) -> Result<usize, String> {
    let v = json::parse(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let mut durations = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing string name"))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} ({name}): missing string ph"))?;
        if ph != "X" {
            continue;
        }
        for key in ["ts", "dur"] {
            let n = ev
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i} ({name}): missing numeric {key}"))?;
            if !n.is_finite() || n < 0.0 {
                return Err(format!("event {i} ({name}): {key}={n} out of range"));
            }
        }
        for key in ["pid", "tid"] {
            ev.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("event {i} ({name}): missing integer {key}"))?;
        }
        durations += 1;
    }
    Ok(durations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    fn span(kind: SpanKind, begin: u64, end: u64, page: i64) -> Span {
        Span {
            kind,
            node: 1,
            proc: 3,
            begin,
            end,
            page,
        }
    }

    #[test]
    fn export_passes_its_own_lint() {
        let spans = [
            span(SpanKind::Lock, 1_000, 12_345, 4),
            span(SpanKind::Fault, 2_000, 2_000, -1),
        ];
        let doc = export(&spans, &[String::from("node 0"), String::from("node 1")]);
        assert_eq!(lint(&doc).unwrap(), 2);
        // Timestamps are exact decimal microseconds.
        assert!(doc.contains("\"ts\":1.000"), "{doc}");
        assert!(doc.contains("\"dur\":11.345"), "{doc}");
        assert!(doc.contains("\"args\":{\"page\":4}"), "{doc}");
    }

    #[test]
    fn empty_trace_is_valid() {
        let doc = export(&[], &[]);
        assert_eq!(lint(&doc).unwrap(), 0);
    }

    #[test]
    fn lint_rejects_schema_violations() {
        assert!(lint("not json").is_err());
        assert!(lint("{}").is_err());
        assert!(lint("{\"traceEvents\":{}}").is_err());
        assert!(lint("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(
            lint("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":-1,\"dur\":0,\"pid\":0,\"tid\":0}]}")
                .is_err()
        );
        assert!(
            lint("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"dur\":0,\"pid\":0.5,\"tid\":0}]}")
                .is_err()
        );
    }
}
