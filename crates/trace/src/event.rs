//! The trace event model and its JSON-lines wire form.
//!
//! One event per line, schema kept deliberately flat and stable — the
//! golden fixture under `tests/golden/trace_events.jsonl` pins it:
//!
//! ```json
//! {"type":"span","id":2,"parent":1,"name":"pipeline.module","detail":"counter_4","thread":"main","start_us":120,"dur_us":4810}
//! {"type":"counter","name":"prob.hits","value":912,"thread":"main"}
//! {"type":"metric","name":"anneal.temp_final","value":0.35,"thread":"main"}
//! ```
//!
//! Keys are always emitted in the order shown; `detail` is omitted when
//! empty. Readers must tolerate unknown keys (additions are
//! backwards-compatible; removals and renames are not).

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed stage span.
    Span {
        /// Unique span id (process-wide, never 0).
        id: u64,
        /// Id of the enclosing span, 0 for roots.
        parent: u64,
        /// Stage name (`pipeline.module`, `anneal`, `route`, …).
        name: String,
        /// Free-form qualifier (module name, worker label); may be empty.
        detail: String,
        /// Attribution label of the emitting thread.
        thread: String,
        /// Start offset in microseconds since the trace epoch.
        start_us: u64,
        /// Wall-clock duration in microseconds.
        dur_us: u64,
    },
    /// A monotonic counter increment (a delta, summed by report folding).
    Counter {
        /// Counter name (`prob.hits`, `route.tracks`, …).
        name: String,
        /// Increment.
        value: u64,
        /// Attribution label of the emitting thread.
        thread: String,
    },
    /// A point-in-time gauge (last value wins in report folding).
    Metric {
        /// Metric name (`anneal.temp_final`, …).
        name: String,
        /// Observed value (always finite).
        value: f64,
        /// Attribution label of the emitting thread.
        thread: String,
    },
}

/// `s` as a JSON string literal, quotes and escapes included.
pub(crate) fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("\"{key}\":{}", quoted(value)));
}

/// Formats an `f64` as a JSON number (shortest round-trip form; callers
/// guarantee finiteness).
pub(crate) fn format_f64(value: f64) -> String {
    debug_assert!(value.is_finite());
    format!("{value}")
}

impl Event {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        match self {
            Event::Span {
                id,
                parent,
                name,
                detail,
                thread,
                start_us,
                dur_us,
            } => {
                push_str_field(&mut out, "type", "span");
                out.push_str(&format!(",\"id\":{id},\"parent\":{parent},"));
                push_str_field(&mut out, "name", name);
                if !detail.is_empty() {
                    out.push(',');
                    push_str_field(&mut out, "detail", detail);
                }
                out.push(',');
                push_str_field(&mut out, "thread", thread);
                out.push_str(&format!(",\"start_us\":{start_us},\"dur_us\":{dur_us}"));
            }
            Event::Counter {
                name,
                value,
                thread,
            } => {
                push_str_field(&mut out, "type", "counter");
                out.push(',');
                push_str_field(&mut out, "name", name);
                out.push_str(&format!(",\"value\":{value},"));
                push_str_field(&mut out, "thread", thread);
            }
            Event::Metric {
                name,
                value,
                thread,
            } => {
                push_str_field(&mut out, "type", "metric");
                out.push(',');
                push_str_field(&mut out, "name", name);
                out.push_str(&format!(",\"value\":{},", format_f64(*value)));
                push_str_field(&mut out, "thread", thread);
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_line_has_stable_key_order() {
        let e = Event::Span {
            id: 2,
            parent: 1,
            name: "pipeline.module".to_owned(),
            detail: "counter_4".to_owned(),
            thread: "main".to_owned(),
            start_us: 120,
            dur_us: 4810,
        };
        assert_eq!(
            e.to_json_line(),
            "{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"pipeline.module\",\
             \"detail\":\"counter_4\",\"thread\":\"main\",\"start_us\":120,\"dur_us\":4810}"
        );
    }

    #[test]
    fn empty_detail_is_omitted() {
        let e = Event::Span {
            id: 1,
            parent: 0,
            name: "root".to_owned(),
            detail: String::new(),
            thread: "main".to_owned(),
            start_us: 0,
            dur_us: 1,
        };
        assert!(!e.to_json_line().contains("detail"));
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::Counter {
            name: "weird\"name\\with\ncontrol\u{1}".to_owned(),
            value: 1,
            thread: "t".to_owned(),
        };
        assert_eq!(
            e.to_json_line(),
            "{\"type\":\"counter\",\"name\":\"weird\\\"name\\\\with\\ncontrol\\u0001\",\
             \"value\":1,\"thread\":\"t\"}"
        );
    }

    #[test]
    fn metric_values_render_as_json_numbers() {
        let e = Event::Metric {
            name: "m".to_owned(),
            value: 0.35,
            thread: "t".to_owned(),
        };
        assert!(e.to_json_line().contains("\"value\":0.35,"));
        let whole = Event::Metric {
            name: "m".to_owned(),
            value: 2.0,
            thread: "t".to_owned(),
        };
        assert!(whole.to_json_line().contains("\"value\":2,"));
    }
}
