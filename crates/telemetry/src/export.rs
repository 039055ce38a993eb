//! Trace exporters: Chrome trace-event JSON, JSONL dumps, the
//! [`JsonWriter`] every JSON reply is built with, and a well-formedness
//! check over the [`crate::json`] reader used by the round-trip tests.
//!
//! All exporters are deterministic: they serialize nothing but the
//! cycle-stamped events handed to them, in order, with stable field
//! ordering — identical runs produce byte-identical files.

use crate::event::{Event, Stamped};
use crate::json::{Json, JsonError};

/// Renders events as a Chrome trace-event JSON object
/// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` and
/// Perfetto. Cycle counts are used directly as the microsecond `ts`
/// field — "1 µs" in the viewer is one core cycle.
///
/// Phase residency and gated-off intervals become duration (`B`/`E`)
/// events on dedicated tracks; everything else is an instant event.
#[must_use]
pub fn chrome_trace_json(events: &[Stamped]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for s in events {
        let (ph, tid) = match s.event {
            Event::PhaseEnter { .. } => ("B", 1),
            Event::PhaseExit { .. } => ("E", 1),
            // A unit's gated-off interval is a span on its own track.
            Event::GateOff { unit, .. } => ("B", 2 + unit.index() as u32),
            Event::GateOn { unit, .. } => ("E", 2 + unit.index() as u32),
            _ => ("i", 0),
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"");
        out.push_str(span_name(&s.event));
        out.push_str("\",\"cat\":\"");
        out.push_str(s.event.category());
        out.push_str("\",\"ph\":\"");
        out.push_str(ph);
        out.push_str("\",\"ts\":");
        out.push_str(&s.cycle.to_string());
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&tid.to_string());
        if ph == "i" {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":");
        push_args(&mut out, &s.event);
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Renders events as one JSON object per line.
#[must_use]
pub fn jsonl(events: &[Stamped]) -> String {
    let mut out = String::with_capacity(events.len() * 80);
    for s in events {
        out.push_str("{\"cycle\":");
        out.push_str(&s.cycle.to_string());
        out.push_str(",\"cat\":\"");
        out.push_str(s.event.category());
        out.push_str("\",\"name\":\"");
        out.push_str(s.event.name());
        out.push_str("\",\"args\":");
        push_args(&mut out, &s.event);
        out.push_str("}\n");
    }
    out
}

/// The Chrome `name` field: `B`/`E` pairs must share a name, so spans
/// use their track's name rather than the enter/exit event name.
fn span_name(ev: &Event) -> &'static str {
    match ev {
        Event::PhaseEnter { .. } | Event::PhaseExit { .. } => "phase",
        Event::GateOff { unit, .. } | Event::GateOn { unit, .. } => match unit.index() {
            0 => "vpu_off",
            1 => "bpu_off",
            _ => "mlc_gated",
        },
        _ => ev.name(),
    }
}

/// Appends the event's payload as a JSON object. Only integers and
/// fixed labels — nothing here can need escaping.
fn push_args(out: &mut String, ev: &Event) {
    use std::fmt::Write as _;
    match ev {
        Event::PhaseEnter { sig }
        | Event::PvtHit { sig }
        | Event::PvtMiss { sig }
        | Event::PvtEvict { sig }
        | Event::CdeProfileStart { sig }
        | Event::DegradeAnomaly { sig }
        | Event::DegradeFailSafe { sig } => {
            let _ = write!(out, "{{\"sig\":\"{sig:016x}\"}}");
        }
        Event::PhaseExit { sig, windows } => {
            let _ = write!(out, "{{\"sig\":\"{sig:016x}\",\"windows\":{windows}}}");
        }
        Event::CdeVerdict { sig, policy } | Event::DegradeRepin { sig, policy } => {
            let _ = write!(
                out,
                "{{\"sig\":\"{sig:016x}\",\"policy\":{policy},\"vpu_on\":{},\"bpu_on\":{}}}",
                policy & 1,
                (policy >> 1) & 1
            );
        }
        Event::GateOn { unit, wake_stall } => {
            let _ = write!(
                out,
                "{{\"unit\":\"{}\",\"wake_stall\":{wake_stall}}}",
                unit.label()
            );
        }
        Event::GateOff { unit, stall } => {
            let _ = write!(out, "{{\"unit\":\"{}\",\"stall\":{stall}}}", unit.label());
        }
        Event::FaultDelivered { kind } => {
            let _ = write!(out, "{{\"kind\":\"{}\"}}", Event::fault_kind_label(*kind));
        }
        Event::CheckpointWritten { retired } => {
            let _ = write!(out, "{{\"retired\":{retired}}}");
        }
        Event::TranslationInstalled { id, guest_len } => {
            let _ = write!(out, "{{\"id\":{id},\"guest_len\":{guest_len}}}");
        }
        Event::RegionInvalidated { dropped } => {
            let _ = write!(out, "{{\"dropped\":{dropped}}}");
        }
        Event::JitCompiled { id, code_bytes } => {
            let _ = write!(out, "{{\"id\":{id},\"code_bytes\":{code_bytes}}}");
        }
    }
}

/// Appends `s` to `out` as a JSON string literal, quotes included,
/// escaping everything RFC 8259 requires (quote, backslash, and control
/// characters). Shared by every hand-built JSON emitter in the repo so a
/// benchmark name or label with special characters can never produce an
/// invalid document.
pub fn push_json_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders `s` as a JSON string literal (quotes included, escaped).
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// An incremental, escaping-safe writer for one flat JSON object or
/// array. Field order is insertion order, so output is deterministic;
/// nested structure is composed by rendering the inner writer first and
/// splicing it in with [`JsonWriter::field_raw`] / [`JsonWriter::push_raw`].
#[derive(Debug)]
pub struct JsonWriter {
    buf: String,
    first: bool,
    close: char,
}

impl JsonWriter {
    /// Starts a JSON object (`{...}`).
    #[must_use]
    pub fn object() -> Self {
        JsonWriter {
            buf: String::from("{"),
            first: true,
            close: '}',
        }
    }

    /// Starts a JSON array (`[...]`).
    #[must_use]
    pub fn array() -> Self {
        JsonWriter {
            buf: String::from("["),
            first: true,
            close: ']',
        }
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.buf.push(',');
        }
    }

    fn key(&mut self, key: &str) {
        self.sep();
        push_json_str(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Appends a string field, escaping the value.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        push_json_str(&mut self.buf, value);
    }

    /// Appends an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) {
        use std::fmt::Write as _;
        self.key(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Appends a signed integer field.
    pub fn field_i64(&mut self, key: &str, value: i64) {
        use std::fmt::Write as _;
        self.key(key);
        let _ = write!(self.buf, "{value}");
    }

    /// Appends a float field with `precision` fractional digits.
    /// Non-finite values render as `null` (JSON has no NaN/Inf).
    pub fn field_f64(&mut self, key: &str, value: f64, precision: usize) {
        use std::fmt::Write as _;
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value:.precision$}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Appends a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Appends a field whose value is already-rendered JSON
    /// (a nested [`JsonWriter::finish`] result, or a literal).
    pub fn field_raw(&mut self, key: &str, raw: &str) {
        self.key(key);
        self.buf.push_str(raw);
    }

    /// Appends an already-rendered JSON value to an array.
    pub fn push_raw(&mut self, raw: &str) {
        self.sep();
        self.buf.push_str(raw);
    }

    /// Appends a float element to an array with `precision` fractional
    /// digits. Non-finite values render as `null`, exactly like
    /// [`JsonWriter::field_f64`] — `NaN`/`inf` must never leak into a
    /// document (RFC 8259 has no spelling for them).
    pub fn push_f64_elem(&mut self, value: f64, precision: usize) {
        use std::fmt::Write as _;
        self.sep();
        if value.is_finite() {
            let _ = write!(self.buf, "{value:.precision$}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Appends a string element to an array, escaping it.
    pub fn push_str_elem(&mut self, value: &str) {
        self.sep();
        push_json_str(&mut self.buf, value);
    }

    /// Closes the container and returns the rendered JSON.
    #[must_use]
    pub fn finish(mut self) -> String {
        self.buf.push(self.close);
        self.buf
    }
}

/// Checks that `text` is one well-formed JSON value by reading it with
/// the same strict parser clients use ([`Json::parse`]), so a document
/// that passes here is one every client can read. This is the
/// "round-trips through a JSON parser" half of the exporter tests.
///
/// # Errors
///
/// Returns the first [`JsonError`] encountered.
pub fn validate_json(text: &str) -> Result<(), JsonError> {
    Json::parse(text).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Unit;

    fn sample_events() -> Vec<Stamped> {
        vec![
            Stamped {
                cycle: 10,
                event: Event::PhaseEnter { sig: 0xAB },
            },
            Stamped {
                cycle: 20,
                event: Event::GateOff {
                    unit: Unit::Vpu,
                    stall: 530,
                },
            },
            Stamped {
                cycle: 900,
                event: Event::FaultDelivered { kind: 1 },
            },
            Stamped {
                cycle: 1000,
                event: Event::GateOn {
                    unit: Unit::Vpu,
                    wake_stall: 530,
                },
            },
            Stamped {
                cycle: 1500,
                event: Event::PhaseExit {
                    sig: 0xAB,
                    windows: 3,
                },
            },
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_pairs_and_categories() {
        let json = chrome_trace_json(&sample_events());
        validate_json(&json).expect("chrome trace must be well-formed");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"cat\":\"phase\""));
        assert!(json.contains("\"cat\":\"gating\""));
        assert!(json.contains("\"cat\":\"faults\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let text = jsonl(&sample_events());
        assert_eq!(text.lines().count(), 5);
        for line in text.lines() {
            validate_json(line).expect("each JSONL line parses");
        }
    }

    #[test]
    fn empty_event_list_exports_cleanly() {
        let json = chrome_trace_json(&[]);
        validate_json(&json).expect("empty trace parses");
        assert_eq!(jsonl(&[]), "");
    }

    #[test]
    fn json_writer_escapes_and_validates() {
        let mut inner = JsonWriter::array();
        inner.push_str_elem("plain");
        inner.push_str_elem("quote\" slash\\ ctrl\u{01}\n");
        inner.push_raw("42");
        let mut w = JsonWriter::object();
        w.field_str("name", "bench \"x\"\t");
        w.field_u64("count", 7);
        w.field_i64("delta", -3);
        w.field_f64("ratio", 0.5, 3);
        w.field_f64("bad", f64::NAN, 3);
        w.field_bool("ok", true);
        w.field_raw("items", &inner.finish());
        let out = w.finish();
        validate_json(&out).expect("writer output parses");
        assert!(out.contains("\"name\":\"bench \\\"x\\\"\\t\""));
        assert!(out.contains("\"bad\":null"));
        assert!(out.contains("\\u0001"));
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(JsonWriter::object().finish(), "{}");
        assert_eq!(JsonWriter::array().finish(), "[]");
    }

    #[test]
    fn non_finite_floats_never_leak_into_json() {
        // Writer side: NaN/±inf must render as `null` in both field and
        // array-element position.
        let mut arr = JsonWriter::array();
        arr.push_f64_elem(1.5, 3);
        arr.push_f64_elem(f64::NAN, 3);
        arr.push_f64_elem(f64::INFINITY, 3);
        arr.push_f64_elem(f64::NEG_INFINITY, 3);
        let rendered = arr.finish();
        assert_eq!(rendered, "[1.500,null,null,null]");
        validate_json(&rendered).expect("array with nulled non-finites parses");
        let mut obj = JsonWriter::object();
        obj.field_f64("inf", f64::INFINITY, 6);
        obj.field_f64("neg_inf", f64::NEG_INFINITY, 6);
        obj.field_f64("nan", f64::NAN, 6);
        let rendered = obj.finish();
        assert_eq!(rendered, "{\"inf\":null,\"neg_inf\":null,\"nan\":null}");
        validate_json(&rendered).expect("object with nulled non-finites parses");

        // Validator side: the common non-finite spellings (what `{}`
        // formatting of a raw f64 would have produced) are rejected with
        // an error naming the actual bug, at any nesting depth.
        for bad in [
            "NaN",
            "-NaN",
            "Infinity",
            "-Infinity",
            "inf",
            "-inf",
            "[1,NaN]",
            "{\"x\":Infinity}",
            "{\"x\":[0.5,-inf]}",
        ] {
            let err = validate_json(bad).expect_err(bad);
            assert!(
                err.message.contains("non-finite"),
                "{bad}: wrong diagnosis: {err}"
            );
        }
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "\"a\\u00e9\"",
            "{\"a\":[1,2,{\"b\":false}]}",
            "  [1, 2]  ",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        let too_deep = format!("{}0{}", "[".repeat(33), "]".repeat(33));
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "01",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "truth",
            "\"\\ud83d\"",
            "1e999",
            too_deep.as_str(),
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
