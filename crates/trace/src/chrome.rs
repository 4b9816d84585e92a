//! Chrome trace-event exporter.
//!
//! Serializes a [`Trace`] into the Chrome trace-event JSON array format:
//! open `chrome://tracing` (or <https://ui.perfetto.dev>), load the file,
//! and every recorded thread appears as its own track with nested spans.
//!
//! Mapping: span begin/end → `"B"`/`"E"` phases, instants → `"i"`
//! (thread-scoped), counters → `"C"`; one `"M"` (metadata) event per
//! thread carries its name. `pid` is always 1, `tid` is the trace's dense
//! thread index, timestamps are microseconds (fractional, from ns).

use std::fmt::Write as _;

use crate::{EventKind, Trace};

/// Renders a [`Trace`] as a Chrome trace-event JSON array.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 + trace.events.len() * 96);
    out.push('[');
    let mut first = true;
    for t in &trace.threads {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            r#"{{"ph":"M","pid":1,"tid":{},"name":"thread_name","args":{{"name":{}}}}}"#,
            t.index,
            json_string(&t.name)
        );
    }
    for e in &trace.events {
        sep(&mut out, &mut first);
        let ts_us = e.ts_ns as f64 / 1000.0;
        let name = json_string(&e.name);
        match e.kind {
            EventKind::SpanBegin => {
                let _ = write!(
                    out,
                    r#"{{"ph":"B","pid":1,"tid":{},"ts":{ts_us},"name":{name},"args":{}}}"#,
                    e.thread,
                    args_json(e.args)
                );
            }
            EventKind::SpanEnd => {
                let _ = write!(
                    out,
                    r#"{{"ph":"E","pid":1,"tid":{},"ts":{ts_us},"name":{name}}}"#,
                    e.thread
                );
            }
            EventKind::Instant => {
                let _ = write!(
                    out,
                    r#"{{"ph":"i","s":"t","pid":1,"tid":{},"ts":{ts_us},"name":{name},"args":{}}}"#,
                    e.thread,
                    args_json(e.args)
                );
            }
            EventKind::Counter => {
                let _ = write!(
                    out,
                    r#"{{"ph":"C","pid":1,"tid":{},"ts":{ts_us},"name":{name},"args":{{"value":{}}}}}"#,
                    e.thread, e.args[0]
                );
            }
        }
    }
    out.push(']');
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

fn args_json(args: [u64; 3]) -> String {
    format!(r#"{{"a0":{},"a1":{},"a2":{}}}"#, args[0], args[1], args[2])
}

/// Escapes a string as a JSON string literal (with quotes). The one JSON
/// string escaper of the engine crates: the metadata plane's JSON dump
/// (`pipes_graph::MetaSnapshot::to_json`) uses it too.
pub fn json_string(s: &str) -> String {
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// --- minimal JSON validator -------------------------------------------------
//
// The workspace has no JSON dependency (offline container), so the CI
// smoke test and the exporter tests validate the output with this small
// recursive-descent parser. It checks well-formedness, not schema.

/// Validates that `input` is a single well-formed JSON value.
pub fn validate_json(input: &str) -> Result<(), String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

const MAX_DEPTH: usize = 64;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".into());
    }
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos, depth + 1)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(|c| c.is_ascii_hexdigit()) {
                                return Err(format!("bad \\u escape at byte {}", *pos));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, ThreadInfo, TraceEvent};

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                TraceEvent {
                    thread: 0,
                    ts_ns: 1500,
                    kind: EventKind::SpanBegin,
                    name: "sched.quantum".into(),
                    args: [3, 0, 0],
                },
                TraceEvent {
                    thread: 0,
                    ts_ns: 2000,
                    kind: EventKind::Instant,
                    name: "graph.flush".into(),
                    args: [128, 2, 7],
                },
                TraceEvent {
                    thread: 0,
                    ts_ns: 2500,
                    kind: EventKind::SpanEnd,
                    name: "sched.quantum".into(),
                    args: [0; 3],
                },
                TraceEvent {
                    thread: 1,
                    ts_ns: 3000,
                    kind: EventKind::Counter,
                    name: "mem.usage".into(),
                    args: [42, 0, 0],
                },
            ],
            threads: vec![
                ThreadInfo {
                    index: 0,
                    name: "worker-0".into(),
                },
                ThreadInfo {
                    index: 1,
                    name: "worker \"1\"\n".into(),
                },
            ],
        }
    }

    #[test]
    fn exporter_emits_valid_json() {
        let json = chrome_trace_json(&sample_trace());
        validate_json(&json).expect("exporter output must be valid JSON");
        assert!(json.contains(r#""ph":"B""#));
        assert!(json.contains(r#""ph":"E""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""ph":"C""#));
        assert!(json.contains(r#""thread_name""#));
        // The tricky thread name survived escaping.
        assert!(json.contains(r#""worker \"1\"\n""#));
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        let json = chrome_trace_json(&Trace::default());
        assert_eq!(json, "[]");
        validate_json(&json).unwrap();
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json(r#"{"a":[1,2.5,-3e4],"b":"xA","c":[true,false,null]}"#).unwrap();
        assert!(validate_json("").is_err());
        assert!(validate_json("[1,2").is_err());
        assert!(validate_json(r#"{"a":}"#).is_err());
        assert!(validate_json("[1,2] junk").is_err());
        assert!(validate_json(r#"{"a":01}"#).is_ok()); // leading zeros tolerated
        assert!(validate_json("\"unterminated").is_err());
    }
}
