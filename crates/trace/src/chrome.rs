//! Chrome-trace JSON export (`chrome://tracing` / Perfetto "JSON Array
//! Format") plus the minimal schema validator the CI trace-smoke step
//! runs against the exported artifact.

use crate::{EventKind, TraceEvent, TraceRecording};
use std::fmt::Write as _;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// An `f64` as a JSON number. JSON has no literal for a non-finite
/// value (an `sla_us: +inf` run has an infinite remaining budget), so
/// those are written `null`.
struct Num(f64);

impl std::fmt::Display for Num {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

fn event_name(e: &TraceEvent, labels: &[String]) -> String {
    match e.kind {
        EventKind::Enqueue => format!("enqueue q{}", e.id),
        EventKind::BatchFormed => format!("batch {} formed", e.id),
        EventKind::RouteDecision => {
            let label = labels
                .get(e.chosen.max(0) as usize)
                .map(String::as_str)
                .unwrap_or("?");
            format!("route b{} -> {}", e.id, label)
        }
        EventKind::Scatter => format!("scatter b{} -> n{}", e.id, e.node),
        EventKind::Execute => format!("execute b{}", e.id),
        EventKind::NodeExecute => format!("execute b{} @ n{}", e.id, e.node),
        EventKind::Retry => format!("retry b{} (n{} failed)", e.id, e.node),
        EventKind::Merge => format!("merge b{}", e.id),
        EventKind::Complete => format!("complete q{}", e.id),
        EventKind::EpochBarrier => format!("epoch {} barrier", e.b),
        EventKind::WarmStart => format!("warm-start n{}", e.node),
        EventKind::MigrationStart => format!("migration window n{}", e.node),
        EventKind::MigrationDone => format!("migration chunk -> n{}", e.node),
        EventKind::Timeout => format!("timeout b{} @ n{}", e.id, e.node),
        EventKind::Hedge => format!("hedge b{} -> n{}", e.id, e.node),
        EventKind::Shed => format!("shed q{}", e.id),
    }
}

fn event_args(e: &TraceEvent, labels: &[String]) -> String {
    let mut args = String::from("{");
    match e.kind {
        EventKind::Enqueue => {
            let _ = write!(args, "\"query\":{},\"samples\":{}", e.id, e.a);
        }
        EventKind::BatchFormed => {
            let _ = write!(
                args,
                "\"batch\":{},\"queries\":{},\"samples\":{},\"oldest_arrival_us\":{}",
                e.id, e.a, e.b, Num(e.arg)
            );
        }
        EventKind::RouteDecision => {
            let _ = write!(
                args,
                "\"batch\":{},\"epoch\":{},\"sla_remaining_us\":{},\"chosen\":{},\"costs\":{{",
                e.id, e.b, Num(e.arg), e.chosen
            );
            let mut first = true;
            for (idx, cost) in e.costs.iter().enumerate() {
                if !cost.is_finite() || idx >= labels.len() {
                    continue;
                }
                if !first {
                    args.push(',');
                }
                first = false;
                let _ = write!(args, "\"{}\":{}", esc(&labels[idx]), cost);
            }
            args.push('}');
        }
        EventKind::Scatter => {
            let _ = write!(args, "\"batch\":{},\"node\":{},\"epoch\":{}", e.id, e.node, e.b);
        }
        EventKind::Execute => {
            let _ = write!(args, "\"batch\":{},\"epoch\":{},\"done_us\":{}", e.id, e.b, Num(e.arg));
        }
        EventKind::NodeExecute => {
            let _ = write!(
                args,
                "\"batch\":{},\"node\":{},\"samples\":{},\"static_hits\":{},\"dynamic_hits\":{},\"disk_hits\":{},\"misses\":{}",
                e.id, e.node, e.a, e.counts[0], e.counts[1], e.counts[2], e.counts[3]
            );
        }
        EventKind::Retry => {
            let _ = write!(args, "\"batch\":{},\"failed_node\":{},\"new_epoch\":{}", e.id, e.node, e.b);
        }
        EventKind::Merge => {
            let _ = write!(args, "\"batch\":{},\"samples\":{}", e.id, e.a);
        }
        EventKind::Complete => {
            let _ = write!(args, "\"query\":{},\"batch\":{},\"latency_us\":{}", e.id, e.b, Num(e.arg));
        }
        EventKind::EpochBarrier => {
            let _ = write!(
                args,
                "\"new_epoch\":{},\"node\":{},\"kind\":\"{}\"",
                e.b,
                e.node,
                if e.a == 1 { "join" } else { "fail" }
            );
        }
        EventKind::WarmStart => {
            let _ = write!(args, "\"node\":{},\"entries\":{},\"new_epoch\":{}", e.node, e.a, e.b);
        }
        EventKind::MigrationStart => {
            let _ = write!(
                args,
                "\"node\":{},\"features_pending\":{},\"new_epoch\":{}",
                e.node, e.a, e.b
            );
        }
        EventKind::MigrationDone => {
            let _ = write!(
                args,
                "\"node\":{},\"entries\":{},\"new_epoch\":{},\"features\":{}",
                e.node, e.a, e.b, e.arg as u64
            );
        }
        EventKind::Timeout => {
            let _ = write!(
                args,
                "\"batch\":{},\"node\":{},\"attempt\":{},\"timeout_us\":{}",
                e.id, e.node, e.a, Num(e.arg)
            );
        }
        EventKind::Hedge => {
            let _ = write!(args, "\"batch\":{},\"primary\":{},\"target\":{}", e.id, e.a, e.node);
        }
        EventKind::Shed => {
            let _ = write!(args, "\"query\":{},\"samples\":{},\"backlog_us\":{}", e.id, e.a, Num(e.arg));
        }
    }
    args.push('}');
    args
}

/// Render a recording as Chrome-trace "JSON Array Format": one `tid`
/// per track (named via metadata events), `ph:"X"` complete spans for
/// execution windows, `ph:"i"` instants for the rest. Within each
/// track, events are emitted sorted by virtual timestamp (stable on
/// recording order), so per-track `ts` sequences in the file are
/// monotonic — the property [`validate_chrome_json`] checks.
///
/// Timestamps are virtual microseconds, which is exactly the `ts` unit
/// the trace viewer expects.
pub fn chrome_trace_json(rec: &TraceRecording) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for (tid, track) in rec.tracks.iter().enumerate() {
        push(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                tid,
                esc(&track.name)
            ),
        );
        let mut order: Vec<usize> = (0..track.events.len()).collect();
        order.sort_by(|&x, &y| {
            track.events[x].t_us.total_cmp(&track.events[y].t_us).then(x.cmp(&y))
        });
        for i in order {
            let e = &track.events[i];
            let name = esc(&event_name(e, &rec.path_labels));
            let cat = e.kind.label();
            let args = event_args(e, &rec.path_labels);
            let line = match e.kind {
                EventKind::Execute | EventKind::NodeExecute => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{args}}}",
                    Num(e.t_us),
                    Num((e.arg - e.t_us).max(0.0))
                ),
                _ => format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"args\":{args}}}",
                    Num(e.t_us)
                ),
            };
            push(&mut out, line);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Counters extracted by [`validate_chrome_json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChromeSummary {
    /// Non-metadata trace events in the file.
    pub events: usize,
    /// Events whose category is `route_decision`.
    pub route_decisions: usize,
    /// Distinct `tid` values seen.
    pub tracks: usize,
}

fn scan_syntax(json: &str) -> Result<(), String> {
    let mut depth: Vec<u8> = Vec::new();
    let mut in_str = false;
    let mut escaped = false;
    // Start of the run of letters being scanned outside a string. The
    // only legal ones are JSON's three literals and a number's exponent
    // mark: a bare `inf` / `NaN` (what `{}` prints for a non-finite
    // `f64`) is not JSON, though `str::parse::<f64>` accepts it. The
    // chained space ends a word the input ends on.
    let mut word: Option<usize> = None;
    for (pos, c) in json.char_indices().chain([(json.len(), ' ')]) {
        if !in_str && c.is_ascii_alphabetic() {
            word.get_or_insert(pos);
            continue;
        }
        if let Some(start) = word.take() {
            let w = &json[start..pos];
            if !matches!(w, "true" | "false" | "null" | "e" | "E") {
                return Err(format!("bare token '{w}' at byte {start}"));
            }
        }
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth.push(b'{'),
            '[' => depth.push(b'['),
            '}' if depth.pop() != Some(b'{') => {
                return Err(format!("unbalanced '}}' at byte {pos}"));
            }
            ']' if depth.pop() != Some(b'[') => {
                return Err(format!("unbalanced ']' at byte {pos}"));
            }
            _ => {}
        }
    }
    if in_str {
        return Err("unterminated string".into());
    }
    if !depth.is_empty() {
        return Err(format!("{} unclosed bracket(s)", depth.len()));
    }
    Ok(())
}

/// Find `"key":` inside one event object and parse the literal that
/// follows (number or quoted string). Returns the raw literal.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = obj[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest
            .find(|c: char| c == ',' || c == '}' || c == '{' || c.is_whitespace())
            .unwrap_or(rest.len());
        Some(&rest[..end])
    }
}

/// Minimal schema check for an exported Chrome trace, per the CI
/// trace-smoke contract: syntactically valid JSON (balanced structure,
/// well-formed strings, no bare `inf` / `NaN` where a number goes), a
/// `traceEvents` array, **monotonic virtual timestamps per track** (`ts`
/// non-decreasing per `tid` in file order), and at least one
/// route-decision event. Returns extraction counters on success.
pub fn validate_chrome_json(json: &str) -> Result<ChromeSummary, String> {
    scan_syntax(json)?;
    if !json.trim_start().starts_with('{') {
        return Err("top level is not an object".into());
    }
    let arr_at = json.find("\"traceEvents\"").ok_or("missing traceEvents key")?;
    let arr_open = json[arr_at..].find('[').ok_or("traceEvents is not an array")? + arr_at;

    let mut sum = ChromeSummary::default();
    let mut last_ts: Vec<(u64, f64)> = Vec::new(); // (tid, last ts)
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut obj_start = 0usize;
    let bytes = &json[arr_open..];
    for (pos, c) in bytes.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                if depth == 1 {
                    obj_start = pos;
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 1 {
                    let obj = &bytes[obj_start..=pos];
                    let ph = field(obj, "ph").unwrap_or("");
                    if ph == "M" {
                        continue;
                    }
                    sum.events += 1;
                    if field(obj, "cat") == Some("route_decision") {
                        sum.route_decisions += 1;
                    }
                    let tid: u64 = field(obj, "tid")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("event {} missing tid", sum.events))?;
                    let ts: f64 = field(obj, "ts")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("event {} missing ts", sum.events))?;
                    if !ts.is_finite() {
                        return Err(format!("event {}: non-finite ts", sum.events));
                    }
                    match last_ts.iter_mut().find(|(t, _)| *t == tid) {
                        Some((_, last)) => {
                            if ts < *last {
                                return Err(format!(
                                    "tid {tid}: ts {ts} regressed below {last} (event {})",
                                    sum.events
                                ));
                            }
                            *last = ts;
                        }
                        None => last_ts.push((tid, ts)),
                    }
                }
            }
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
    }
    sum.tracks = last_ts.len();
    if sum.route_decisions == 0 {
        return Err("no route-decision events in trace".into());
    }
    Ok(sum)
}

// Recording-dependent tests: compiled out with the record path
// itself (`--no-default-features` must build *and* test clean).
#[cfg(all(test, feature = "recorder"))]
mod tests {
    use super::*;
    use crate::EventRing;

    fn sample_recording() -> TraceRecording {
        let mut rec = TraceRecording::new(vec!["table@CPU".into(), "hybrid@GPU".into()]);
        let mut disp = EventRing::with_capacity(32);
        disp.record(TraceEvent::enqueue(1.0, 10, 2));
        disp.record(TraceEvent::batch_formed(4.0, 0, 1, 2, 1.0));
        disp.record(TraceEvent::route_decision(4.0, 0, 2, 0, 96.0, 1, &[50.0, 20.0]));
        disp.record(TraceEvent::execute(4.0, 0, 0, 24.0));
        disp.record(TraceEvent::complete(24.0, 10, 0, 23.0));
        rec.push_ring("dispatcher", disp);
        let mut node = EventRing::with_capacity(8);
        node.record(TraceEvent::node_execute(4.0, 0, 1, 2, 24.0, [1, 1, 0, 2]));
        rec.push_ring("node-1", node);
        rec
    }

    #[test]
    fn export_validates_end_to_end() {
        let rec = sample_recording();
        let json = chrome_trace_json(&rec);
        let sum = validate_chrome_json(&json).expect("valid export");
        assert_eq!(sum.events, 6);
        assert_eq!(sum.route_decisions, 1);
        assert_eq!(sum.tracks, 2);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("route b0 -> hybrid@GPU"));
        // Rejected candidate's cost rides along in args.
        assert!(json.contains("\"table@CPU\":50"));
    }

    #[test]
    fn export_sorts_out_of_order_stamps_per_track() {
        let mut rec = TraceRecording::new(vec!["table".into()]);
        let mut ring = EventRing::with_capacity(8);
        // Completion-domain stamp precedes a later enqueue in recording
        // order; the exporter must still emit monotonic ts per track.
        ring.record(TraceEvent::route_decision(5.0, 0, 1, 0, 10.0, 0, &[7.0]));
        ring.record(TraceEvent::complete(30.0, 1, 0, 29.0));
        ring.record(TraceEvent::enqueue(6.0, 2, 1));
        rec.push_ring("dispatcher", ring);
        let json = chrome_trace_json(&rec);
        validate_chrome_json(&json).expect("sorted export is monotonic");
    }

    #[test]
    fn export_writes_non_finite_numbers_as_null() {
        // `sla_us: f64::INFINITY` ("no SLA") leaves every route decision
        // an infinite remaining budget.
        let mut rec = TraceRecording::new(vec!["table".into()]);
        let mut ring = EventRing::with_capacity(4);
        ring.record(TraceEvent::route_decision(5.0, 0, 1, 0, f64::INFINITY, 0, &[7.0]));
        ring.record(TraceEvent::complete(9.0, 1, 0, f64::NAN));
        rec.push_ring("dispatcher", ring);
        let json = chrome_trace_json(&rec);
        assert!(json.contains("\"sla_remaining_us\":null"), "{json}");
        assert!(json.contains("\"latency_us\":null"), "{json}");
        validate_chrome_json(&json).expect("no bare inf / NaN in the export");
    }

    #[test]
    fn validator_rejects_bare_non_finite_tokens() {
        let with = |ts: &str, remaining: &str| {
            format!(
                "{{\"traceEvents\":[{{\"ph\":\"i\",\"cat\":\"route_decision\",\"tid\":0,\
                 \"ts\":{ts},\"args\":{{\"sla_remaining_us\":{remaining},\"note\":\"inf NaN\"}}}}]}}"
            )
        };
        validate_chrome_json(&with("5.0", "1e3")).expect("letters in strings and exponents are fine");
        validate_chrome_json(&with("5.0", "null")).expect("null is JSON");
        for (ts, remaining) in [("inf", "1"), ("5.0", "inf"), ("5.0", "-inf"), ("5.0", "NaN")] {
            let err = validate_chrome_json(&with(ts, remaining)).unwrap_err();
            assert!(err.contains("bare token"), "ts {ts}, remaining {remaining}: {err}");
        }
    }

    #[test]
    fn validator_rejects_broken_json_and_regressed_ts() {
        assert!(validate_chrome_json("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_json("not json").is_err());
        let regressed = "{\"traceEvents\":[\
            {\"ph\":\"i\",\"cat\":\"route_decision\",\"tid\":0,\"ts\":5.0},\
            {\"ph\":\"i\",\"cat\":\"enqueue\",\"tid\":0,\"ts\":4.0}]}";
        let err = validate_chrome_json(regressed).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        let no_route = "{\"traceEvents\":[{\"ph\":\"i\",\"cat\":\"enqueue\",\"tid\":0,\"ts\":4.0}]}";
        assert!(validate_chrome_json(no_route).is_err());
    }
}
