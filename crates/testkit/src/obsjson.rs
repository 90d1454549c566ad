//! Schema validation for the observability outputs of `twigm-obs` and
//! the CLI: `--stats=json` reports (`twigm-stats-v1`), JSONL transition
//! traces, and Chrome trace-event files.
//!
//! The workspace has no `serde`, so this module carries its own small
//! JSON reader — the counterpart to the writer in `twigm-obs::json` —
//! plus validators that check both *shape* (required fields, types) and
//! *semantics*: `work` must equal the sum of its parts, span opens must
//! balance closes, and `peak_entries` must respect the paper's
//! `|Q| · R` bound when the report carries both factors. The
//! `testkit-fuzz --validate-stats/--validate-trace` flags expose these
//! checks to shell scripts (the CI `obs-smoke` stage).

use std::collections::HashMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", c as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        // Surrogates don't appear in our writers' output.
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not a non-negative integer"))
}

fn opt_u64_field(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    match field(obj, key)? {
        Json::Null => Ok(None),
        v => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` is neither integer nor null")),
    }
}

/// Validates one `twigm-stats-v1` JSON report: all required fields with
/// the right types, plus the semantic invariants (`work` is the sum of
/// its parts, `qr_bound = machine_size · max_depth`, and
/// `peak_entries ≤ qr_bound` — Theorem 4.4).
pub fn validate_stats(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let schema = field(&doc, "schema")?
        .as_str()
        .ok_or("`schema` is not a string")?;
    if schema != "twigm-stats-v1" {
        return Err(format!("unknown schema `{schema}`"));
    }
    field(&doc, "engine")?
        .as_str()
        .ok_or("`engine` is not a string")?;
    field(&doc, "duration_secs")?
        .as_f64()
        .ok_or("`duration_secs` is not a number")?;
    field(&doc, "events_per_sec")?
        .as_f64()
        .ok_or("`events_per_sec` is not a number")?;
    for key in ["bytes_per_sec", "time_to_first_result_secs"] {
        match field(&doc, key)? {
            Json::Null => {}
            v => {
                v.as_f64()
                    .ok_or_else(|| format!("`{key}` is neither number nor null"))?;
            }
        }
    }
    let counters = [
        "events",
        "start_events",
        "end_events",
        "qualification_probes",
        "pushes",
        "pops",
        "upload_probes",
        "candidates_merged",
        "peak_entries",
        "peak_candidates",
        "results",
        "tuples_materialized",
        "work",
    ];
    let mut v: HashMap<&str, u64> = HashMap::new();
    for key in counters {
        v.insert(key, u64_field(&doc, key)?);
    }
    for key in [
        "bytes",
        "skipped_events",
        "skipped_bytes",
        "machine_size",
        "max_depth",
        "qr_bound",
        "first_result_event",
        "bytes_to_first_result",
    ] {
        opt_u64_field(&doc, key)?;
    }
    match field(&doc, "histograms")? {
        Json::Null | Json::Obj(_) => {}
        _ => return Err("`histograms` is neither object nor null".into()),
    }
    // The pipeline block (absent in pre-`--threads` reports, null for
    // serial runs) carries the batch/queue accounting of a pipelined
    // run; the producer delivers or filters every event it scans.
    match doc.get("pipeline") {
        None | Some(Json::Null) => {}
        Some(p @ Json::Obj(_)) => {
            let mut pv: HashMap<&str, u64> = HashMap::new();
            for key in [
                "threads",
                "batches",
                "events_scanned",
                "events_delivered",
                "events_filtered",
                "producer_stalls",
                "consumer_stalls",
                "max_queue_depth",
                "bytes",
            ] {
                pv.insert(
                    key,
                    u64_field(p, key).map_err(|m| format!("pipeline: {m}"))?,
                );
            }
            if pv["threads"] < 2 {
                return Err(format!(
                    "pipeline reports {} thread(s); a pipelined run has at least 2",
                    pv["threads"]
                ));
            }
            if pv["events_delivered"] + pv["events_filtered"] != pv["events_scanned"] {
                return Err(format!(
                    "pipeline events_delivered {} + events_filtered {} != events_scanned {}",
                    pv["events_delivered"], pv["events_filtered"], pv["events_scanned"]
                ));
            }
        }
        Some(_) => return Err("`pipeline` is neither object nor null".into()),
    }

    // Semantic invariants.
    let work = v["qualification_probes"] + v["pushes"] + v["pops"] + v["upload_probes"];
    if v["work"] != work {
        return Err(format!("work {} != sum of parts {work}", v["work"]));
    }
    if v["events"] < v["start_events"] + v["end_events"] {
        return Err("reader events < engine δs+δe events".into());
    }
    if v["pops"] > v["pushes"] {
        return Err("more pops than pushes".into());
    }
    // Skimmed content is part of the input the run consumed.
    let bytes = opt_u64_field(&doc, "bytes")?;
    if let (Some(bytes), Some(skipped)) = (bytes, opt_u64_field(&doc, "skipped_bytes")?) {
        if skipped > bytes {
            return Err(format!("skipped_bytes {skipped} exceed bytes {bytes}"));
        }
    }
    let q = opt_u64_field(&doc, "machine_size")?;
    let r = opt_u64_field(&doc, "max_depth")?;
    let bound = opt_u64_field(&doc, "qr_bound")?;
    if let (Some(q), Some(r)) = (q, r) {
        if bound != Some(q * r) {
            return Err(format!("qr_bound {bound:?} != |Q|·R = {}", q * r));
        }
    }
    if let Some(bound) = bound {
        if v["peak_entries"] > bound {
            return Err(format!(
                "peak_entries {} exceeds the |Q|·R bound {bound} (Theorem 4.4)",
                v["peak_entries"]
            ));
        }
    }
    Ok(())
}

const TRACE_KINDS: [&str; 7] = [
    "start",
    "end",
    "push",
    "pop",
    "upload",
    "result",
    "document-end",
];

/// Validates a JSONL transition trace: every line parses, `seq` is
/// strictly increasing, kinds are known and carry their fields, and
/// pushes balance pops per machine node.
pub fn validate_trace_jsonl(text: &str) -> Result<(), String> {
    let mut last_seq: Option<u64> = None;
    let mut depth: HashMap<u64, i64> = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let err = |m: String| format!("line {}: {m}", i + 1);
        let rec = parse(line).map_err(&err)?;
        let seq = u64_field(&rec, "seq").map_err(&err)?;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(err(format!("seq {seq} not greater than {prev}")));
            }
        }
        last_seq = Some(seq);
        u64_field(&rec, "level").map_err(&err)?;
        let kind = field(&rec, "kind")
            .and_then(|k| k.as_str().ok_or("`kind` is not a string".to_string()))
            .map_err(&err)?;
        if !TRACE_KINDS.contains(&kind) {
            return Err(err(format!("unknown kind `{kind}`")));
        }
        match kind {
            "start" => {
                u64_field(&rec, "id").map_err(&err)?;
                field(&rec, "tag").map_err(&err)?;
            }
            "end" => {
                field(&rec, "tag").map_err(&err)?;
            }
            "push" => {
                let node = u64_field(&rec, "node").map_err(&err)?;
                *depth.entry(node).or_insert(0) += 1;
            }
            "pop" => {
                let node = u64_field(&rec, "node").map_err(&err)?;
                let d = depth.entry(node).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    return Err(err(format!("pop without push on node {node}")));
                }
            }
            "upload" => {
                u64_field(&rec, "node").map_err(&err)?;
                u64_field(&rec, "parent").map_err(&err)?;
                u64_field(&rec, "merged").map_err(&err)?;
            }
            "result" => {
                u64_field(&rec, "id").map_err(&err)?;
            }
            _ => {}
        }
    }
    if let Some((node, d)) = depth.iter().find(|(_, d)| **d != 0) {
        return Err(format!("node {node} ends with {d} unbalanced push(es)"));
    }
    Ok(())
}

/// Validates a Chrome trace-event file: a `traceEvents` array whose
/// span opens (`B`) balance closes (`E`) per thread, with monotone
/// virtual timestamps.
pub fn validate_trace_chrome(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let events = match field(&doc, "traceEvents")? {
        Json::Arr(events) => events,
        _ => return Err("`traceEvents` is not an array".into()),
    };
    let mut open: HashMap<u64, i64> = HashMap::new();
    let mut last_ts: Option<u64> = None;
    for (i, event) in events.iter().enumerate() {
        let err = |m: String| format!("event {i}: {m}");
        field(event, "name")
            .and_then(|n| n.as_str().ok_or("`name` is not a string".to_string()))
            .map_err(&err)?;
        let ph = field(event, "ph")
            .and_then(|p| p.as_str().ok_or("`ph` is not a string".to_string()))
            .map_err(&err)?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = u64_field(event, "ts").map_err(&err)?;
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(err(format!("ts {ts} went backwards from {prev}")));
            }
        }
        last_ts = Some(ts);
        let tid = u64_field(event, "tid").map_err(&err)?;
        match ph {
            "B" => *open.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = open.entry(tid).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    return Err(err(format!("span close without open on tid {tid}")));
                }
            }
            "i" => {}
            other => return Err(err(format!("unexpected phase `{other}`"))),
        }
    }
    if let Some((tid, d)) = open.iter().find(|(_, d)| **d != 0) {
        return Err(format!("tid {tid} ends with {d} unclosed span(s)"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_basic_values() {
        let doc = parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {}}"#).unwrap();
        let arr = match doc.get("a").unwrap() {
            Json::Arr(items) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
        assert_eq!(doc.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    fn stats_fixture() -> String {
        concat!(
            r#"{"schema":"twigm-stats-v1","engine":"twig","duration_secs":0.01,"#,
            r#""bytes":100,"events":10,"skipped_events":6,"skipped_bytes":40,"#,
            r#""events_per_sec":1000.0,"bytes_per_sec":10000.0,"#,
            r#""start_events":4,"end_events":4,"qualification_probes":5,"pushes":3,"#,
            r#""pops":3,"upload_probes":2,"candidates_merged":1,"peak_entries":2,"#,
            r#""peak_candidates":1,"results":1,"tuples_materialized":0,"work":13,"#,
            r#""machine_size":3,"max_depth":4,"qr_bound":12,"#,
            r#""time_to_first_result_secs":0.001,"first_result_event":5,"#,
            r#""bytes_to_first_result":40,"histograms":null,"pipeline":null}"#
        )
        .to_string()
    }

    #[test]
    fn stats_validator_accepts_the_fixture_and_catches_lies() {
        validate_stats(&stats_fixture()).unwrap();
        // Wrong work sum.
        let bad = stats_fixture().replace(r#""work":13"#, r#""work":14"#);
        assert!(validate_stats(&bad).unwrap_err().contains("work"));
        // Peak above the bound.
        let bad = stats_fixture().replace(r#""peak_entries":2"#, r#""peak_entries":99"#);
        assert!(validate_stats(&bad).unwrap_err().contains("Theorem"));
        // Inconsistent bound.
        let bad = stats_fixture().replace(r#""qr_bound":12"#, r#""qr_bound":11"#);
        assert!(validate_stats(&bad).unwrap_err().contains("qr_bound"));
        // Missing field.
        let bad = stats_fixture().replace(r#""pushes":3,"#, "");
        assert!(validate_stats(&bad).unwrap_err().contains("pushes"));
        let bad = stats_fixture().replace(r#""skipped_events":6,"#, "");
        assert!(validate_stats(&bad).unwrap_err().contains("skipped_events"));
        // More content skimmed than the input held.
        let bad = stats_fixture().replace(r#""skipped_bytes":40"#, r#""skipped_bytes":101"#);
        assert!(validate_stats(&bad).unwrap_err().contains("skipped_bytes"));
        // Wrong schema.
        let bad = stats_fixture().replace("twigm-stats-v1", "twigm-stats-v0");
        assert!(validate_stats(&bad).is_err());
    }

    #[test]
    fn stats_validator_checks_the_pipeline_block() {
        let pipelined = |block: &str| stats_fixture().replace(r#""pipeline":null"#, block);
        // A report from before `--threads` existed has no key at all.
        let legacy = stats_fixture().replace(r#","pipeline":null"#, "");
        validate_stats(&legacy).unwrap();
        let good = pipelined(concat!(
            r#""pipeline":{"threads":2,"batches":3,"events_scanned":10,"#,
            r#""events_delivered":8,"events_filtered":2,"producer_stalls":0,"#,
            r#""consumer_stalls":1,"max_queue_depth":2,"bytes":100}"#
        ));
        validate_stats(&good).unwrap();
        // Leaky accounting: delivered + filtered must cover scanned.
        let bad = good.replace(r#""events_filtered":2"#, r#""events_filtered":1"#);
        assert!(validate_stats(&bad).unwrap_err().contains("events_scanned"));
        // A pipelined run needs a producer and a consumer.
        let bad = good.replace(r#""threads":2"#, r#""threads":1"#);
        assert!(validate_stats(&bad).unwrap_err().contains("at least 2"));
        // Missing counter inside the block.
        let bad = good.replace(r#""batches":3,"#, "");
        assert!(validate_stats(&bad).unwrap_err().contains("batches"));
        // Wrong type for the block itself.
        let bad = pipelined(r#""pipeline":7"#);
        assert!(validate_stats(&bad).unwrap_err().contains("pipeline"));
    }

    #[test]
    fn jsonl_validator_checks_balance_and_order() {
        let good = "\
{\"seq\":0,\"level\":1,\"kind\":\"start\",\"tag\":\"a\",\"id\":0}
{\"seq\":1,\"level\":1,\"kind\":\"push\",\"node\":0,\"candidate\":true}
{\"seq\":2,\"level\":1,\"kind\":\"pop\",\"node\":0,\"satisfied\":true}
{\"seq\":3,\"level\":1,\"kind\":\"end\",\"tag\":null}
{\"seq\":4,\"level\":1,\"kind\":\"document-end\"}
";
        validate_trace_jsonl(good).unwrap();
        let unbalanced = good.replace(
            "{\"seq\":2,\"level\":1,\"kind\":\"pop\",\"node\":0,\"satisfied\":true}",
            "{\"seq\":2,\"level\":1,\"kind\":\"upload\",\"node\":0,\"parent\":0,\"merged\":0}",
        );
        assert!(validate_trace_jsonl(&unbalanced)
            .unwrap_err()
            .contains("unbalanced"));
        let out_of_order = good.replace("\"seq\":3", "\"seq\":1");
        assert!(validate_trace_jsonl(&out_of_order).is_err());
        assert!(validate_trace_jsonl("not json\n").is_err());
    }

    #[test]
    fn chrome_validator_checks_span_nesting() {
        let good = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"twigm"}},"#,
            r#"{"name":"a","cat":"doc","ph":"B","ts":0,"pid":0,"tid":0},"#,
            r#"{"name":"r","cat":"result","ph":"i","s":"g","ts":1,"pid":0,"tid":0},"#,
            r#"{"name":"a","cat":"doc","ph":"E","ts":2,"pid":0,"tid":0}"#,
            r#"],"displayTimeUnit":"ms","droppedRecords":0}"#
        );
        validate_trace_chrome(good).unwrap();
        let unclosed = good.replace(r#""ph":"E""#, r#""ph":"i""#);
        assert!(validate_trace_chrome(&unclosed)
            .unwrap_err()
            .contains("unclosed"));
        let equal_ts = good.replace(r#""ts":2"#, r#""ts":1"#);
        validate_trace_chrome(&equal_ts).unwrap(); // equal ts is fine
        let really_backwards = good.replace(r#""ts":1"#, r#""ts":9"#);
        assert!(validate_trace_chrome(&really_backwards).is_err());
    }
}
