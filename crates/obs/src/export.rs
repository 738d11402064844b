//! In-house exporters for registry snapshots: a JSON document (schema
//! documented below, in the style of the BENCH_*.json artifacts) and
//! Prometheus text exposition format, so a future wire front can serve
//! `/metrics` without new code.
//!
//! # JSON schema
//!
//! ```json
//! {
//!   "wivi_obs_snapshot": 1,            // schema version
//!   "counters": { "name": 123, ... },  // monotone totals
//!   "gauges":   { "name": 1.5, ... },  // instantaneous values
//!   "histograms": {
//!     "name": {
//!       "count": 10, "sum": 1234, "mean": 123.4,
//!       "p50": 100.0, "p99": 400.0,
//!       "buckets": [ {"lo": 96, "hi": 104, "count": 3}, ... ]
//!     }
//!   }
//! }
//! ```
//!
//! Histogram `buckets` list only occupied buckets, non-cumulative, with
//! `[lo, hi)` value bounds (the Prometheus exporter emits the standard
//! cumulative `_bucket{le=...}` form instead). All sample units are
//! whatever the recorder recorded — nanoseconds everywhere in this
//! workspace.

use crate::metrics::Snapshot;

/// Escapes `s` for use inside a JSON string literal: quotes,
/// backslashes and every control character.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot as the versioned JSON document described in the
/// module docs.
pub fn to_json(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"wivi_obs_snapshot\": 1,\n  \"counters\": {");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        let comma = if i + 1 < snap.counters.len() { "," } else { "" };
        out.push_str(&format!("\n    \"{}\": {}{}", json_escape(name), v, comma));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        let comma = if i + 1 < snap.gauges.len() { "," } else { "" };
        out.push_str(&format!("\n    \"{}\": {}{}", json_escape(name), v, comma));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        let comma = if i + 1 < snap.histograms.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "\n    \"{}\": {{\n      \"count\": {}, \"sum\": {}, \"mean\": {:.3}, \"p50\": {:.1}, \"p99\": {:.1},\n      \"buckets\": [",
            json_escape(name),
            h.count,
            h.sum,
            h.mean(),
            h.quantile(50.0),
            h.quantile(99.0),
        ));
        let rows = h.nonzero_buckets();
        for (j, (lo, hi, c)) in rows.iter().enumerate() {
            let bc = if j + 1 < rows.len() { "," } else { "" };
            out.push_str(&format!(
                "\n        {{\"lo\": {lo}, \"hi\": {hi}, \"count\": {c}}}{bc}"
            ));
        }
        out.push_str(&format!("\n      ]\n    }}{comma}"));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// A metric name sanitized to the Prometheus charset
/// (`[a-zA-Z0-9_:]`), prefixed `wivi_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("wivi_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a snapshot in Prometheus text exposition format (v0.0.4):
/// counters as `counter`, gauges as `gauge`, histograms as the standard
/// cumulative `_bucket{le="..."}` / `_sum` / `_count` triplet.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cum = 0u64;
        for (_, hi, c) in h.nonzero_buckets() {
            cum += c;
            out.push_str(&format!("{n}_bucket{{le=\"{hi}\"}} {cum}\n"));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{n}_sum {}\n", h.sum));
        out.push_str(&format!("{n}_count {}\n", h.count));
    }
    out
}

/// Wraps [`to_prometheus`] output in a complete HTTP/1.1 response —
/// what a hand-rolled `/metrics` endpoint (the serving crate's wire
/// listener) writes straight to the socket. `Connection: close` keeps
/// the endpoint stateless: one scrape, one connection.
pub fn to_prometheus_http(snap: &Snapshot) -> String {
    let body = to_prometheus(snap);
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("serve.shard0.batches").add(12);
        r.gauge("serve.shard0.engines").set(3.0);
        let h = r.histogram("serve.shard0.batch_latency_ns");
        for v in [100u64, 200, 200, 7_000] {
            h.record(v);
        }
        r.snapshot(false)
    }

    #[test]
    fn json_escape_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\u{1}"), "x\\ny\\u0001");
    }

    #[test]
    fn json_export_has_schema_and_buckets() {
        let s = sample_snapshot();
        let text = to_json(&s);
        assert!(text.contains("\"wivi_obs_snapshot\": 1"));
        assert!(text.contains("\"serve.shard0.batches\": 12"));
        assert!(text.contains("\"serve.shard0.engines\": 3"));
        assert!(text.contains("\"count\": 4"));
        assert!(text.contains("\"lo\":"));
        // Non-cumulative bucket rows sum to the count.
        let h = s.histogram("serve.shard0.batch_latency_ns").unwrap();
        let total: u64 = h.nonzero_buckets().iter().map(|(_, _, c)| c).sum();
        assert_eq!(total, h.count);
    }

    #[test]
    fn prometheus_export_is_cumulative_and_well_formed() {
        let s = sample_snapshot();
        let text = to_prometheus(&s);
        assert!(text.contains("# TYPE wivi_serve_shard0_batches counter"));
        assert!(text.contains("wivi_serve_shard0_batches 12\n"));
        assert!(text.contains("# TYPE wivi_serve_shard0_engines gauge"));
        assert!(text.contains("# TYPE wivi_serve_shard0_batch_latency_ns histogram"));
        assert!(text.contains("wivi_serve_shard0_batch_latency_ns_count 4\n"));
        assert!(text.contains("le=\"+Inf\"} 4\n"));
        // Cumulative counts are non-decreasing down the bucket list.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.contains("_bucket{le=") && !l.contains("+Inf"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative buckets must not decrease");
            last = v;
        }
        assert_eq!(last, 4);
    }

    #[test]
    fn prometheus_http_response_has_exact_content_length() {
        let s = sample_snapshot();
        let resp = to_prometheus_http(&s);
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"));
        let (head, body) = resp.split_once("\r\n\r\n").expect("blank line");
        assert_eq!(body, to_prometheus(&s));
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length header")
            .parse()
            .unwrap();
        assert_eq!(declared, body.len());
    }
}
