//! Run-level reports: throughput, latency-to-first-result, and the
//! engine counters, rendered as JSON (schema `twigm-stats-v1`) or as
//! aligned human-readable text.

use std::time::Duration;

use twigm::{EngineStats, PipelineStats, StreamProgress, StreamTelemetry};

use crate::json::JsonObj;
use crate::metrics::MetricsObserver;

/// Everything known about one completed run.
///
/// Built by the caller (typically the CLI) from the engine's
/// [`EngineStats`], the driver's [`StreamTelemetry`], and wall-clock
/// measurements only the caller can take.
#[derive(Debug, Clone, Default)]
pub struct StatsReport {
    /// Engine name (`path` / `branch` / `twig` / `multi` / ...).
    pub engine: String,
    /// The engine's work and memory counters.
    pub stats: EngineStats,
    /// Stream accounting from [`twigm::run_engine_traced`], when the
    /// run went through the traced driver.
    pub telemetry: Option<StreamTelemetry>,
    /// Machine size `|Q|` (total machine nodes), when known.
    pub machine_size: Option<usize>,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// Wall-clock time until the first result was decided.
    pub time_to_first_result: Option<Duration>,
    /// Histograms, when the run carried a [`MetricsObserver`].
    pub metrics: Option<MetricsObserver>,
    /// Queue-health counters, when the run used the pipelined driver
    /// (`--threads N`).
    pub pipeline: Option<PipelineStats>,
}

impl StatsReport {
    /// Events per wall-clock second (0.0 for a zero-length run).
    pub fn events_per_sec(&self) -> f64 {
        rate(self.events(), self.duration)
    }

    /// Input bytes per wall-clock second, when byte accounting exists.
    pub fn bytes_per_sec(&self) -> Option<f64> {
        self.bytes().map(|b| rate(b, self.duration))
    }

    /// Bytes consumed from the input: from the driver's telemetry, else
    /// from the pipeline's producer.
    pub fn bytes(&self) -> Option<u64> {
        match (&self.telemetry, &self.pipeline) {
            (Some(t), _) => Some(t.bytes),
            (None, Some(p)) => Some(p.bytes),
            (None, None) => None,
        }
    }

    /// Total SAX events the reader delivered (tags, text, comments,
    /// PIs): from the driver's telemetry, else from the pipeline's
    /// producer, else the engine's δs + δe count.
    pub fn events(&self) -> u64 {
        match (&self.telemetry, &self.pipeline) {
            (Some(t), _) => t.events,
            (None, Some(p)) => p.events_scanned,
            (None, None) => self.stats.events(),
        }
    }

    /// Events and bytes the reader's projection skimmed: from the
    /// driver's telemetry, else from the pipeline's producer.
    pub fn skipped(&self) -> Option<(u64, u64)> {
        match (&self.telemetry, &self.pipeline) {
            (Some(t), _) => Some((t.skipped_events, t.skipped_bytes)),
            (None, Some(p)) => Some((p.events_skipped, p.bytes_skipped)),
            (None, None) => None,
        }
    }

    /// The document's recursion depth `R`: from the driver's telemetry,
    /// else from the pipeline's producer.
    pub fn max_depth(&self) -> Option<u32> {
        match (&self.telemetry, &self.pipeline) {
            (Some(t), _) => Some(t.max_depth),
            (None, Some(p)) => Some(p.max_depth),
            (None, None) => None,
        }
    }

    /// The paper's `|Q| · R` memory bound, when both factors are known.
    pub fn qr_bound(&self) -> Option<u64> {
        let q = self.machine_size? as u64;
        Some(q * u64::from(self.max_depth()?))
    }

    /// Serializes as one JSON object, schema `twigm-stats-v1` (see
    /// `docs/observability.md`; validated by `twigm-testkit::obsjson`).
    pub fn to_json(&self) -> String {
        let t = self.telemetry.as_ref();
        let mut o = JsonObj::new();
        o.str("schema", "twigm-stats-v1")
            .str("engine", &self.engine)
            .f64("duration_secs", self.duration.as_secs_f64())
            .opt_u64("bytes", self.bytes())
            .u64("events", self.events())
            .opt_u64("skipped_events", self.skipped().map(|s| s.0))
            .opt_u64("skipped_bytes", self.skipped().map(|s| s.1))
            .f64("events_per_sec", self.events_per_sec());
        match self.bytes_per_sec() {
            Some(bps) => o.f64("bytes_per_sec", bps),
            None => o.raw("bytes_per_sec", "null"),
        };
        let s = &self.stats;
        o.u64("start_events", s.start_events)
            .u64("end_events", s.end_events)
            .u64("qualification_probes", s.qualification_probes)
            .u64("pushes", s.pushes)
            .u64("pops", s.pops)
            .u64("upload_probes", s.upload_probes)
            .u64("candidates_merged", s.candidates_merged)
            .u64("peak_entries", s.peak_entries)
            .u64("peak_candidates", s.peak_candidates)
            .u64("results", s.results)
            .u64("tuples_materialized", s.tuples_materialized)
            .u64("work", s.work())
            .opt_u64("machine_size", self.machine_size.map(|q| q as u64))
            .opt_u64("max_depth", self.max_depth().map(u64::from))
            .opt_u64("qr_bound", self.qr_bound());
        match self.time_to_first_result {
            Some(d) => o.f64("time_to_first_result_secs", d.as_secs_f64()),
            None => o.raw("time_to_first_result_secs", "null"),
        };
        o.opt_u64("first_result_event", t.and_then(|t| t.first_result_event))
            .opt_u64("bytes_to_first_result", t.and_then(|t| t.first_result_byte));
        match &self.metrics {
            Some(m) => o.raw("histograms", &m.to_json()),
            None => o.raw("histograms", "null"),
        };
        match &self.pipeline {
            Some(p) => {
                let mut po = JsonObj::new();
                po.u64("threads", p.threads as u64)
                    .u64("batches", p.batches)
                    .u64("events_scanned", p.events_scanned)
                    .u64("events_delivered", p.events_delivered)
                    .u64("events_filtered", p.events_filtered)
                    .u64("producer_stalls", p.producer_stalls)
                    .u64("consumer_stalls", p.consumer_stalls)
                    .u64("max_queue_depth", p.max_queue_depth)
                    .u64("bytes", p.bytes);
                o.raw("pipeline", &po.finish());
            }
            None => {
                o.raw("pipeline", "null");
            }
        };
        o.finish()
    }

    /// Renders a multi-line human-readable summary.
    pub fn to_pretty(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(&format!("{k:<22}{v}\n"));
        };
        let engine = match self.machine_size {
            Some(q) => format!("{} (|Q| = {q})", self.engine),
            None => self.engine.clone(),
        };
        line("engine", engine);
        line("duration", format_duration(self.duration));
        let input = match self.bytes() {
            Some(bytes) => format!(
                "{} in {} events ({}/s, {} events/s)",
                format_bytes(bytes),
                self.events(),
                format_bytes(self.bytes_per_sec().unwrap_or(0.0) as u64),
                format_count(self.events_per_sec() as u64),
            ),
            None => format!(
                "{} engine events ({} events/s)",
                s.events(),
                format_count(self.events_per_sec() as u64)
            ),
        };
        line("input", input);
        if let Some((events, bytes)) = self.skipped().filter(|s| s.0 > 0) {
            line(
                "skimmed",
                format!("{events} events in {} of content", format_bytes(bytes)),
            );
        }
        let first = match (self.time_to_first_result, &self.telemetry) {
            (Some(d), Some(t)) => match (t.first_result_event, t.first_result_byte) {
                (Some(e), Some(b)) => format!(
                    " (first after {} / event {e} / {})",
                    format_duration(d),
                    format_bytes(b)
                ),
                _ => format!(" (first after {})", format_duration(d)),
            },
            (Some(d), None) => format!(" (first after {})", format_duration(d)),
            (None, _) => String::new(),
        };
        line("results", format!("{}{first}", s.results));
        line(
            "work",
            format!(
                "{} units: probes {} + pushes {} + pops {} + uploads {}",
                s.work(),
                s.qualification_probes,
                s.pushes,
                s.pops,
                s.upload_probes
            ),
        );
        line(
            "candidates",
            format!("{} merged, peak {}", s.candidates_merged, s.peak_candidates),
        );
        let peak = match self.qr_bound() {
            Some(bound) => format!("{} of |Q|·R = {bound} bound (Theorem 4.4)", s.peak_entries),
            None => format!("{}", s.peak_entries),
        };
        line("peak entries", peak);
        if let Some(p) = &self.pipeline {
            line(
                "pipeline",
                format!(
                    "{} thread(s), {} batch(es), {} of {} event(s) delivered ({} filtered)",
                    p.threads, p.batches, p.events_delivered, p.events_scanned, p.events_filtered
                ),
            );
            line(
                "queue",
                format!(
                    "peak depth {}, {} producer stall(s), {} consumer stall(s)",
                    p.max_queue_depth, p.producer_stalls, p.consumer_stalls
                ),
            );
        }
        if let Some(m) = &self.metrics {
            line(
                "stack depth",
                format!(
                    "p50 {} / p99 {} / max {}",
                    m.stack_depth.quantile(0.5),
                    m.stack_depth.quantile(0.99),
                    m.stack_depth.max()
                ),
            );
            line(
                "event work",
                format!(
                    "p50 {} / p99 {} / max {}",
                    m.event_work.quantile(0.5),
                    m.event_work.quantile(0.99),
                    m.event_work.max()
                ),
            );
        }
        out
    }
}

/// Formats a `--progress` heartbeat line from a driver progress sample
/// and the wall-clock time elapsed since the run started.
pub fn format_progress(p: &StreamProgress, elapsed: Duration) -> String {
    format!(
        "progress: {} events, {}, {} result(s), {} events/s, {}/s",
        p.events,
        format_bytes(p.bytes),
        p.results,
        format_count(rate(p.events, elapsed) as u64),
        format_bytes(rate(p.bytes, elapsed) as u64),
    )
}

fn rate(n: u64, d: Duration) -> f64 {
    let secs = d.as_secs_f64();
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

/// `1.23 s` / `45.6 ms` / `789 µs`.
fn format_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.2} s")
    } else if secs >= 1e-3 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{:.0} µs", secs * 1e6)
    }
}

/// `1.2 GB` / `3.4 MB` / `5.6 KB` / `789 B`.
fn format_bytes(b: u64) -> String {
    const UNITS: [(u64, &str); 3] = [(1 << 30, "GB"), (1 << 20, "MB"), (1 << 10, "KB")];
    for (scale, unit) in UNITS {
        if b >= scale {
            return format!("{:.1} {unit}", b as f64 / scale as f64);
        }
    }
    format!("{b} B")
}

/// `1.2M` / `3.4k` / `567`.
fn format_count(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm::StreamTelemetry;

    fn sample() -> StatsReport {
        StatsReport {
            engine: "twig".into(),
            stats: EngineStats {
                start_events: 4,
                end_events: 4,
                pushes: 3,
                pops: 3,
                peak_entries: 2,
                results: 1,
                ..Default::default()
            },
            telemetry: Some(StreamTelemetry {
                bytes: 2048,
                events: 10,
                skipped_events: 6,
                skipped_bytes: 120,
                max_depth: 3,
                first_result_event: Some(5),
                first_result_byte: Some(100),
            }),
            machine_size: Some(3),
            duration: Duration::from_millis(10),
            time_to_first_result: Some(Duration::from_millis(2)),
            metrics: None,
            pipeline: None,
        }
    }

    #[test]
    fn json_report_carries_the_v1_schema_fields() {
        let json = sample().to_json();
        for needle in [
            r#""schema":"twigm-stats-v1""#,
            r#""engine":"twig""#,
            r#""bytes":2048"#,
            r#""events":10"#,
            r#""skipped_events":6"#,
            r#""skipped_bytes":120"#,
            r#""events_per_sec":1000.0"#,
            r#""peak_entries":2"#,
            r#""work":6"#,
            r#""machine_size":3"#,
            r#""max_depth":3"#,
            r#""qr_bound":9"#,
            r#""first_result_event":5"#,
            r#""bytes_to_first_result":100"#,
            r#""histograms":null"#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn json_report_nulls_unknown_fields() {
        let report = StatsReport {
            engine: "naive".into(),
            duration: Duration::from_millis(1),
            ..Default::default()
        };
        let json = report.to_json();
        for needle in [
            r#""bytes":null"#,
            r#""skipped_events":null"#,
            r#""machine_size":null"#,
            r#""qr_bound":null"#,
            r#""time_to_first_result_secs":null"#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn pipelined_reports_carry_the_queue_counters() {
        let mut report = sample();
        assert!(report.to_json().contains(r#""pipeline":null"#));
        report.telemetry = None;
        report.pipeline = Some(PipelineStats {
            threads: 2,
            batches: 4,
            events_scanned: 10,
            events_delivered: 8,
            events_filtered: 2,
            producer_stalls: 1,
            consumer_stalls: 3,
            max_queue_depth: 2,
            bytes: 2048,
            events_skipped: 5,
            bytes_skipped: 64,
            max_depth: 4,
        });
        let json = report.to_json();
        for needle in [
            // Without telemetry the stream counts come from the producer.
            r#""bytes":2048"#,
            r#""events":10"#,
            r#""bytes_per_sec":204800.0"#,
            r#""max_depth":4"#,
            r#""qr_bound":12"#,
            r#""pipeline":{"threads":2"#,
            r#""events_scanned":10"#,
            r#""events_delivered":8"#,
            r#""events_filtered":2"#,
            r#""producer_stalls":1"#,
            r#""consumer_stalls":3"#,
            r#""max_queue_depth":2"#,
            r#""skipped_events":5"#,
            r#""skipped_bytes":64"#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        let text = report.to_pretty();
        assert!(text.contains("2.0 KB in 10 events"), "{text}");
        assert!(text.contains("|Q|·R = 12"), "{text}");
        assert!(text.contains("8 of 10 event(s) delivered"), "{text}");
        assert!(text.contains("peak depth 2"), "{text}");
    }

    #[test]
    fn pretty_report_mentions_the_bound_and_first_result() {
        let text = sample().to_pretty();
        assert!(text.contains("|Q|·R = 9"), "{text}");
        assert!(text.contains("first after 2.00 ms"), "{text}");
        assert!(text.contains("2.0 KB"), "{text}");
        assert!(text.contains("6 events in 120 B of content"), "{text}");
    }

    #[test]
    fn progress_lines_report_throughput() {
        let p = StreamProgress {
            bytes: 4096,
            events: 2000,
            results: 7,
        };
        let line = format_progress(&p, Duration::from_secs(2));
        assert_eq!(
            line,
            "progress: 2000 events, 4.0 KB, 7 result(s), 1.0k events/s, 2.0 KB/s"
        );
    }

    #[test]
    fn formatting_helpers_pick_sane_units() {
        assert_eq!(format_bytes(100), "100 B");
        assert_eq!(format_bytes(1536), "1.5 KB");
        assert_eq!(format_duration(Duration::from_micros(500)), "500 µs");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00 s");
        assert_eq!(format_count(1_500_000), "1.5M");
    }
}
