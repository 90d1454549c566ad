//! Shared measurement machinery: deadline-aware streaming runs, the
//! paper's timing protocol, and table formatting.

use std::io::Read;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use twigm::{drive, DriverObserver, EngineStats, StreamEngine};
use twigm_sax::{SaxError, SaxReader};

/// How one (system, query, dataset) run ended.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// Completed within the deadline.
    Ok(MeasuredRun),
    /// The system does not support this query class (the paper's missing
    /// bars: "systems that are not shown in the legend do not support
    /// this query").
    Unsupported,
    /// Exceeded the deadline (the paper's "take long time" marks).
    TimedOut,
    /// The stream or query failed.
    Error(String),
}

/// Measurements from one completed run.
#[derive(Debug, Clone)]
pub struct MeasuredRun {
    /// Wall-clock time.
    pub duration: Duration,
    /// Number of results produced.
    pub results: u64,
    /// Engine work counters (zeroed for the in-memory system, which has
    /// no event loop).
    pub stats: EngineStats,
    /// Peak heap bytes, when the caller measured them.
    pub peak_bytes: Option<u64>,
}

/// The driver observer of [`run_stream_with_deadline`]: every
/// [`DEADLINE_EVERY`] events it drains the engine's results (keeping
/// result buffers small) and stops the drive once the deadline passed.
struct Deadline {
    at: Option<Instant>,
    events: u64,
    results: u64,
    expired: bool,
}

/// Events between deadline checks.
const DEADLINE_EVERY: u64 = 8192;

impl DriverObserver for Deadline {
    fn after_event<E: StreamEngine + ?Sized>(
        &mut self,
        engine: &mut E,
        _offset: u64,
    ) -> ControlFlow<()> {
        self.events += 1;
        if self.events.is_multiple_of(DEADLINE_EVERY) {
            self.results += engine.take_results().len() as u64;
            self.expired = self.at.is_some_and(|at| Instant::now() > at);
            if self.expired {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }
}

/// Streams the whole file through `engine` on the event driver, checking
/// the deadline every few thousand events. Returns the result count, or
/// `None` on deadline expiry.
pub fn run_stream_with_deadline<E: StreamEngine, R: Read>(
    engine: &mut E,
    src: R,
    deadline: Option<Instant>,
) -> Result<Option<u64>, SaxError> {
    let mut observer = Deadline {
        at: deadline,
        events: 0,
        results: 0,
        expired: false,
    };
    drive(engine, &mut SaxReader::new(src), &mut observer)?;
    if observer.expired {
        return Ok(None);
    }
    Ok(Some(observer.results + engine.take_results().len() as u64))
}

/// The paper's protocol (§5.1): repeat, discard min and max, average the
/// rest. With fewer than three repeats, a plain average.
pub fn run_timed<F: FnMut() -> Duration>(repeats: usize, mut f: F) -> Duration {
    assert!(repeats >= 1);
    let mut times: Vec<Duration> = (0..repeats).map(|_| f()).collect();
    times.sort_unstable();
    let slice = if times.len() >= 3 {
        &times[1..times.len() - 1]
    } else {
        &times[..]
    };
    let total: Duration = slice.iter().sum();
    total / slice.len() as u32
}

/// Formats a duration as the figures do (seconds with millisecond
/// precision).
pub fn format_duration(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Formats a byte count in MB (figure 8/10 units).
pub fn format_mb(bytes: u64) -> String {
    format!("{:.1}MB", bytes as f64 / (1024.0 * 1024.0))
}

/// Produces one timing cell for a (system, query, file) combination: an
/// untimed warm-up/probe run (so file-cache effects don't pollute the
/// first cell), then `repeats` timed runs under the paper's protocol.
pub fn timed_cell(
    sys: crate::System,
    query: &twigm_xpath::Path,
    file: &std::path::Path,
    repeats: usize,
    timeout: Duration,
) -> String {
    if !sys.supports(query) {
        return "--".into();
    }
    // Probe: pays the page-cache warm-up and detects DNF cheaply.
    match sys.run(query, file, timeout) {
        RunOutcome::Ok(_) => {}
        RunOutcome::TimedOut => return "DNF".into(),
        RunOutcome::Unsupported => return "--".into(),
        RunOutcome::Error(e) => return format!("err: {e}"),
    }
    let duration = run_timed(repeats, || match sys.run(query, file, timeout) {
        RunOutcome::Ok(m) => m.duration,
        _ => timeout,
    });
    format_duration(duration)
}

/// When set (via `--csv`), [`print_row`] emits comma-separated values
/// instead of aligned columns, so figure output pipes into plotting
/// tools unchanged.
static CSV_OUTPUT: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Switches row printing to CSV.
pub fn set_csv_output(enabled: bool) {
    CSV_OUTPUT.store(enabled, std::sync::atomic::Ordering::Relaxed);
}

/// Prints a row of fixed-width columns (or CSV under `--csv`).
pub fn print_row(widths: &[usize], cells: &[String]) {
    if CSV_OUTPUT.load(std::sync::atomic::Ordering::Relaxed) {
        let escaped: Vec<String> = cells
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        println!("{}", escaped.join(","));
        return;
    }
    let mut line = String::new();
    for (i, cell) in cells.iter().enumerate() {
        let width = widths.get(i).copied().unwrap_or(12);
        line.push_str(&format!("{cell:<width$}  "));
    }
    println!("{}", line.trim_end());
}

/// Parses the common CLI flags of the figure binaries.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Dataset scale factor relative to the paper's sizes.
    pub scale: f64,
    /// Timing repeats.
    pub repeats: usize,
    /// Per-run deadline.
    pub timeout: Duration,
    /// Emit CSV rows instead of aligned columns.
    pub csv: bool,
    /// Write machine-readable results to this path (`--json PATH`).
    pub json: Option<std::path::PathBuf>,
}

impl CommonArgs {
    /// Parses `--full`, `--scale X`, `--repeats N`, `--timeout SECS`.
    pub fn parse() -> CommonArgs {
        let mut args = CommonArgs {
            scale: crate::datasets::DEFAULT_SCALE,
            repeats: 3,
            timeout: Duration::from_secs(120),
            csv: false,
            json: None,
        };
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => args.scale = 1.0,
                "--csv" => {
                    args.csv = true;
                    set_csv_output(true);
                }
                "--scale" => {
                    args.scale = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale requires a number");
                }
                "--repeats" => {
                    args.repeats = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--repeats requires an integer");
                }
                "--timeout" => {
                    let secs: u64 = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--timeout requires seconds");
                    args.timeout = Duration::from_secs(secs);
                }
                "--json" => {
                    args.json = Some(iter.next().expect("--json requires a path").into());
                }
                other => panic!(
                    "unknown flag {other}; supported: --full --scale X --repeats N \
                     --timeout SECS --csv --json PATH"
                ),
            }
        }
        args
    }

    /// The byte size for a dataset at this scale.
    pub fn size_for(&self, dataset: twigm_datagen::Dataset) -> usize {
        (crate::datasets::paper_size(dataset) as f64 * self.scale) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm::TwigM;
    use twigm_xpath::parse;

    #[test]
    fn deadline_none_runs_to_completion() {
        let mut engine = TwigM::new(&parse("//a").unwrap()).unwrap();
        let xml = b"<r><a/><a/></r>" as &[u8];
        let results = run_stream_with_deadline(&mut engine, xml, None)
            .unwrap()
            .unwrap();
        assert_eq!(results, 2);
    }

    #[test]
    fn expired_deadline_aborts() {
        // A deadline in the past triggers at the first check; make the
        // document big enough to hit the 8192-event check.
        let mut xml = Vec::from(&b"<r>"[..]);
        for _ in 0..10_000 {
            xml.extend_from_slice(b"<a/>");
        }
        xml.extend_from_slice(b"</r>");
        let mut engine = TwigM::new(&parse("//a").unwrap()).unwrap();
        let past = Instant::now() - Duration::from_secs(1);
        let outcome = run_stream_with_deadline(&mut engine, &xml[..], Some(past)).unwrap();
        assert!(outcome.is_none());
    }

    #[test]
    fn run_timed_discards_extremes() {
        let mut times = vec![
            Duration::from_millis(100),
            Duration::from_millis(1),
            Duration::from_millis(100),
            Duration::from_millis(10_000),
            Duration::from_millis(100),
        ]
        .into_iter();
        let avg = run_timed(5, || times.next().unwrap());
        assert_eq!(avg, Duration::from_millis(100));
    }

    #[test]
    fn duration_and_mb_formatting() {
        assert_eq!(format_duration(Duration::from_millis(1234)), "1.234s");
        assert_eq!(format_mb(5 * 1024 * 1024), "5.0MB");
    }
}
