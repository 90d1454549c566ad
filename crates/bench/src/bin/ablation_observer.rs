//! Observer ablation — verifies that the `MachineObserver` layer is
//! zero-cost when disabled and measures what each real observer costs.
//!
//! For each query of the auction corpus the same document is streamed
//! through `TwigM` five ways:
//!
//! * **plain** — `run_engine` with the default [`NoopObserver`]: the
//!   event driver with its no-op driver observer (no byte/event
//!   accounting, every hook monomorphized away);
//! * **traced** — `run_engine_traced` with `NoopObserver`: the same
//!   driver with the telemetry driver observer (byte/event/depth
//!   accounting) but still no machine observer, i.e. what
//!   `--stats=json` pays before any machine hook fires;
//! * **counting** — [`CountingObserver`], the minimal real observer
//!   (one integer increment per hook);
//! * **metrics** — [`MetricsObserver`], histogram recording per
//!   transition;
//! * **tracer** — [`TransitionTracer`], full transition recording
//!   (bounded; the dominant cost is the per-transition record push).
//!
//! Result counts are asserted identical across all five, so the run
//! doubles as an observer-transparency differential check on real
//! benchmark data.
//!
//! Plain and traced are timed in pairs: [`ROUNDS`] rounds, each taking
//! every query in turn for `--repeats` pairs, with the order inside a
//! pair alternating. The traced/plain ratio of a pair compares two runs
//! of the same query a few milliseconds apart, so a load phase of a
//! shared host slows both alike, and rounds spread every query's pairs
//! over the whole measurement.
//!
//! With `OBS_ABLATION_GATE=<pct>` set, exits non-zero unless the median
//! pair ratio shows the telemetry driver observer within `<pct>` percent
//! of the no-op one — the CI obs-smoke stage runs this with 2. The
//! median over several hundred pairs is the gate because a single
//! round's min-of-repeats sums read anywhere from about −8% to +8% on
//! unchanged code on a 2-vCPU shared host, while the telemetry
//! observer's real cost is about 1%.
//!
//! Usage: `cargo run -p twigm-bench --release --bin ablation_observer`
//! (plus the common `--scale X` / `--full` / `--repeats N` / `--csv`).

use std::time::{Duration, Instant};

use twigm::engine::StreamEngine;
use twigm::{run_engine, run_engine_traced, MachineObserver, TwigM};
use twigm_bench::harness::{print_row, run_timed, CommonArgs};
use twigm_bench::{auction_queries, ensure_dataset};
use twigm_datagen::Dataset;
use twigm_obs::{CountingObserver, MetricsObserver, TransitionTracer};
use twigm_xpath::Path;

/// Records per transition but keeps memory bounded on big documents.
const TRACER_LIMIT: usize = 1 << 20;

/// Rounds of paired plain/traced samples.
const ROUNDS: usize = 10;

/// One pass through the event driver with the no-op driver observer.
fn plain_pass<O: MachineObserver>(engine: TwigM<O>, xml: &[u8]) -> (Duration, u64, u64) {
    let start = Instant::now();
    let (ids, engine) = run_engine(engine, xml).expect("valid xml");
    let duration = start.elapsed();
    let stats = engine.stats();
    (
        duration,
        stats.start_events + stats.end_events,
        ids.len() as u64,
    )
}

/// One pass through the event driver with the telemetry driver observer
/// (no progress callbacks).
fn traced_pass<O: MachineObserver>(engine: TwigM<O>, xml: &[u8]) -> (Duration, u64, u64) {
    let start = Instant::now();
    let (ids, engine, _telemetry) = run_engine_traced(engine, xml, 0, |_| {}).expect("valid xml");
    let duration = start.elapsed();
    let stats = engine.stats();
    (
        duration,
        stats.start_events + stats.end_events,
        ids.len() as u64,
    )
}

fn noop(query: &Path) -> TwigM {
    TwigM::new(query).expect("query compiles")
}

/// The paper's timing protocol, over pre-collected samples: drop min
/// and max, average the rest (plain average under three samples).
fn trimmed_mean(samples: &[Duration]) -> Duration {
    let mut times = samples.to_vec();
    times.sort_unstable();
    let slice = if times.len() >= 3 {
        &times[1..times.len() - 1]
    } else {
        &times[..]
    };
    let total: Duration = slice.iter().sum();
    total / slice.len() as u32
}

fn main() {
    let args = CommonArgs::parse();
    let gate: Option<f64> = std::env::var("OBS_ABLATION_GATE")
        .ok()
        .map(|v| v.parse().expect("OBS_ABLATION_GATE must be a percentage"));
    let bytes = args.size_for(Dataset::Auction);
    let path = ensure_dataset(Dataset::Auction, bytes).expect("dataset generation");
    let xml = std::fs::read(&path).expect("read dataset");
    println!(
        "observer ablation: auction.xml ({:.1} MB), NoopObserver vs real observers",
        xml.len() as f64 / (1024.0 * 1024.0)
    );
    println!();
    let widths = [28, 10, 13, 13, 13, 13, 13];
    print_row(
        &widths,
        &[
            "query".into(),
            "results".into(),
            "plain ev/s".into(),
            "traced ev/s".into(),
            "counting ev/s".into(),
            "metrics ev/s".into(),
            "tracer ev/s".into(),
        ],
    );

    let queries: Vec<(&str, Path)> = auction_queries()
        .iter()
        .map(|spec| (spec.text, spec.parse()))
        .collect();
    // Per query: the result count, the events, and the `run_timed`
    // times of the three real observers.
    let mut rows = Vec::new();
    for (text, query) in &queries {
        // Cross-check: every variant must produce the same result count.
        let (_, events, plain_results) = plain_pass(noop(query), &xml);
        for (name, results) in [
            ("traced", traced_pass(noop(query), &xml).2),
            (
                "counting",
                plain_pass(
                    TwigM::with_observer(query, CountingObserver::new()).unwrap(),
                    &xml,
                )
                .2,
            ),
            (
                "metrics",
                plain_pass(
                    TwigM::with_observer(query, MetricsObserver::new()).unwrap(),
                    &xml,
                )
                .2,
            ),
            (
                "tracer",
                plain_pass(
                    TwigM::with_observer(query, TransitionTracer::with_limit(TRACER_LIMIT))
                        .unwrap(),
                    &xml,
                )
                .2,
            ),
        ] {
            assert_eq!(
                plain_results, results,
                "{name} observer changed the result count on {text}"
            );
        }
        let counting = run_timed(args.repeats, || {
            plain_pass(
                TwigM::with_observer(query, CountingObserver::new()).unwrap(),
                &xml,
            )
            .0
        });
        let metrics = run_timed(args.repeats, || {
            plain_pass(
                TwigM::with_observer(query, MetricsObserver::new()).unwrap(),
                &xml,
            )
            .0
        });
        let tracer = run_timed(args.repeats, || {
            plain_pass(
                TwigM::with_observer(query, TransitionTracer::with_limit(TRACER_LIMIT)).unwrap(),
                &xml,
            )
            .0
        });
        rows.push((plain_results, events, [counting, metrics, tracer]));
    }

    // The paired plain/traced samples (see the module docs).
    let mut plain_samples: Vec<Vec<Duration>> = vec![Vec::new(); queries.len()];
    let mut traced_samples: Vec<Vec<Duration>> = vec![Vec::new(); queries.len()];
    let mut ratios: Vec<f64> = Vec::with_capacity(ROUNDS * queries.len() * args.repeats);
    for _ in 0..ROUNDS {
        for (i, (_, query)) in queries.iter().enumerate() {
            for pair in 0..args.repeats {
                let (plain, traced) = if pair % 2 == 0 {
                    let plain = plain_pass(noop(query), &xml).0;
                    (plain, traced_pass(noop(query), &xml).0)
                } else {
                    let traced = traced_pass(noop(query), &xml).0;
                    (plain_pass(noop(query), &xml).0, traced)
                };
                ratios.push(traced.as_secs_f64() / plain.as_secs_f64());
                plain_samples[i].push(plain);
                traced_samples[i].push(traced);
            }
        }
    }

    for (i, (text, _)) in queries.iter().enumerate() {
        let (results, events, observed) = rows[i];
        let ev_per_sec = |d: Duration| format!("{:.0}", events as f64 / d.as_secs_f64());
        print_row(
            &widths,
            &[
                text.to_string(),
                results.to_string(),
                ev_per_sec(trimmed_mean(&plain_samples[i])),
                ev_per_sec(trimmed_mean(&traced_samples[i])),
                ev_per_sec(observed[0]),
                ev_per_sec(observed[1]),
                ev_per_sec(observed[2]),
            ],
        );
    }
    println!();
    println!("plain   = run_engine, NoopObserver (no-op driver observer);");
    println!("traced  = run_engine_traced, NoopObserver (telemetry driver observer);");
    println!("others  = run_engine with the named observer attached.");

    if let Some(pct) = gate {
        ratios.sort_unstable_by(f64::total_cmp);
        let overhead = (ratios[ratios.len() / 2] - 1.0) * 100.0;
        let pairs = ratios.len();
        if overhead <= pct {
            println!(
                "gate: telemetry driver observer is {overhead:+.1}% vs the no-op one, \
                 median of {pairs} pairs (gate {pct}%) — OK"
            );
        } else {
            eprintln!(
                "gate FAIL: telemetry driver observer is {overhead:+.1}% slower than \
                 the no-op one, median of {pairs} pairs (gate {pct}%)"
            );
            std::process::exit(1);
        }
    }
}
