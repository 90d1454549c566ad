//! The untraced end-to-end loop: a closed loop with one client that
//! hands the driver the next pool document only when the previous one's
//! results are drained, and checks every answer against the oracle.

use std::time::{Duration, Instant};

use twigm_bench::CountingAllocator;

use crate::host::process_cpu_time;
use crate::stats::{percentile, throughput_mib_s, MIB};
use crate::workload::{Answer, Driver, Inputs};

/// What one timed phase measured.
///
/// The host this benchmark was tuned on switches between a fast and a
/// slow mode that can last a minute (see `DESIGN.md`), so statistics over
/// every timed document jump with the mode mix of a run. Every timing
/// metric therefore takes each pool document at its best of the dozens
/// of repeats a run makes (min-of-N), then aggregates over the pool of
/// distinct documents: the percentiles are over documents, and the tail
/// is the documents that cost the most. The heap peak follows the same
/// rule, since on the two-thread path it grows with how far the producer
/// runs ahead of the worker.
#[derive(Debug, Clone)]
pub struct E2eRun {
    /// Per-document latencies in milliseconds, ascending.
    pub latencies_ms: Vec<f64>,
    /// Input bytes over all timed documents.
    pub bytes: u64,
    /// Sum of per-document latencies.
    pub busy: Duration,
    /// Process CPU time (all threads) over the timed phase.
    pub cpu: Duration,
    /// Documents timed.
    pub attempted: u64,
    /// Documents that errored or disagreed with the oracle.
    pub failed: u64,
    /// Peak live heap above the level at the start of the timed phase,
    /// over every timed document.
    pub peak_heap_bytes: u64,
    /// Per pool document: its fastest latency in the run, in ms.
    pub best_ms: Vec<f64>,
    /// Per pool document: its smallest process CPU time in the run, in ms.
    pub best_cpu_ms: Vec<f64>,
    /// Per pool document: its smallest peak live heap in the run, above
    /// the level at the start of the timed phase.
    pub best_heap_bytes: Vec<u64>,
    /// Per pool document: its size in bytes.
    pub doc_bytes: Vec<u64>,
}

impl E2eRun {
    fn pool_mib(&self) -> f64 {
        self.doc_bytes.iter().sum::<u64>() as f64 / MIB
    }

    /// Aggregate throughput in MiB/s over the pool: every document's
    /// bytes over the sum of every document's best latency.
    pub fn throughput(&self) -> f64 {
        self.pool_mib() / (self.best_ms.iter().sum::<f64>() / 1e3)
    }

    /// The `p`-th percentile over the pool of each document's best
    /// latency, in ms.
    pub fn best_latency(&self, p: f64) -> f64 {
        let mut best = self.best_ms.clone();
        best.sort_by(f64::total_cmp);
        percentile(&best, p)
    }

    /// CPU milliseconds per input MiB over the pool, each document at
    /// its smallest CPU time.
    pub fn cpu_ms_per_mib(&self) -> f64 {
        self.best_cpu_ms.iter().sum::<f64>() / self.pool_mib()
    }

    /// Peak live heap in MiB: the largest over the pool of each
    /// document's smallest peak.
    pub fn peak_heap_mib(&self) -> f64 {
        self.best_heap_bytes.iter().copied().max().unwrap_or(0) as f64 / MIB
    }

    /// The `p`-th percentile latency in ms over every timed document.
    pub fn latency(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
    }

    /// Throughput over every timed document: total bytes over total busy
    /// time, in MiB/s.
    pub fn all_docs_throughput(&self) -> f64 {
        throughput_mib_s(self.bytes, self.busy)
    }

    /// CPU milliseconds per MiB over the whole timed phase.
    pub fn all_docs_cpu_ms_per_mib(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e3 / (self.bytes as f64 / MIB)
    }

    /// Failed over attempted documents.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Whether the driver's answer for document `k` matches the oracle.
pub fn check(result: Result<Answer, String>, expected: &Answer) -> bool {
    result.is_ok_and(|answer| answer.normalize() == *expected)
}

/// Warms the driver with one pass over the pool, then times documents
/// in pool order for `seconds` and at least `min_docs` documents (at
/// least one pass over the pool).
pub fn run(
    driver: &mut Driver,
    inputs: &Inputs,
    expected: &[Answer],
    seconds: f64,
    min_docs: usize,
) -> E2eRun {
    let min_docs = min_docs.max(inputs.docs.len());
    let docs = &inputs.docs;
    for (k, doc) in docs.iter().enumerate() {
        std::hint::black_box(driver.process(k, doc).ok());
    }
    // Reserved before the heap baseline is taken, so its growth never
    // shows in `peak_heap_bytes`; samples past the capacity are dropped.
    let mut latencies_ms = Vec::with_capacity(1 << 20);
    let mut run = E2eRun {
        latencies_ms: Vec::new(),
        bytes: 0,
        busy: Duration::ZERO,
        cpu: Duration::ZERO,
        attempted: 0,
        failed: 0,
        peak_heap_bytes: 0,
        best_ms: vec![f64::INFINITY; docs.len()],
        best_cpu_ms: vec![f64::INFINITY; docs.len()],
        best_heap_bytes: vec![u64::MAX; docs.len()],
        doc_bytes: docs.iter().map(|d| d.len() as u64).collect(),
    };
    let heap_base = CountingAllocator::reset_peak();
    let cpu_start = process_cpu_time();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || i < min_docs {
        let k = i % docs.len();
        let doc = &docs[k];
        CountingAllocator::reset_peak();
        let cpu_before = process_cpu_time();
        let t = Instant::now();
        let result = driver.process(k, std::hint::black_box(doc));
        let latency = t.elapsed();
        let cpu = process_cpu_time() - cpu_before;
        let heap = CountingAllocator::peak().saturating_sub(heap_base);
        run.peak_heap_bytes = run.peak_heap_bytes.max(heap);
        run.best_heap_bytes[k] = run.best_heap_bytes[k].min(heap);
        run.busy += latency;
        run.bytes += doc.len() as u64;
        run.attempted += 1;
        let ms = latency.as_secs_f64() * 1e3;
        if latencies_ms.len() < latencies_ms.capacity() {
            latencies_ms.push(ms);
        }
        run.best_ms[k] = run.best_ms[k].min(ms);
        run.best_cpu_ms[k] = run.best_cpu_ms[k].min(cpu.as_secs_f64() * 1e3);
        if !check(result, &expected[k]) {
            run.failed += 1;
        }
        i += 1;
    }
    run.cpu = process_cpu_time() - cpu_start;
    latencies_ms.sort_by(f64::total_cmp);
    run.latencies_ms = latencies_ms;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_sized, oracle, parse_queries, Workload};

    fn small(workload: Workload) -> (Inputs, Vec<crate::workload::Answer>, Driver) {
        let inputs = generate_sized(workload, 5, 4, 24 << 10);
        let paths = parse_queries(&inputs).unwrap();
        let expected = oracle(&inputs, &paths).unwrap();
        let driver = Driver::build(workload, &paths).unwrap();
        (inputs, expected, driver)
    }

    #[test]
    fn correct_answers_count_no_failures() {
        for w in Workload::ALL {
            let (inputs, expected, mut driver) = small(w);
            let run = run(&mut driver, &inputs, &expected, 0.0, 12);
            assert_eq!(run.attempted, 12, "{}", w.name());
            assert_eq!(run.failed, 0, "{}", w.name());
            assert_eq!(run.fail_frac(), 0.0);
            assert_eq!(run.latencies_ms.len(), 12);
            assert!(run.throughput() > 0.0 && run.all_docs_throughput() > 0.0);
            assert!(run.best_ms.iter().all(|b| b.is_finite()));
            assert!(run.best_latency(50.0) <= run.best_latency(90.0));
            assert!(run.best_latency(90.0) <= run.latency(100.0));
            assert!(run.cpu_ms_per_mib() > 0.0);
            assert!(run.peak_heap_mib() * MIB <= run.peak_heap_bytes as f64);
        }
    }

    #[test]
    fn a_corrupted_expected_answer_is_counted_as_failed() {
        for w in Workload::ALL {
            let (inputs, mut expected, mut driver) = small(w);
            expected[1].0.push(u64::MAX);
            // Three passes over the four-document pool: doc 1 fails each time.
            let run = run(&mut driver, &inputs, &expected, 0.0, 12);
            assert_eq!(run.failed, 3, "{}", w.name());
            assert!(run.fail_frac() > 0.0);
        }
    }

    #[test]
    fn a_parse_error_is_counted_as_failed() {
        let (mut inputs, expected, mut driver) = small(Workload::ProteinPath);
        let half = inputs.docs[2].len() / 2;
        inputs.docs[2].truncate(half);
        let run = run(&mut driver, &inputs, &expected, 0.0, 8);
        assert_eq!(run.failed, 2);
    }
}
