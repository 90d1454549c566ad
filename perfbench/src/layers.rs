//! The traced run: each document is replayed through cumulative layer
//! passes, one span per pass, and then through the end-to-end driver
//! call. Layer self times give the per-layer metrics; a separate count
//! pass over the pool gives the exact counts.
//!
//! | pass | what runs | self time |
//! |------|-----------|-----------|
//! | `scan` | `scan::memchr` hops over every `<` | the pass |
//! | `reader` | every `SaxReader::next_event` | minus `scan` |
//! | `batch` | `BatchProducer::next_batch` under the driver's plan | minus `reader` |
//! | `engine` | `apply_batch` of those pre-built batches | the pass |
//! | `output` | results into an in-memory sink (fragments via `FragmentCollector`) | minus `engine` for fragments |
//! | `driver` | the end-to-end call the untraced run times | residual = driver minus the sum above |

use std::io::Write;
use std::time::{Duration, Instant};

use twigm::fragments::FragmentCollector;
use twigm::{Engine, EngineStats, MultiTwigM, StreamEngine};
use twigm_sax::batch::{BatchPlan, BatchProducer, EventBatch, DEFAULT_BATCH_EVENTS};
use twigm_sax::{scan, SaxError, SaxReader, Symbol};
use twigm_xpath::Path;

use crate::report::{json_str, metric, Metric};
use crate::timed::{self, check, E2eRun};
use crate::workload::{multi, query_for_doc, Answer, Driver, Inputs, Workload};

/// The delivery plan a batch producer uses for `engine`, built as the
/// pipeline builds it: the engine's interner and per-symbol attribute
/// needs, plus its relevance prefilter when `prefilter` is set.
fn plan_for<E: StreamEngine>(engine: &E, prefilter: bool) -> BatchPlan {
    let table = engine
        .symbols()
        .expect("compiled machines intern their tags")
        .clone();
    let attr_syms = table
        .iter()
        .map(|(sym, _)| engine.needs_attributes(sym))
        .collect();
    let (relevant, wants_text) = if prefilter {
        let rel = engine.relevance();
        (rel.symbols, rel.wants_text)
    } else {
        (None, true)
    };
    BatchPlan {
        table,
        attr_syms,
        attr_unknown: engine.needs_attributes(Symbol::UNKNOWN),
        relevant,
        wants_text,
    }
}

/// Pass 1: every `<` boundary via successive `scan::memchr` hops.
pub fn scan_hops(doc: &[u8]) -> u64 {
    let mut hops = 0u64;
    let mut i = 0usize;
    while let Some(p) = scan::memchr(b'<', std::hint::black_box(&doc[i..])) {
        hops += 1;
        i += p + 1;
    }
    hops
}

/// Pass 2: every reader event; returns the event count.
pub fn reader_events(doc: &[u8]) -> Result<u64, SaxError> {
    let mut reader = SaxReader::new(doc);
    while reader.next_event()?.is_some() {}
    Ok(reader.events_emitted())
}

/// The compiled machines the layer passes drive.
enum Machines {
    /// One `Engine` per query (the serial workloads).
    Single(Vec<Engine>),
    /// One `MultiTwigM` over every query.
    Multi(Box<MultiTwigM>),
}

/// Batch accounting from one pass 3.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct BatchTally {
    batches: usize,
    scanned: u64,
    delivered: u64,
    filtered: u64,
}

/// Per-query-set state for the layer passes.
struct Layers {
    workload: Workload,
    machines: Machines,
    /// Per machine: the plan of this workload's end-to-end driver.
    plans: Vec<BatchPlan>,
    /// Per machine: the plan with the relevance prefilter on.
    relevance_plans: Vec<BatchPlan>,
    /// Fragment output for `book-twig`.
    collectors: Vec<FragmentCollector<Engine>>,
    batches: Vec<EventBatch>,
    sink: Vec<u8>,
}

impl Layers {
    fn new(workload: Workload, paths: &[Path]) -> Result<Layers, String> {
        let engine = |p: &Path| Engine::new(p).map_err(|e| e.to_string());
        let (machines, plans, relevance_plans) = match workload {
            Workload::ProteinPath | Workload::BookTwig => {
                let engines = paths.iter().map(engine).collect::<Result<Vec<_>, _>>()?;
                let plans = engines
                    .iter()
                    .map(|e| {
                        if workload == Workload::BookTwig {
                            // `run_engine` over a FragmentCollector stays
                            // on the string path and decodes every
                            // attribute, for serialization.
                            let table = e.symbols().expect("machines intern").clone();
                            BatchPlan::deliver_all(table)
                        } else {
                            plan_for(e, false)
                        }
                    })
                    .collect();
                let relevance = engines.iter().map(|e| plan_for(e, true)).collect();
                (Machines::Single(engines), plans, relevance)
            }
            Workload::AuctionUnion2t => {
                let m = multi(paths)?;
                let plan = plan_for(&m, workload.batched());
                let relevance = plan_for(&m, true);
                (Machines::Multi(Box::new(m)), vec![plan], vec![relevance])
            }
        };
        let collectors = if workload == Workload::BookTwig {
            paths
                .iter()
                .map(|p| engine(p).map(FragmentCollector::new))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Layers {
            workload,
            machines,
            plans,
            relevance_plans,
            collectors,
            batches: Vec::new(),
            sink: Vec::new(),
        })
    }

    fn machine_index(&self, k: usize) -> usize {
        match self.machines {
            Machines::Single(_) => query_for_doc(self.workload, k),
            Machines::Multi(_) => 0,
        }
    }

    /// Pass 3: packs `doc` into `self.batches` under `plan`.
    fn build_batches(&mut self, plan: BatchPlan, doc: &[u8]) -> Result<BatchTally, SaxError> {
        let mut producer = BatchProducer::new(SaxReader::new(doc), plan);
        let mut tally = BatchTally::default();
        loop {
            if tally.batches == self.batches.len() {
                self.batches.push(EventBatch::new());
            }
            let batch = &mut self.batches[tally.batches];
            if !producer.next_batch(batch, DEFAULT_BATCH_EVENTS)? {
                return Ok(tally);
            }
            tally.batches += 1;
            tally.scanned += batch.scanned;
            tally.filtered += batch.filtered;
            tally.delivered += batch.len() as u64;
        }
    }

    /// Pass 4: applies the first `used` pre-built batches to machine `m`
    /// and drains its results. Returns the answer and how many distinct
    /// queries matched.
    fn apply(&mut self, m: usize, used: usize) -> (Answer, usize) {
        match &mut self.machines {
            Machines::Single(engines) => {
                let engine = &mut engines[m];
                for batch in &self.batches[..used] {
                    engine.apply_batch(batch);
                }
                let ids: Vec<u64> = engine.take_results().iter().map(|id| id.get()).collect();
                let matched = usize::from(!ids.is_empty());
                (Answer(ids), matched)
            }
            Machines::Multi(engine) => {
                for batch in &self.batches[..used] {
                    engine.apply_batch(batch);
                }
                let tagged = engine.take_tagged_results();
                let mut queries: Vec<usize> = tagged.iter().map(|r| r.query).collect();
                queries.sort_unstable();
                queries.dedup();
                let ids = tagged.iter().map(|r| r.node.get()).collect();
                (Answer(ids), queries.len())
            }
        }
    }

    /// Pass 5: writes the results into the in-memory sink. For fragments
    /// the batches are replayed through the machine's `FragmentCollector`
    /// (which repeats pass 4's engine work). Returns (results, bytes).
    fn output(&mut self, m: usize, used: usize, answer: &Answer) -> (u64, u64) {
        self.sink.clear();
        if let Some(collector) = self.collectors.get_mut(m) {
            for batch in &self.batches[..used] {
                collector.apply_batch(batch);
            }
            collector.take_results();
            let fragments = collector.take_fragments();
            for (_, fragment) in &fragments {
                self.sink.extend_from_slice(fragment.as_bytes());
                self.sink.push(b'\n');
            }
            return (fragments.len() as u64, self.sink.len() as u64);
        }
        for id in &answer.0 {
            writeln!(self.sink, "{id}").expect("writing to a Vec cannot fail");
        }
        (answer.0.len() as u64, self.sink.len() as u64)
    }

    /// Engine counters and Theorem 4.4 bound use over every machine:
    /// merged stats, |Q| summed, and max over machines of
    /// `peak_entries / (|Q| · R)`.
    fn engine_totals(&self, depth: u32) -> (EngineStats, usize, f64) {
        let depth = f64::from(depth.max(1));
        let mut stats = EngineStats::default();
        let (mut size, mut bound) = (0usize, 0f64);
        let mut add = |s: &EngineStats, q: usize| {
            stats.merge(s);
            size += q;
            bound = bound.max(s.peak_entries as f64 / (q.max(1) as f64 * depth));
        };
        match &self.machines {
            Machines::Single(engines) => {
                for e in engines {
                    add(e.stats(), e.machine_size().unwrap_or(0));
                }
            }
            Machines::Multi(m) => add(MultiTwigM::stats(m), MultiTwigM::machine_size(m)),
        }
        (stats, size, bound)
    }
}

/// Exact counts over one pass of the pool. Every field must repeat
/// exactly for one seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    /// Pass-1 `<` hops.
    pub hops: u64,
    /// Reader events.
    pub events: u64,
    /// Events scanned by the batch producer under the driver's plan.
    pub scanned: u64,
    /// Events the relevance prefilter could drop.
    pub droppable: u64,
    /// Engine counters over the pool.
    pub engine: EngineStats,
    /// |Q| summed over compiled machines.
    pub machine_size: usize,
    /// Max `peak_entries / (|Q| · R)`.
    pub bound_frac: f64,
    /// Bytes written by the output pass.
    pub output_bytes: u64,
    /// (query, document) pairs with a match.
    pub matched: u64,
    /// Batches the sharded driver shipped (zero off that path).
    pub pipeline_batches: u64,
    /// Documents whose layer replay disagreed with the oracle.
    pub replay_mismatches: u64,
}

/// One untimed pass over the pool with fresh machines, collecting
/// [`Counts`].
pub fn count_pool(inputs: &Inputs, paths: &[Path], expected: &[Answer]) -> Result<Counts, String> {
    let workload = inputs.workload;
    let mut layers = Layers::new(workload, paths)?;
    let mut driver = Driver::build(workload, paths)?;
    let mut c = Counts::default();
    let err = |e: SaxError| e.to_string();
    for (k, doc) in inputs.docs.iter().enumerate() {
        let m = layers.machine_index(k);
        c.hops += scan_hops(doc);
        c.events += reader_events(doc).map_err(err)?;
        let relevance = layers
            .build_batches(layers.relevance_plans[m].clone(), doc)
            .map_err(err)?;
        c.droppable += relevance.filtered;
        let tally = layers
            .build_batches(layers.plans[m].clone(), doc)
            .map_err(err)?;
        c.scanned += tally.scanned;
        let (answer, matched) = layers.apply(m, tally.batches);
        c.matched += matched as u64;
        c.output_bytes += layers.output(m, tally.batches, &answer).1;
        if answer.normalize() != expected[k] {
            c.replay_mismatches += 1;
        }
        if workload == Workload::AuctionUnion2t {
            driver.process(k, doc)?;
        }
    }
    (c.engine, c.machine_size, c.bound_frac) = layers.engine_totals(inputs.max_depth);
    c.pipeline_batches = driver.pipeline().batches;
    Ok(c)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Pool index of the document.
    pub doc: usize,
    /// Start, in ns since the traced phase began.
    pub start_ns: u64,
    /// End, in ns since the traced phase began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Most spans kept in memory; later documents are timed but not kept.
const SPAN_LIMIT: usize = 200_000;

/// Summed per-pass times over the traced documents.
#[derive(Debug, Default, Clone)]
struct PassTimes {
    scan: Duration,
    reader: Duration,
    batch: Duration,
    engine: Duration,
    output: Duration,
    driver: Duration,
    serial: Duration,
}

/// What the traced run produced.
pub struct TracedRun {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Documents checked (untraced and traced phases).
    pub attempted: u64,
    /// Documents that failed their check.
    pub failed: u64,
    /// The exact counts the count-type metrics come from; the caller
    /// compares them with a recount on a second generation of the seed.
    pub counts: Counts,
    /// The recorded spans.
    pub spans: Vec<Span>,
}

/// Runs the traced measurement: exact counts, an untraced phase for the
/// overhead baseline, then the traced phase for the remaining time and
/// at least one pass over the pool. The set-up metric
/// `xpath.compile_us` is the caller's to add.
pub fn run(
    inputs: &Inputs,
    paths: &[Path],
    expected: &[Answer],
    driver: &mut Driver,
    seconds: f64,
) -> Result<TracedRun, String> {
    let workload = inputs.workload;
    let counts = count_pool(inputs, paths, expected)?;

    let untraced: E2eRun = timed::run(driver, inputs, expected, seconds / 3.0, inputs.docs.len());
    let pipeline_before = driver.pipeline().clone();

    let mut layers = Layers::new(workload, paths)?;
    let mut serial_union = match workload {
        Workload::AuctionUnion2t => Some(multi(paths)?),
        _ => None,
    };
    let mut times = PassTimes::default();
    // Per pool document: best traced driver latency, as in the untraced run.
    let mut driver_best = vec![f64::INFINITY; inputs.docs.len()];
    let (mut bytes, mut delivered, mut results, mut attempted, mut failed) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut events = 0u64;
    let mut spans: Vec<Span> = Vec::new();
    let origin = Instant::now();
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let traced_seconds = seconds - seconds / 3.0;
    let mut i = 0usize;
    while origin.elapsed().as_secs_f64() < traced_seconds || i < inputs.docs.len() {
        let k = i % inputs.docs.len();
        i += 1;
        let doc = &inputs.docs[k];
        let m = layers.machine_index(k);
        let plan = layers.plans[m].clone();
        let keep = spans.len() + 8 <= SPAN_LIMIT;
        let doc_span = spans.len();
        let t0 = Instant::now();
        let hops = scan_hops(doc);
        let t1 = Instant::now();
        let n_events = reader_events(doc).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let tally = layers.build_batches(plan, doc).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let (answer, _) = layers.apply(m, tally.batches);
        let t4 = Instant::now();
        let (n_results, _) = layers.output(m, tally.batches, &answer);
        let t5 = Instant::now();
        let result = driver.process(k, doc);
        let t6 = Instant::now();
        let mut t7 = t6;
        if let Some(serial) = serial_union.as_mut() {
            std::hint::black_box(serial.run(doc.as_slice()).map_err(|e| e.to_string())?);
            t7 = Instant::now();
        }
        std::hint::black_box(hops);
        attempted += 1;
        if !check(result, &expected[k]) {
            failed += 1;
        }
        times.scan += t1 - t0;
        times.reader += t2 - t1;
        times.batch += t3 - t2;
        times.engine += t4 - t3;
        times.output += t5 - t4;
        times.driver += t6 - t5;
        times.serial += t7 - t6;
        driver_best[k] = driver_best[k].min((t6 - t5).as_secs_f64() * 1e3);
        bytes += doc.len() as u64;
        events += n_events;
        delivered += tally.delivered;
        results += n_results;
        if keep {
            spans.push(Span {
                name: "doc",
                doc: k,
                start_ns: ns(t0),
                end_ns: ns(t7),
                parent: None,
            });
            let mut child = |name, a, b| {
                spans.push(Span {
                    name,
                    doc: k,
                    start_ns: ns(a),
                    end_ns: ns(b),
                    parent: Some(doc_span),
                })
            };
            child("scan", t0, t1);
            child("reader", t1, t2);
            child("batch", t2, t3);
            child("engine", t3, t4);
            child("output", t4, t5);
            child("driver", t5, t6);
            if t7 > t6 {
                child("serial_union", t6, t7);
            }
        }
    }

    let pipeline = driver.pipeline().clone();
    let traced_docs = i as f64;
    let fragments = workload == Workload::BookTwig;
    let s = |d: Duration| d.as_secs_f64();
    // The fragment pass replays the engine inside its collector.
    let output_self = if fragments {
        s(times.output) - s(times.engine)
    } else {
        s(times.output)
    };
    let scan_self = s(times.scan);
    let reader_self = s(times.reader) - s(times.scan);
    let batch_self = s(times.batch) - s(times.reader);
    let engine_self = s(times.engine);
    let driver_total = s(times.driver);
    // Only the sharded driver packs batches; the serial drivers' path is
    // scan, reader, engine and output.
    let batch_on_path = if workload.batched() { batch_self } else { 0.0 };
    let layer_sum = scan_self + reader_self + batch_on_path + engine_self + output_self;
    let per = |secs: f64, n: u64| secs * 1e9 / n.max(1) as f64;
    let multi_path = workload == Workload::AuctionUnion2t;
    let on = |exercised: bool, v: f64| if exercised { v } else { 0.0 };
    let e = &counts.engine;
    let work_per_event = e.work() as f64 / e.events().max(1) as f64;
    let queries = paths.len() as f64;
    let match_frac = if multi_path {
        counts.matched as f64 / (queries * inputs.docs.len() as f64)
    } else {
        0.0
    };
    let sharded = workload == Workload::AuctionUnion2t;
    let stalls_per_doc =
        |after: u64, before: u64| after.saturating_sub(before) as f64 / traced_docs;
    let metrics = vec![
        metric("sax.scan.ns_per_byte", per(scan_self, bytes), "ns/B"),
        metric("sax.scan.hops", counts.hops as f64, "count"),
        metric("sax.reader.ns_per_byte", per(reader_self, bytes), "ns/B"),
        metric("sax.reader.ns_per_event", per(reader_self, events), "ns"),
        metric("sax.reader.events", counts.events as f64, "count"),
        metric("sax.batch.ns_per_event", per(batch_self, events), "ns"),
        metric(
            "sax.batch.prefilter_drop_frac",
            counts.droppable as f64 / counts.scanned.max(1) as f64,
            "ratio",
        ),
        metric(
            "core.engine.ns_per_event",
            on(!multi_path, per(engine_self, delivered)),
            "ns",
        ),
        metric(
            "core.engine.work_per_event",
            on(!multi_path, work_per_event),
            "count",
        ),
        metric(
            "core.engine.pushes",
            on(!multi_path, e.pushes as f64),
            "count",
        ),
        metric(
            "core.engine.upload_probes",
            on(!multi_path, e.upload_probes as f64),
            "count",
        ),
        metric(
            "core.engine.candidates_merged",
            on(!multi_path, e.candidates_merged as f64),
            "count",
        ),
        metric(
            "core.engine.peak_entries",
            on(!multi_path, e.peak_entries as f64),
            "count",
        ),
        metric(
            "core.engine.peak_candidates",
            on(!multi_path, e.peak_candidates as f64),
            "count",
        ),
        metric(
            "core.engine.bound_frac",
            on(!multi_path, counts.bound_frac),
            "ratio",
        ),
        metric(
            "core.engine.results_per_push",
            on(!multi_path, e.results as f64 / e.pushes.max(1) as f64),
            "ratio",
        ),
        metric(
            "core.multi.ns_per_event",
            on(multi_path, per(engine_self, delivered)),
            "ns",
        ),
        metric(
            "core.multi.work_per_event",
            on(multi_path, work_per_event),
            "count",
        ),
        metric(
            "core.multi.candidates_merged",
            on(multi_path, e.candidates_merged as f64),
            "count",
        ),
        metric("core.multi.match_frac", match_frac, "ratio"),
        metric("core.output.ns_per_result", per(output_self, results), "ns"),
        metric("core.output.bytes", counts.output_bytes as f64, "B"),
        metric(
            "core.pipeline.speedup_vs_serial",
            on(sharded, s(times.serial) / driver_total),
            "x",
        ),
        metric(
            "core.pipeline.batches",
            counts.pipeline_batches as f64,
            "count",
        ),
        metric(
            "core.pipeline.producer_stalls",
            stalls_per_doc(pipeline.producer_stalls, pipeline_before.producer_stalls),
            "1/doc",
        ),
        metric(
            "core.pipeline.consumer_stalls",
            stalls_per_doc(pipeline.consumer_stalls, pipeline_before.consumer_stalls),
            "1/doc",
        ),
        metric(
            "core.pipeline.max_queue_depth",
            pipeline.max_queue_depth as f64,
            "count",
        ),
        metric("core.machine_size", counts.machine_size as f64, "count"),
        metric(
            "driver.residual_frac",
            (driver_total - layer_sum) / driver_total,
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            driver_best.iter().sum::<f64>() / untraced.best_ms.iter().sum::<f64>() - 1.0,
            "ratio",
        ),
    ];
    Ok(TracedRun {
        metrics,
        attempted: untraced.attempted + attempted,
        failed: untraced.failed + failed,
        counts,
        spans,
    })
}

/// The spans as Chrome trace-event JSON (complete `X` events, one
/// thread, microsecond timestamps), loadable in `chrome://tracing` or
/// Perfetto. `meta` is stored verbatim under `otherData`.
pub fn chrome_trace(spans: &[Span], meta: &str) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\": {}, \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {id}, \"parent\": {parent}, \"doc\": {}}}}}",
            json_str(s.name),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.doc
        ));
    }
    out.push_str("\n], \"displayTimeUnit\": \"ns\", \"otherData\": ");
    out.push_str(meta);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_sized, oracle, parse_queries};

    #[test]
    fn counts_repeat_exactly_for_one_seed() {
        for w in Workload::ALL {
            let a = generate_sized(w, 21, 3, 32 << 10);
            let b = generate_sized(w, 21, 3, 32 << 10);
            let paths = parse_queries(&a).unwrap();
            let expected = oracle(&a, &paths).unwrap();
            let first = count_pool(&a, &paths, &expected).unwrap();
            let second = count_pool(&b, &paths, &expected).unwrap();
            assert_eq!(first, second, "{}", w.name());
            assert_eq!(first.replay_mismatches, 0, "{}", w.name());
            assert!(first.hops > 0 && first.events > first.hops, "{}", w.name());
            assert!(first.engine.events() > 0, "{}", w.name());
        }
    }

    #[test]
    fn hops_count_every_open_angle_bracket() {
        assert_eq!(scan_hops(b"<a><b>x</b></a>"), 4);
        assert_eq!(scan_hops(b"no markup"), 0);
        assert_eq!(reader_events(b"<a><b>x</b></a>").unwrap(), 5);
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let spans = vec![
            Span {
                name: "doc",
                doc: 0,
                start_ns: 0,
                end_ns: 5000,
                parent: None,
            },
            Span {
                name: "scan",
                doc: 0,
                start_ns: 0,
                end_ns: 1000,
                parent: Some(0),
            },
        ];
        let json = chrome_trace(&spans, "{}");
        assert!(json.contains("\"name\": \"scan\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"dur\": 5.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
