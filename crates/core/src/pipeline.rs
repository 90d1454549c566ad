//! Parallel pipelined execution: scan on a producer thread, evaluate on
//! consumer threads.
//!
//! The serial driver ([`crate::engine::run_engine`]) interleaves
//! scanning and evaluation on one thread; end-to-end time is the *sum*
//! of parse and evaluation cost. Both pipelined drivers split that pass
//! over one producer/consumer core:
//!
//! * one **producer thread** runs the [`SaxReader`] and packs events into
//!   fixed-capacity [`EventBatch`]es (interned symbols, flat string
//!   arena — no per-event allocation). The reader skims content below
//!   which no consumer's query node can match (the union of the
//!   consumers' [`StreamEngine::projection`]s over the plan's table),
//!   and the symbol-relevance **prefilter** drops events no consumer can
//!   dispatch on, so neither crosses a queue;
//! * it **broadcasts** each batch, behind an `Arc`, to K bounded
//!   queues, one per consumer (backpressure: the producer blocks when
//!   any consumer lags). Whichever consumer drops the last reference
//!   frees the batch, so live batch memory is only what is in flight.
//!   A side that must wait sleeps at once (see [`Queue`]);
//! * the producer thread returns its counters, or the scan error that
//!   ended the stream, through its `JoinHandle`;
//! * **consumer 0 is the calling thread**, so a single-query engine need
//!   not be `Send`; consumers 1..K are spawned workers. Every consumer
//!   runs the same loop.
//!
//! [`run_engine_pipelined`] is the core with one consumer. There the
//! plan's symbol table is that consumer's own, so the stored symbols are
//! dispatched directly ([`StreamEngine::apply_batch`]). [`run_multi_sharded`]
//! puts one [`MultiTwigM`] shard on each consumer. Each shard interns its
//! own symbol space, so the producer scans under a name-merged union
//! table and each consumer converts the stored symbols into its own
//! through a dense array built once per run ([`replay_batch`] with
//! `Some(remap)`). Shard results are merged deterministically in
//! document order.
//!
//! End-to-end time becomes `max(parse, evaluate)` plus hand-off overhead
//! instead of `parse + evaluate`, and the prefilter shrinks the
//! `evaluate` term further. Every configuration returns byte-identical
//! results, and the same scan error, as the serial driver; the
//! differential suite in `twigm-testkit` enforces this over the
//! generator corpus.

use std::collections::VecDeque;
use std::io::Read;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use twigm_sax::batch::{BatchPlan, BatchProducer, EventBatch, DEFAULT_BATCH_EVENTS};
use twigm_sax::{NodeId, Projection, SaxError, SaxReader, Symbol, SymbolTable};

use crate::engine::{replay_batch, StreamEngine};
use crate::multi::MultiTwigM;
use crate::relevance::{union_projection, Relevance};
use crate::stats::EngineStats;

/// Tuning knobs for the pipelined drivers.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Events per batch (default [`DEFAULT_BATCH_EVENTS`]).
    pub batch_events: usize,
    /// Queue capacity in batches; the producer can run at most
    /// this far ahead of the slowest consumer.
    pub queue_depth: usize,
    /// Apply the symbol-relevance prefilter and the path projection at
    /// the producer. Off, every event is delivered — the ablation
    /// baseline.
    pub prefilter: bool,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            batch_events: DEFAULT_BATCH_EVENTS,
            queue_depth: 4,
            prefilter: true,
        }
    }
}

/// Counters from one pipelined run — the queue-health picture the
/// engine's own [`EngineStats`] cannot see.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Threads that touched the stream (producer + consumers).
    pub threads: usize,
    /// Batches handed to the consumers.
    pub batches: u64,
    /// Reader events scanned by the producer.
    pub events_scanned: u64,
    /// Events delivered to engines after the prefilter.
    pub events_delivered: u64,
    /// Events the prefilter dropped (plus ignored comments/PIs).
    pub events_filtered: u64,
    /// Times the producer found a queue full and had to block.
    pub producer_stalls: u64,
    /// Times a consumer found its queue empty and had to block.
    pub consumer_stalls: u64,
    /// Peak number of batches in flight to one consumer, sampled by the
    /// producer just before each hand-off (the batch being handed over
    /// counts).
    pub max_queue_depth: u64,
    /// Bytes consumed from the input stream.
    pub bytes: u64,
    /// Events the producer's reader skimmed under the projection (never
    /// scanned into a batch).
    pub events_skipped: u64,
    /// Bytes of element content the producer's reader skimmed.
    pub bytes_skipped: u64,
    /// Deepest element nesting the producer's reader saw, skimmed
    /// content included — the recursion depth `R` of the document.
    pub max_depth: u32,
}

/// Builds the producer's delivery plan for a set of consumers, and the
/// union of their projections over the plan's table (`None` when
/// `prefilter` is off or any consumer has none). The table interns
/// every consumer's names in order, so for one consumer it equals that
/// consumer's own table; attribute needs and relevance are merged
/// name-wise. An engine without a table contributes no names: every tag
/// it sees is `Symbol::UNKNOWN`, as in the serial driver.
fn plan_for(consumers: &[&dyn StreamEngine], prefilter: bool) -> (BatchPlan, Option<Projection>) {
    let no_table = SymbolTable::new();
    let tables: Vec<&SymbolTable> = consumers
        .iter()
        .map(|c| c.symbols().unwrap_or(&no_table))
        .collect();
    let mut table = SymbolTable::new();
    for local in &tables {
        for (_, name) in local.iter() {
            table.intern(name);
        }
    }
    let attr_syms = table
        .iter()
        .map(|(_, name)| {
            consumers.iter().zip(&tables).any(|(c, local)| {
                let sym = local.lookup(name);
                sym.is_known() && c.needs_attributes(sym)
            })
        })
        .collect();
    let attr_unknown = consumers
        .iter()
        .any(|c| c.needs_attributes(Symbol::UNKNOWN));
    let mut relevant = prefilter.then(|| vec![false; table.len()]);
    let mut wants_text = false;
    for (c, local) in consumers.iter().zip(&tables) {
        let rel = if prefilter {
            c.relevance()
        } else {
            Relevance::all()
        };
        wants_text |= rel.wants_text;
        match (&mut relevant, rel.symbols) {
            (Some(union), Some(own)) => {
                for (sym, name) in local.iter() {
                    if own.get(sym.index().expect("iterated symbols are known")) == Some(&true) {
                        union[table.lookup(name).index().expect("interned above")] = true;
                    }
                }
            }
            (slot, _) => *slot = None,
        }
    }
    let projection = if prefilter {
        union_projection(
            consumers
                .iter()
                .zip(&tables)
                .map(|(c, local)| Some(c.projection()?.remap(local, &table))),
        )
    } else {
        None
    };
    let plan = BatchPlan {
        table,
        attr_syms,
        attr_unknown,
        relevant,
        wants_text,
    };
    (plan, projection)
}

/// The bounded queue of batches between the producer and one consumer.
///
/// A consumer that outpaces its producer finds its queue empty once per
/// batch. `std::sync::mpsc` spins and yields before a receiver sleeps,
/// so every such wait burnt CPU on top of the sleep and wake-up. Here a
/// side that must wait sleeps on a condition variable at once, and the
/// other side signals only when that side is asleep.
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled when a batch arrives or the producer leaves.
    filled: Condvar,
    /// Signalled when a batch is taken or the consumer leaves.
    drained: Condvar,
    capacity: usize,
}

#[derive(Default)]
struct QueueState {
    batches: VecDeque<Arc<EventBatch>>,
    /// The producer is done: no batch follows those queued.
    closed: bool,
    /// The consumer is gone: nothing queued will be taken.
    abandoned: bool,
    consumer_asleep: bool,
    producer_asleep: bool,
}

impl Queue {
    fn new(capacity: usize) -> Queue {
        Queue {
            state: Mutex::new(QueueState::default()),
            filled: Condvar::new(),
            drained: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The state behind the lock. Every critical section leaves it
    /// consistent, so a panic elsewhere in a holder's thread cannot
    /// corrupt it.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `batch`, sampling the depth first so the batch being
    /// handed over counts, and blocking while the queue is full.
    /// `false` when the consumer is gone.
    fn push(&self, batch: Arc<EventBatch>, stats: &mut PipelineStats) -> bool {
        let mut state = self.lock();
        stats.max_queue_depth = stats.max_queue_depth.max(state.batches.len() as u64 + 1);
        if state.batches.len() >= self.capacity && !state.abandoned {
            stats.producer_stalls += 1;
            state.producer_asleep = true;
            while state.batches.len() >= self.capacity && !state.abandoned {
                state = self
                    .drained
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.producer_asleep = false;
        }
        if state.abandoned {
            return false;
        }
        state.batches.push_back(batch);
        let wake = state.consumer_asleep;
        drop(state);
        if wake {
            self.filled.notify_one();
        }
        true
    }

    /// Takes the next batch, blocking while the queue is empty and the
    /// producer still running; `None` once the producer is done and the
    /// queue is drained. Counts each wait in `stalls`.
    fn pop(&self, stalls: &mut u64) -> Option<Arc<EventBatch>> {
        let mut state = self.lock();
        if state.batches.is_empty() && !state.closed {
            *stalls += 1;
            state.consumer_asleep = true;
            while state.batches.is_empty() && !state.closed {
                state = self
                    .filled
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.consumer_asleep = false;
        }
        let batch = state.batches.pop_front()?;
        let wake = state.producer_asleep;
        drop(state);
        if wake {
            self.drained.notify_one();
        }
        Some(batch)
    }
}

/// The producer's end of a [`Queue`]; dropping it, on any path out of
/// the producer, tells the consumer no batch follows.
struct Sender<'q>(&'q Queue);

impl Drop for Sender<'_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.filled.notify_one();
    }
}

/// The consumer's end of a [`Queue`]; dropping it, as a consumer that
/// panics does, releases a producer blocked on a full queue.
struct Receiver<'q>(&'q Queue);

impl Drop for Receiver<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.abandoned = true;
        state.batches.clear();
        drop(state);
        self.0.drained.notify_one();
    }
}

/// The producer loop: scans `src` under `plan` and broadcasts every
/// batch to each queue in `txs`. Returns every [`PipelineStats`]
/// counter it owns (all but `threads` and `consumer_stalls`), or the
/// scan error that ended the stream.
///
/// A consumer waits for the first batch to fill before it starts, and
/// every batch holds back the results its events decide until it
/// ships, so `batch_events` sets both the pipeline's start-up bubble
/// and the memory in flight: at most `queue_depth` batches queued per
/// consumer, one being filled, and one being applied.
fn produce<R: Read>(
    src: R,
    (plan, projection): (BatchPlan, Option<Projection>),
    batch_events: usize,
    txs: Vec<Sender<'_>>,
) -> Result<PipelineStats, SaxError> {
    let reader = SaxReader::new(src).with_projection(projection);
    let mut producer = BatchProducer::new(reader, plan);
    let mut stats = PipelineStats::default();
    loop {
        // A fresh batch each time, freed when its last consumer drops it:
        // a recycling pool would keep a full batch parked while the next
        // one fills, which raises the peak heap by about a batch.
        let mut batch = EventBatch::new();
        if !producer.next_batch(&mut batch, batch_events)? {
            break;
        }
        stats.batches += 1;
        stats.events_scanned += batch.scanned;
        stats.events_filtered += batch.filtered;
        stats.events_delivered += batch.len() as u64;
        let batch = Arc::new(batch);
        let handed = txs
            .iter()
            .all(|tx| tx.0.push(Arc::clone(&batch), &mut stats));
        if !handed {
            break;
        }
    }
    stats.bytes = producer.bytes_consumed();
    stats.events_skipped = producer.events_skipped();
    stats.bytes_skipped = producer.bytes_skipped();
    stats.max_depth = producer.max_depth();
    // Dropping `txs` closes every consumer queue.
    Ok(stats)
}

/// The consumer loop: applies every batch from `rx` to `engine`. With
/// `remap`, the stored symbols are converted through it (the producer
/// ran under a union table); without it they are the engine's own.
/// Returns the number of times the queue was empty.
fn consume<E: StreamEngine + ?Sized>(
    engine: &mut E,
    rx: Receiver<'_>,
    remap: Option<Vec<Symbol>>,
) -> u64 {
    let mut stalls = 0;
    while let Some(batch) = rx.0.pop(&mut stalls) {
        match &remap {
            None => engine.apply_batch(&batch),
            Some(remap) => replay_batch(engine, &batch, Some(remap)),
        }
    }
    stalls
}

/// The one pipeline core: a producer thread feeding `first` on the
/// calling thread and each of `workers` on a thread of its own. Returns
/// the workers, in order, with the run's counters.
fn run_batched<E: StreamEngine, R: Read + Send>(
    first: &mut E,
    workers: Vec<MultiTwigM>,
    src: R,
    opts: &PipelineOptions,
) -> Result<(Vec<MultiTwigM>, PipelineStats), SaxError> {
    let consumers = workers.len() + 1;
    let plan = {
        let mut all: Vec<&dyn StreamEngine> = vec![&*first];
        all.extend(workers.iter().map(|w| w as &dyn StreamEngine));
        plan_for(&all, opts.prefilter)
    };
    // One consumer owns the plan's table; several each convert the
    // plan's symbols into their own.
    let no_table = SymbolTable::new();
    let remap = |e: &dyn StreamEngine| {
        (consumers > 1).then(|| plan.0.table.translation(e.symbols().unwrap_or(&no_table)))
    };
    let first_remap = remap(&*first);
    let worker_remaps: Vec<_> = workers.iter().map(|w| remap(w)).collect();
    let batch_events = opts.batch_events.max(1);
    let queue_depth = opts.queue_depth.max(1);

    let queues: Vec<Queue> = (0..consumers).map(|_| Queue::new(queue_depth)).collect();
    let txs = queues.iter().map(Sender).collect();
    let mut rxs = queues.iter().map(Receiver);
    let first_rx = rxs.next().expect("at least one consumer");

    thread::scope(|scope| {
        let producer = scope.spawn(move || produce(src, plan, batch_events, txs));
        let handles: Vec<_> = workers
            .into_iter()
            .zip(worker_remaps)
            .zip(rxs)
            .map(|((mut worker, remap), rx)| {
                scope.spawn(move || {
                    let stalls = consume(&mut worker, rx, remap);
                    (worker, stalls)
                })
            })
            .collect();
        let mut consumer_stalls = consume(first, first_rx, first_remap);
        let workers = handles
            .into_iter()
            .map(|h| {
                let (worker, stalls) = h.join().expect("shard worker panicked");
                consumer_stalls += stalls;
                worker
            })
            .collect();
        let stats = producer.join().expect("pipeline producer panicked")?;
        Ok((
            workers,
            PipelineStats {
                threads: consumers + 1,
                consumer_stalls,
                ..stats
            },
        ))
    })
}

/// Runs `engine` over `src` with scanning pipelined onto a producer
/// thread. Results are identical to [`crate::engine::run_engine`]; the
/// engine itself stays on the calling thread (it need not be `Send`).
pub fn run_engine_pipelined<E: StreamEngine, R: Read + Send>(
    mut engine: E,
    src: R,
    opts: &PipelineOptions,
) -> Result<(Vec<NodeId>, E, PipelineStats), SaxError> {
    let (_, stats) = run_batched(&mut engine, Vec::new(), src, opts)?;
    let results = engine.take_results();
    Ok((results, engine, stats))
}

/// The merged output of a sharded multi-query run.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// Union of all shard results, deduplicated and sorted in document
    /// order — identical to [`crate::engine::evaluate_union`] over the
    /// same query set.
    pub ids: Vec<NodeId>,
    /// Engine counters merged across shards as [`EngineStats::merge`]
    /// adds up documents, with two exceptions. `start_events` and
    /// `end_events` are counted once: every shard sees the same
    /// delivered events. `peak_entries` and `peak_candidates` are the
    /// *sum* of the shard peaks, not their maximum: the shards hold
    /// their state at the same time. The shards need not peak at the
    /// same moment, so the sum is an upper bound on what was ever live
    /// at once.
    pub stats: EngineStats,
    /// Total machine-node count |Q| summed over every shard.
    pub machine_size: usize,
    /// Queue-health counters for the run.
    pub pipeline: PipelineStats,
}

/// Runs a union workload sharded across `shards.len()` consumers.
///
/// Each shard is a [`MultiTwigM`] holding a partition of the query set.
/// Shard 0 runs on the calling thread and every other shard on a worker
/// thread; one producer thread scans `src` and broadcasts every batch to
/// all of them (see the module docs for how symbols reach each shard).
/// Results are merged exactly as [`crate::engine::evaluate_union`]
/// merges them — concatenate, sort by pre-order id, deduplicate — so
/// the output is byte-identical to the serial union regardless of shard
/// count or scheduling.
pub fn run_multi_sharded<R: Read + Send>(
    shards: Vec<MultiTwigM>,
    src: R,
    opts: &PipelineOptions,
) -> Result<ShardedOutcome, SaxError> {
    let mut shards = shards.into_iter();
    let mut first = shards.next().expect("sharded run needs at least one shard");
    let (rest, pipeline) = run_batched(&mut first, shards.collect(), src, opts)?;

    // Every shard is fed the same batches, so the event counts are
    // counted once; the work, results and live state of the shards add
    // up.
    let events = (first.stats().start_events, first.stats().end_events);
    let mut stats = EngineStats::default();
    let mut peaks = (0, 0);
    let mut machine_size = 0usize;
    let mut ids = Vec::new();
    for mut engine in std::iter::once(first).chain(rest) {
        stats.merge(engine.stats());
        peaks.0 += engine.stats().peak_entries;
        peaks.1 += engine.stats().peak_candidates;
        machine_size += engine.machine_size();
        ids.extend(StreamEngine::take_results(&mut engine));
    }
    (stats.start_events, stats.end_events) = events;
    (stats.peak_entries, stats.peak_candidates) = peaks;
    ids.sort_unstable();
    ids.dedup();
    Ok(ShardedOutcome {
        ids,
        stats,
        machine_size,
        pipeline,
    })
}

/// Partitions `branches` round-robin into at most `shards` multi-query
/// engines (fewer when there are fewer branches), each with its own
/// private symbol space — the unit [`run_multi_sharded`] consumes.
pub fn shard_queries(
    branches: &[twigm_xpath::Path],
    shards: usize,
) -> Result<Vec<MultiTwigM>, crate::machine::MachineError> {
    let shards = shards.clamp(1, branches.len().max(1));
    let mut engines: Vec<MultiTwigM> = (0..shards).map(|_| MultiTwigM::new()).collect();
    for (i, branch) in branches.iter().enumerate() {
        engines[i % shards].add_query(branch)?;
    }
    Ok(engines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{evaluate_union, run_engine, Engine};
    use twigm_xpath::{parse, parse_union};

    fn serial_ids(query: &str, xml: &[u8]) -> Vec<u64> {
        let engine = Engine::new(&parse(query).unwrap()).unwrap();
        let (ids, _) = run_engine(engine, xml).unwrap();
        ids.into_iter().map(|id| id.get()).collect()
    }

    fn pipelined_ids(query: &str, xml: &[u8], opts: &PipelineOptions) -> Vec<u64> {
        let engine = Engine::new(&parse(query).unwrap()).unwrap();
        let (ids, _, _) = run_engine_pipelined(engine, xml, opts).unwrap();
        ids.into_iter().map(|id| id.get()).collect()
    }

    fn nested_doc() -> Vec<u8> {
        let mut xml = String::from("<r>");
        for i in 0..200 {
            xml.push_str(&format!(
                "<a k=\"{i}\"><noise><b>deep</b></noise><b>t{i}</b><c>{i}</c></a>"
            ));
            xml.push_str("<junk>filler<junk>more</junk></junk>");
        }
        xml.push_str("</r>");
        xml.into_bytes()
    }

    #[test]
    fn pipelined_matches_serial_across_query_classes() {
        let xml = nested_doc();
        let opts = PipelineOptions::default();
        for query in [
            "//a/b",
            "//a[c]/b",
            "/r/a/c",
            "//a[@k]/c",
            "//a[c = '7']/b",
            "//a/*",
            "/r/a[2]",
        ] {
            assert_eq!(
                pipelined_ids(query, &xml, &opts),
                serial_ids(query, &xml),
                "query {query}"
            );
        }
    }

    #[test]
    fn tiny_batches_and_queue_still_agree() {
        let xml = nested_doc();
        let opts = PipelineOptions {
            batch_events: 3,
            queue_depth: 1,
            prefilter: true,
        };
        assert_eq!(
            pipelined_ids("//a[c]/b", &xml, &opts),
            serial_ids("//a[c]/b", &xml)
        );
    }

    /// A batch told apart from the others by its `scanned` count.
    fn numbered(n: u64) -> Arc<EventBatch> {
        let mut batch = EventBatch::new();
        batch.scanned = n;
        Arc::new(batch)
    }

    #[test]
    fn queue_hands_over_in_order_then_ends() {
        let queue = Queue::new(1);
        let mut stats = PipelineStats::default();
        let mut stalls = 0;
        let mut seen = Vec::new();
        thread::scope(|scope| {
            let tx = Sender(&queue);
            let stats = &mut stats;
            scope.spawn(move || {
                for n in 0..50 {
                    assert!(tx.0.push(numbered(n), stats));
                }
                drop(tx);
            });
            let rx = Receiver(&queue);
            while let Some(batch) = rx.0.pop(&mut stalls) {
                seen.push(batch.scanned);
            }
        });
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        assert!(
            (1..=2).contains(&stats.max_queue_depth),
            "at most one queued plus the one handed over: {stats:?}"
        );
    }

    #[test]
    fn a_gone_consumer_releases_a_blocked_producer() {
        let queue = Queue::new(1);
        let rx = Receiver(&queue);
        thread::scope(|scope| {
            let producer = scope.spawn(|| {
                let tx = Sender(&queue);
                let mut stats = PipelineStats::default();
                // The first fills the queue; the second blocks until the
                // consumer's end goes, and is refused.
                (
                    tx.0.push(numbered(0), &mut stats),
                    tx.0.push(numbered(1), &mut stats),
                )
            });
            while !queue.lock().producer_asleep {
                thread::yield_now();
            }
            drop(rx);
            assert_eq!(producer.join().unwrap(), (true, false));
        });
        assert!(
            queue.lock().batches.is_empty(),
            "a gone consumer's batches are freed"
        );
    }

    #[test]
    fn prefilter_drops_events_without_changing_results() {
        let xml = nested_doc();
        let on = PipelineOptions::default();
        let off = PipelineOptions {
            prefilter: false,
            ..PipelineOptions::default()
        };
        let run = |opts: &PipelineOptions| {
            let engine = Engine::new(&parse("//a[c]/b").unwrap()).unwrap();
            run_engine_pipelined(engine, &xml[..], opts).unwrap()
        };
        let (ids_on, _, stats_on) = run(&on);
        let (ids_off, _, stats_off) = run(&off);
        assert_eq!(ids_on, ids_off);
        assert_eq!(stats_on.events_scanned, stats_off.events_scanned);
        assert!(
            stats_on.events_filtered > stats_off.events_filtered,
            "prefilter should drop the junk/noise subtrees: {stats_on:?}"
        );
        assert_eq!(
            stats_on.events_delivered + stats_on.events_filtered,
            stats_on.events_scanned
        );
        assert_eq!(stats_on.bytes, xml.len() as u64);
    }

    #[test]
    fn text_after_skipped_subtree_routes_by_document_level() {
        // The skipped <noise> subtree must not desynchronize text
        // routing for the predicate on <a>'s direct text.
        let xml = b"<r><a><noise><x>zz</x></noise>hit</a><a><noise/>miss!</a></r>";
        let query = "//a[text() = 'hit']";
        let opts = PipelineOptions::default();
        assert_eq!(pipelined_ids(query, xml, &opts), serial_ids(query, xml));
        assert_eq!(pipelined_ids(query, xml, &opts), vec![1]);
    }

    #[test]
    fn pipelined_surfaces_scan_errors() {
        let engine = Engine::new(&parse("//a").unwrap()).unwrap();
        let err = run_engine_pipelined(engine, &b"<r><a></r>"[..], &PipelineOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn sharded_union_matches_serial_union() {
        let xml = nested_doc();
        let branches =
            parse_union("//a/b | //a[c]/b | //junk/junk | //a[@k = '3'] | //nothing").unwrap();
        let serial: Vec<u64> = evaluate_union(&branches, &xml[..])
            .unwrap()
            .into_iter()
            .map(|id| id.get())
            .collect();
        for shard_count in [1, 2, 4] {
            let shards = shard_queries(&branches, shard_count).unwrap();
            let outcome = run_multi_sharded(shards, &xml[..], &PipelineOptions::default()).unwrap();
            let got: Vec<u64> = outcome.ids.iter().map(|id| id.get()).collect();
            assert_eq!(got, serial, "shards = {shard_count}");
            assert_eq!(
                outcome.pipeline.threads,
                shard_count.min(branches.len()) + 1
            );
            assert_eq!(outcome.pipeline.bytes, xml.len() as u64);
            assert_eq!(outcome.pipeline.max_depth, 4);
            // Each shard is fed every delivered event: counted once.
            let delivered = outcome.pipeline.events_delivered;
            assert!(outcome.stats.events() <= delivered, "{outcome:?}");
        }
    }

    #[test]
    fn sharded_union_handles_disjoint_vocabularies() {
        // Shard 0 knows only {a, b}; shard 1 only {junk}. The producer's
        // union table must cover both, and each worker must re-map
        // names it has never interned to UNKNOWN.
        let xml = nested_doc();
        let branches = parse_union("//a/b | //junk//junk").unwrap();
        let serial: Vec<u64> = evaluate_union(&branches, &xml[..])
            .unwrap()
            .into_iter()
            .map(|id| id.get())
            .collect();
        let shards = shard_queries(&branches, 2).unwrap();
        assert_eq!(shards.len(), 2);
        let outcome = run_multi_sharded(shards, &xml[..], &PipelineOptions::default()).unwrap();
        let got: Vec<u64> = outcome.ids.iter().map(|id| id.get()).collect();
        assert_eq!(got, serial);
    }

    #[test]
    fn unknown_tags_under_delivered_elements_remap_to_unknown() {
        // Disjoint shard vocabularies ({a, b} and {d, e}), tags neither
        // knows (`u`, `v`) nested under elements each shard delivers,
        // and text for the `[e = ..]` predicate: every name the producer
        // did not intern reaches both workers as UNKNOWN, and a name only
        // the other shard knows maps to UNKNOWN on this one.
        let mut xml = String::from("<r>");
        for i in 0..60 {
            xml.push_str(&format!(
                "<a><u><b>{i}</b><v/></u><b/></a><d><u><e>x</e></u><e>x</e></d>"
            ));
        }
        xml.push_str("</r>");
        let branches = parse_union("//a//b | //d[e = 'x']//u").unwrap();
        let serial: Vec<u64> = evaluate_union(&branches, xml.as_bytes())
            .unwrap()
            .into_iter()
            .map(|id| id.get())
            .collect();
        assert!(!serial.is_empty());
        let opts = PipelineOptions {
            batch_events: 5,
            queue_depth: 1,
            prefilter: false,
        };
        for opts in [
            opts.clone(),
            PipelineOptions {
                prefilter: true,
                ..opts
            },
        ] {
            let shards = shard_queries(&branches, 2).unwrap();
            let outcome = run_multi_sharded(shards, xml.as_bytes(), &opts).unwrap();
            let got: Vec<u64> = outcome.ids.iter().map(|id| id.get()).collect();
            assert_eq!(got, serial, "{opts:?}");
        }
    }

    #[test]
    fn sharded_live_state_is_at_least_the_serial_union() {
        let xml = b"<r><a><b/><a><b/><a><b/><c/></a></a></a><d><e/></d></r>";
        let branches = parse_union("//a[b]//c | //a//b | //d[e]").unwrap();
        let mut serial = MultiTwigM::new();
        for branch in &branches {
            serial.add_query(branch).unwrap();
        }
        let (_, serial) = run_engine(serial, &xml[..]).unwrap();
        let serial = serial.stats().clone();
        for shard_count in [2, 3] {
            let shards = shard_queries(&branches, shard_count).unwrap();
            let outcome = run_multi_sharded(shards, &xml[..], &PipelineOptions::default()).unwrap();
            assert!(
                outcome.stats.peak_entries >= serial.peak_entries,
                "{shard_count} shards: {} < {}",
                outcome.stats.peak_entries,
                serial.peak_entries
            );
            assert!(outcome.stats.peak_candidates >= serial.peak_candidates);
        }
    }

    #[test]
    fn sharded_run_surfaces_scan_errors() {
        let branches = parse_union("//a | //b").unwrap();
        let shards = shard_queries(&branches, 2).unwrap();
        let err = run_multi_sharded(shards, &b"<r><a>"[..], &PipelineOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn shard_queries_partitions_round_robin() {
        let branches = parse_union("//a | //b | //c").unwrap();
        let shards = shard_queries(&branches, 2).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].query_count(), 2);
        assert_eq!(shards[1].query_count(), 1);
        // More shards than branches collapses to one per branch.
        let shards = shard_queries(&branches, 8).unwrap();
        assert_eq!(shards.len(), 3);
    }

    #[test]
    fn pipeline_stats_account_for_the_stream() {
        let xml = nested_doc();
        let opts = PipelineOptions {
            batch_events: 64,
            ..PipelineOptions::default()
        };
        let engine = Engine::new(&parse("//a/b").unwrap()).unwrap();
        let (_, _, single) = run_engine_pipelined(engine, &xml[..], &opts).unwrap();
        let shards = shard_queries(&parse_union("//a/b | //junk").unwrap(), 2).unwrap();
        let sharded = run_multi_sharded(shards, &xml[..], &opts).unwrap().pipeline;
        for (stats, threads) in [(single, 2), (sharded, 3)] {
            assert_eq!(stats.threads, threads);
            assert!(stats.batches > 1);
            assert!(stats.events_scanned > 0);
            assert_eq!(
                stats.events_delivered + stats.events_filtered,
                stats.events_scanned
            );
            // Sampled before each hand-off, so never 0 once a batch ships.
            assert!(stats.max_queue_depth >= 1, "{stats:?}");
        }
    }
}
