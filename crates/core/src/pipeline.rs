//! Parallel pipelined execution: scan on a producer thread, evaluate on
//! consumer threads.
//!
//! The serial driver ([`crate::engine::run_engine`]) interleaves
//! scanning and evaluation on one thread; end-to-end time is the *sum*
//! of parse and evaluation cost. The pipelined driver decouples them:
//!
//! * a **producer thread** runs the [`SaxReader`] and packs events into
//!   fixed-capacity [`EventBatch`]es (interned symbols, flat string
//!   arena — no per-event allocation), applying the symbol-relevance
//!   **prefilter** so events no query can dispatch on never cross the
//!   channel;
//! * batches flow through a **bounded channel** (backpressure: the
//!   producer blocks when consumers lag) and drained batches are
//!   recycled back, so the steady state performs no per-batch heap
//!   traffic;
//! * the **consumer** applies whole batches via
//!   [`StreamEngine::apply_batch`] on the calling thread
//!   ([`run_engine_pipelined`]), or — for multi-query union workloads —
//!   the query set is **sharded** across worker threads that each
//!   receive a broadcast of the batch stream
//!   ([`run_multi_sharded`]), with results merged deterministically in
//!   document order.
//!
//! End-to-end time becomes `max(parse, evaluate)` plus channel overhead
//! instead of `parse + evaluate`, and the prefilter shrinks the
//! `evaluate` term further. Every configuration returns byte-identical
//! results to the serial driver; the differential suite in
//! `twigm-testkit` enforces this over the generator corpus.

use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;

use twigm_sax::batch::{BatchPlan, BatchProducer, EventBatch, DEFAULT_BATCH_EVENTS};
use twigm_sax::{NodeId, SaxError, SaxReader, Symbol, SymbolTable};

use crate::engine::{replay_batch, StreamEngine};
use crate::multi::MultiTwigM;
use crate::relevance::Relevance;
use crate::stats::EngineStats;

/// Tuning knobs for the pipelined drivers.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Events per batch (default [`DEFAULT_BATCH_EVENTS`]).
    pub batch_events: usize,
    /// Bounded-channel capacity in batches; the producer can run at most
    /// this far ahead of the slowest consumer.
    pub queue_depth: usize,
    /// Apply the symbol-relevance prefilter at the producer. Off, every
    /// event is delivered — the ablation baseline.
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
    /// Batches shipped across the channel.
    pub batches: u64,
    /// Reader events scanned by the producer.
    pub events_scanned: u64,
    /// Events delivered to engines after the prefilter.
    pub events_delivered: u64,
    /// Events the prefilter dropped (plus ignored comments/PIs).
    pub events_filtered: u64,
    /// Times the producer found the queue full and had to block.
    pub producer_stalls: u64,
    /// Times a consumer found the queue empty and had to block.
    pub consumer_stalls: u64,
    /// Peak number of in-flight batches observed.
    pub max_queue_depth: u64,
    /// Bytes consumed from the input stream.
    pub bytes: u64,
}

/// Builds the producer-side delivery plan from a consuming engine:
/// clones its interner, snapshots its per-symbol attribute needs, and —
/// when `prefilter` is on — its relevance analysis.
fn plan_for<E: StreamEngine>(engine: &E, table: SymbolTable, prefilter: bool) -> BatchPlan {
    let attr_syms = table
        .iter()
        .map(|(sym, _)| engine.needs_attributes(sym))
        .collect();
    let attr_unknown = engine.needs_attributes(Symbol::UNKNOWN);
    let rel = if prefilter {
        engine.relevance()
    } else {
        Relevance::all()
    };
    BatchPlan {
        table,
        attr_syms,
        attr_unknown,
        relevant: rel.symbols,
        wants_text: rel.wants_text,
    }
}

/// What flows producer → consumer: a recycled batch, or the scan error
/// that ended the stream.
type BatchMsg = Result<Box<EventBatch>, SaxError>;

/// Runs `engine` over `src` with scanning pipelined onto a producer
/// thread. Results are identical to [`crate::engine::run_engine`]; the
/// engine itself stays on the calling thread (it need not be `Send`).
pub fn run_engine_pipelined<E: StreamEngine, R: Read + Send>(
    mut engine: E,
    src: R,
    opts: &PipelineOptions,
) -> Result<(Vec<NodeId>, E, PipelineStats), SaxError> {
    // An engine without a table gets an empty one: every tag is
    // `Symbol::UNKNOWN`, as in the serial driver.
    let table = engine.symbols().cloned().unwrap_or_default();
    let plan = plan_for(&engine, table, opts.prefilter);
    let batch_events = opts.batch_events.max(1);
    let queue_depth = opts.queue_depth.max(1);

    let (full_tx, full_rx) = sync_channel::<BatchMsg>(queue_depth);
    let (free_tx, free_rx) = std::sync::mpsc::channel::<Box<EventBatch>>();
    // Seed the recycle loop: queue_depth in flight, one being filled,
    // one being consumed.
    for _ in 0..queue_depth + 2 {
        free_tx
            .send(Box::new(EventBatch::new()))
            .expect("receiver held");
    }

    let producer_stalls = AtomicU64::new(0);
    let bytes = AtomicU64::new(0);
    let sent = AtomicU64::new(0);
    let received = AtomicU64::new(0);
    let max_depth = AtomicU64::new(0);

    let mut stats = PipelineStats {
        threads: 2,
        ..PipelineStats::default()
    };
    let mut error: Option<SaxError> = None;

    thread::scope(|scope| {
        let producer_stalls = &producer_stalls;
        let bytes = &bytes;
        let sent = &sent;
        let received = &received;
        let max_depth = &max_depth;
        scope.spawn(move || {
            let mut producer = BatchProducer::new(SaxReader::new(src), plan);
            while let Ok(mut batch) = free_rx.recv() {
                match producer.next_batch(&mut batch, batch_events) {
                    Ok(true) => {
                        let mut msg = Ok(batch);
                        match full_tx.try_send(msg) {
                            Ok(()) => {}
                            Err(TrySendError::Full(back)) => {
                                producer_stalls.fetch_add(1, Ordering::Relaxed);
                                msg = back;
                                if full_tx.send(msg).is_err() {
                                    break;
                                }
                            }
                            Err(TrySendError::Disconnected(_)) => break,
                        }
                        let in_flight = sent.fetch_add(1, Ordering::Relaxed) + 1
                            - received.load(Ordering::Relaxed);
                        max_depth.fetch_max(in_flight, Ordering::Relaxed);
                    }
                    Ok(false) => break,
                    Err(e) => {
                        let _ = full_tx.send(Err(e));
                        break;
                    }
                }
            }
            bytes.store(producer.bytes_consumed(), Ordering::Relaxed);
        });

        // Consumer: the calling thread, so `E: Send` is not required.
        loop {
            let msg = match full_rx.try_recv() {
                Ok(msg) => msg,
                Err(TryRecvError::Empty) => {
                    stats.consumer_stalls += 1;
                    match full_rx.recv() {
                        Ok(msg) => msg,
                        Err(_) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => break,
            };
            let batch = match msg {
                Ok(batch) => batch,
                Err(e) => {
                    error = Some(e);
                    break;
                }
            };
            received.fetch_add(1, Ordering::Relaxed);
            stats.batches += 1;
            stats.events_scanned += batch.scanned;
            stats.events_filtered += batch.filtered;
            stats.events_delivered += batch.len() as u64;
            engine.apply_batch(&batch);
            // Recycle; the producer may already be gone.
            let _ = free_tx.send(batch);
        }
    });

    if let Some(e) = error {
        return Err(e);
    }
    stats.producer_stalls = producer_stalls.load(Ordering::Relaxed);
    stats.max_queue_depth = max_depth.load(Ordering::Relaxed);
    stats.bytes = bytes.load(Ordering::Relaxed);
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
    /// Engine counters merged across shards (sums and maxes, as in
    /// [`EngineStats::merge`]).
    pub stats: EngineStats,
    /// Total machine-node count |Q| summed over every shard.
    pub machine_size: usize,
    /// Queue-health counters for the run.
    pub pipeline: PipelineStats,
}

/// Runs a union workload sharded across `shards.len()` worker threads.
///
/// Each shard is a [`MultiTwigM`] holding a partition of the query set.
/// One producer thread scans `src` under the *union* of the shards'
/// plans (vocabulary, attribute needs and relevance are merged
/// name-wise, since each shard interns its own symbol space) and
/// broadcasts every batch to every worker; workers re-map tag names
/// into their private tables and evaluate concurrently. Results are
/// merged exactly as [`crate::engine::evaluate_union`] merges them —
/// concatenate, sort by pre-order id, deduplicate — so the output is
/// byte-identical to the serial union regardless of shard count or
/// scheduling.
pub fn run_multi_sharded<R: Read + Send>(
    shards: Vec<MultiTwigM>,
    src: R,
    opts: &PipelineOptions,
) -> Result<ShardedOutcome, SaxError> {
    assert!(!shards.is_empty(), "sharded run needs at least one shard");
    let batch_events = opts.batch_events.max(1);
    let queue_depth = opts.queue_depth.max(1);

    // The producer's vocabulary is the union of every shard's: intern
    // all names, then merge attribute needs and relevance name-wise.
    let mut table = SymbolTable::new();
    for shard in &shards {
        for (_, name) in shard.symbols().iter() {
            table.intern(name);
        }
    }
    let attr_syms: Vec<bool> = table
        .iter()
        .map(|(_, name)| {
            shards.iter().any(|s| {
                let local = s.symbols().lookup(name);
                local.is_known() && MultiTwigM::needs_attributes(s, local)
            })
        })
        .collect();
    let attr_unknown = shards
        .iter()
        .any(|s| MultiTwigM::needs_attributes(s, Symbol::UNKNOWN));
    let mut wants_text = false;
    let mut relevant = if opts.prefilter {
        Some(vec![false; table.len()])
    } else {
        None
    };
    for shard in &shards {
        let rel = if opts.prefilter {
            shard.relevance()
        } else {
            Relevance::all()
        };
        wants_text |= rel.wants_text;
        match (&mut relevant, rel.symbols) {
            (Some(union), Some(local)) => {
                for (sym, name) in shard.symbols().iter() {
                    if local.get(sym.index().expect("iterated symbols are known")) == Some(&true) {
                        let i = table.lookup(name).index().expect("interned above");
                        union[i] = true;
                    }
                }
            }
            (slot, _) => *slot = None,
        }
    }
    let plan = BatchPlan {
        table,
        attr_syms,
        attr_unknown,
        relevant,
        wants_text,
    };

    let workers = shards.len();
    let producer_stalls = AtomicU64::new(0);
    let consumer_stalls = AtomicU64::new(0);
    let bytes = AtomicU64::new(0);
    let sent = AtomicU64::new(0);
    let received: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let max_depth = AtomicU64::new(0);
    let counts = Mutex::new((0u64, 0u64, 0u64, 0u64)); // batches, scanned, delivered, filtered
    let error: Mutex<Option<SaxError>> = Mutex::new(None);

    let worker_outputs = thread::scope(|scope| {
        let mut txs: Vec<SyncSender<Arc<EventBatch>>> = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (k, shard) in shards.into_iter().enumerate() {
            let (tx, rx): (SyncSender<Arc<EventBatch>>, Receiver<Arc<EventBatch>>) =
                sync_channel(queue_depth);
            txs.push(tx);
            let consumer_stalls = &consumer_stalls;
            let received = &received;
            handles.push(scope.spawn(move || {
                let mut engine = shard;
                let local = MultiTwigM::symbols(&engine).clone();
                loop {
                    let batch = match rx.try_recv() {
                        Ok(batch) => batch,
                        Err(TryRecvError::Empty) => {
                            consumer_stalls.fetch_add(1, Ordering::Relaxed);
                            match rx.recv() {
                                Ok(batch) => batch,
                                Err(_) => break,
                            }
                        }
                        Err(TryRecvError::Disconnected) => break,
                    };
                    received[k].fetch_add(1, Ordering::Relaxed);
                    // The producer interns every shard's names: re-map
                    // them into this shard's own symbol space.
                    replay_batch(&mut engine, &batch, Some(&local));
                }
                let ids = StreamEngine::take_results(&mut engine);
                (ids, engine)
            }));
        }

        {
            let producer_stalls = &producer_stalls;
            let bytes = &bytes;
            let sent = &sent;
            let received = &received;
            let max_depth = &max_depth;
            let counts = &counts;
            let error = &error;
            scope.spawn(move || {
                let mut producer = BatchProducer::new(SaxReader::new(src), plan);
                let (mut batches, mut scanned, mut delivered, mut filtered) =
                    (0u64, 0u64, 0u64, 0u64);
                'produce: loop {
                    let mut batch = EventBatch::new();
                    match producer.next_batch(&mut batch, batch_events) {
                        Ok(true) => {
                            batches += 1;
                            scanned += batch.scanned;
                            filtered += batch.filtered;
                            delivered += batch.len() as u64;
                            let shared = Arc::new(batch);
                            for tx in &txs {
                                let mut msg = shared.clone();
                                match tx.try_send(msg) {
                                    Ok(()) => {}
                                    Err(TrySendError::Full(back)) => {
                                        producer_stalls.fetch_add(1, Ordering::Relaxed);
                                        msg = back;
                                        if tx.send(msg).is_err() {
                                            break 'produce;
                                        }
                                    }
                                    Err(TrySendError::Disconnected(_)) => break 'produce,
                                }
                            }
                            let s = sent.fetch_add(1, Ordering::Relaxed) + 1;
                            for r in received.iter() {
                                let depth = s.saturating_sub(r.load(Ordering::Relaxed));
                                max_depth.fetch_max(depth, Ordering::Relaxed);
                            }
                        }
                        Ok(false) => break,
                        Err(e) => {
                            *error.lock().expect("no poisoned lock") = Some(e);
                            break;
                        }
                    }
                }
                bytes.store(producer.bytes_consumed(), Ordering::Relaxed);
                *counts.lock().expect("no poisoned lock") = (batches, scanned, delivered, filtered);
                // Dropping `txs` closes every worker channel.
            });
        }

        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect::<Vec<_>>()
    });

    if let Some(e) = error.into_inner().expect("no poisoned lock") {
        return Err(e);
    }

    let mut stats = EngineStats::default();
    let mut machine_size = 0usize;
    let mut ids: Vec<u64> = Vec::new();
    for (shard_ids, engine) in &worker_outputs {
        stats.merge(MultiTwigM::stats(engine));
        machine_size += MultiTwigM::machine_size(engine);
        ids.extend(shard_ids.iter().map(|id| id.get()));
    }
    ids.sort_unstable();
    ids.dedup();

    let (batches, scanned, delivered, filtered) = counts.into_inner().expect("no poisoned lock");
    let pipeline = PipelineStats {
        threads: workers + 1,
        batches,
        events_scanned: scanned,
        events_delivered: delivered,
        events_filtered: filtered,
        producer_stalls: producer_stalls.load(Ordering::Relaxed),
        consumer_stalls: consumer_stalls.load(Ordering::Relaxed),
        max_queue_depth: max_depth.load(Ordering::Relaxed),
        bytes: bytes.load(Ordering::Relaxed),
    };
    Ok(ShardedOutcome {
        ids: ids.into_iter().map(NodeId::new).collect(),
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
        let engine = Engine::new(&parse("//a/b").unwrap()).unwrap();
        let opts = PipelineOptions {
            batch_events: 64,
            ..PipelineOptions::default()
        };
        let (_, _, stats) = run_engine_pipelined(engine, &xml[..], &opts).unwrap();
        assert_eq!(stats.threads, 2);
        assert!(stats.batches > 1);
        assert!(stats.events_scanned > 0);
        assert_eq!(
            stats.events_delivered + stats.events_filtered,
            stats.events_scanned
        );
        assert!(stats.max_queue_depth >= 1);
    }
}
