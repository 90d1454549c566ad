//! Pins the sharded pipeline's in-flight memory.
//!
//! A union sharded over two consumers (`run_multi_sharded`) runs over
//! seeded auction documents of ~1 MiB and ~4 MiB, and the live heap it
//! adds is held to two properties:
//!
//! * it stays under the stated bound: what a serial run of the same
//!   union needs (reader buffer, engine state, results), plus
//!   `queue_depth + 2` of the largest batches the producer builds — up
//!   to `queue_depth` queued behind the slowest consumer, one being
//!   applied by it, and one the producer holds while it waits to hand
//!   it over — plus a fixed allowance for the threads, channels and
//!   per-run tables;
//! * it does not grow with the document: every term of the bound is
//!   measured again at 4 MiB and stays within 10% of its 1 MiB value,
//!   and the 4 MiB peak stays within 10% of the 1 MiB bound. The raw
//!   peaks are not compared with each other: a run's peak depends on how
//!   far its producer happened to get ahead of the consumers (the same
//!   4 MiB document read 181–328 kB over three runs).
//!
//! The queries are selective (five results at either size), so the
//! result vectors, which grow with the document, stay out of the
//! picture, while the prefilter still delivers every `name`, `text`,
//! `listitem` and `description` element to the consumers.
//!
//! Lives in its own integration-test binary because it registers the
//! counting global allocator; the single test keeps the counters free
//! of concurrent-test noise.

use twigm::engine::run_engine;
use twigm::pipeline::{run_multi_sharded, shard_queries, PipelineOptions};
use twigm::MultiTwigM;
use twigm_bench::CountingAllocator;
use twigm_datagen::auction;
use twigm_sax::batch::{BatchPlan, BatchProducer, EventBatch};
use twigm_sax::{SaxReader, SymbolTable};
use twigm_xpath::{parse_union, Path};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Allowance for what a threaded run allocates besides batches and
/// engine state: thread handles, queues, `Arc` headers, the plan's
/// copy of the symbol table, the per-consumer symbol remaps.
const SLACK: u64 = 32 << 10;

const QUERIES: &str = "//people/person[@id = 'person0']/name \
    | //open_auction[@id = 'open_auction0']/bidder/increase \
    | //item[@id = 'item0']//listitem//text \
    | //category[@id = 'category0']/description//text";

fn doc(bytes: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes + bytes / 8);
    auction::generate(7, bytes, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Heap a serial run of the union adds at its peak: reader buffer,
/// engine state and results.
fn serial_peak(branches: &[Path], xml: &[u8]) -> u64 {
    let mut engine = MultiTwigM::new();
    for branch in branches {
        engine.add_query(branch).expect("query compiles");
    }
    let base = CountingAllocator::reset_peak();
    let (ids, engine) = run_engine(engine, xml).expect("document parses");
    let peak = CountingAllocator::peak() - base;
    drop((ids, engine));
    peak
}

/// Heap of the largest batch the producer builds over `xml` at the
/// default size, measured as what each batch frees when dropped. Each
/// starts as a fresh `EventBatch`, as in the pipeline, so the producer
/// sizes it by the same rule. The plan delivers every event and
/// decodes every attribute, so no batch of the prefiltered run is
/// larger.
fn largest_batch(shards: &[MultiTwigM], xml: &[u8], batch_events: usize) -> u64 {
    let mut table = SymbolTable::new();
    for shard in shards {
        for (_, name) in shard.symbols().iter() {
            table.intern(name);
        }
    }
    let mut producer = BatchProducer::new(SaxReader::new(xml), BatchPlan::deliver_all(table));
    let mut largest = 0;
    loop {
        let mut batch = EventBatch::new();
        if !producer
            .next_batch(&mut batch, batch_events)
            .expect("document parses")
        {
            return largest;
        }
        let live = CountingAllocator::live();
        drop(batch);
        largest = largest.max(live - CountingAllocator::live());
    }
}

/// Heap the sharded run adds at its peak, over `runs` runs.
fn sharded_peak(branches: &[Path], xml: &[u8], opts: &PipelineOptions, runs: usize) -> u64 {
    (0..runs)
        .map(|_| {
            let shards = shard_queries(branches, 2).expect("queries compile");
            let base = CountingAllocator::reset_peak();
            let outcome = run_multi_sharded(shards, xml, opts).expect("document parses");
            let peak = CountingAllocator::peak() - base;
            assert_eq!(outcome.ids.len(), 5);
            peak
        })
        .max()
        .expect("at least one run")
}

#[test]
fn in_flight_memory_is_capped_and_flat() {
    let branches = parse_union(QUERIES).expect("queries parse");
    let opts = PipelineOptions::default();
    let mut bounds = Vec::new();
    for mib in [1, 4] {
        let xml = doc(mib << 20);
        let serial = serial_peak(&branches, &xml);
        let shards = shard_queries(&branches, 2).expect("queries compile");
        let batch = largest_batch(&shards, &xml, opts.batch_events);
        let bound = serial + (opts.queue_depth as u64 + 2) * batch + SLACK;
        let peak = sharded_peak(&branches, &xml, &opts, 3);
        assert!(
            peak <= bound,
            "{mib} MiB: peak {peak} B over the bound {bound} B \
             (serial run {serial} B, largest batch {batch} B)"
        );
        if let Some(&(serial_1, batch_1, bound_1)) = bounds.first() {
            let within = |now: u64, then: u64| now as f64 <= 1.1 * then as f64;
            assert!(
                within(serial, serial_1),
                "serial run grew: {serial_1} -> {serial} B"
            );
            assert!(
                within(batch, batch_1),
                "largest batch grew: {batch_1} -> {batch} B"
            );
            assert!(
                within(peak, bound_1),
                "peak {peak} B vs the 1 MiB bound {bound_1} B"
            );
        }
        bounds.push((serial, batch, bound));
    }
}
