//! Pipeline determinism differential: the batched producer/consumer
//! driver (`--threads`) must be invisible in the results. Over the
//! structure-aware generator corpus, the pipelined single-engine driver
//! — at default and adversarially tiny batch/queue sizes, with the
//! symbol-relevance prefilter on and off — must reproduce the serial
//! driver's decision-order id sequence exactly, including when the
//! input arrives under every chunk-split strategy the resplit battery
//! uses. The sharded union driver must likewise reproduce the serial
//! union's sorted, deduplicated result set (itself checked against the
//! DOM oracle's per-branch union) for 1, 2 and 4 shards under
//! the same option matrix, and for 1 and 2 shards under every
//! chunk-split strategy. A document that goes bad mid-stream must fail
//! every driver with the serial driver's error.

use std::io::Read;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use twigm::engine::run_engine;
use twigm::pipeline::{run_engine_pipelined, run_multi_sharded, shard_queries, PipelineOptions};
use twigm::{Engine, MultiTwigM};
use twigm_baselines::inmem::Document;
use twigm_datagen::SplitMix64;
use twigm_sax::NodeId;
use twigm_testkit::check::oracle_ids;
use twigm_testkit::querygen::{generate_query, QueryConfig};
use twigm_testkit::resplit::{split_points, STRATEGIES};
use twigm_testkit::xmlgen::{generate_doc, DocConfig};
use twigm_xpath::{parse, parse_union, Path};

/// A `Read` that honours a fixed set of chunk boundaries: each call
/// returns bytes only up to the next cut, so the pipelined producer's
/// incremental refill path sees exactly the splits the resplit battery
/// feeds through `FeedReader`.
struct ChunkedReader<'a> {
    chunks: Vec<&'a [u8]>,
    next: usize,
}

impl<'a> ChunkedReader<'a> {
    fn new(xml: &'a [u8], cuts: &[usize]) -> ChunkedReader<'a> {
        let mut chunks = Vec::with_capacity(cuts.len() + 1);
        let mut start = 0;
        for &cut in cuts {
            chunks.push(&xml[start..cut]);
            start = cut;
        }
        chunks.push(&xml[start..]);
        ChunkedReader { chunks, next: 0 }
    }
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        while self.next < self.chunks.len() && self.chunks[self.next].is_empty() {
            self.next += 1;
        }
        let Some(chunk) = self.chunks.get_mut(self.next) else {
            return Ok(0);
        };
        let n = buf.len().min(chunk.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        *chunk = &chunk[n..];
        if chunk.is_empty() {
            self.next += 1;
        }
        Ok(n)
    }
}

fn engine_for(query: &Path) -> Engine {
    Engine::new(query).expect("generated queries compile")
}

fn serial_ids(query: &Path, xml: &[u8]) -> Vec<NodeId> {
    let (ids, _) = run_engine(engine_for(query), xml).expect("generated XML parses");
    ids
}

fn pipelined_ids<R: Read + Send>(query: &Path, src: R, opts: &PipelineOptions) -> Vec<NodeId> {
    let (ids, _, stats) =
        run_engine_pipelined(engine_for(query), src, opts).expect("generated XML parses");
    assert_eq!(
        stats.events_delivered + stats.events_filtered,
        stats.events_scanned,
        "producer accounting leak on `{query}`"
    );
    ids
}

/// The option sets each case runs under: defaults, a degenerate
/// one-slot queue with three-event batches (maximum producer/consumer
/// interleaving), and the prefilter forced off.
fn option_matrix() -> [PipelineOptions; 3] {
    let tiny = PipelineOptions {
        batch_events: 3,
        queue_depth: 1,
        ..PipelineOptions::default()
    };
    let unfiltered = PipelineOptions {
        prefilter: false,
        ..PipelineOptions::default()
    };
    [PipelineOptions::default(), tiny, unfiltered]
}

#[test]
fn pipelined_driver_matches_serial_on_the_generator_corpus() {
    let mut rng = SplitMix64::seed_from_u64(0x70_1e_11_4e);
    let doc_cfg = DocConfig::default();
    let query_cfg = QueryConfig::default();
    for case in 0..40 {
        let xml = generate_doc(&mut rng, &doc_cfg);
        let query = generate_query(&mut rng, &query_cfg);
        let expected = serial_ids(&query, &xml);
        for (i, opts) in option_matrix().iter().enumerate() {
            let got = pipelined_ids(&query, &xml[..], opts);
            assert_eq!(
                got, expected,
                "case {case} option-set {i}: `{query}` diverged from serial"
            );
        }
    }
}

#[test]
fn pipelined_driver_is_chunk_split_invariant() {
    let mut rng = SplitMix64::seed_from_u64(0x5e_6d_5e_ed);
    let doc_cfg = DocConfig::default();
    let query_cfg = QueryConfig::default();
    let opts = PipelineOptions {
        batch_events: 3,
        queue_depth: 1,
        ..PipelineOptions::default()
    };
    for case in 0..10 {
        let xml = generate_doc(&mut rng, &doc_cfg);
        let query = generate_query(&mut rng, &query_cfg);
        let expected = serial_ids(&query, &xml);
        for strategy in STRATEGIES {
            let cuts = split_points(&xml, strategy);
            let src = ChunkedReader::new(&xml, &cuts);
            let got = pipelined_ids(&query, src, &opts);
            assert_eq!(
                got, expected,
                "case {case} {strategy:?}: `{query}` diverged under re-chunking"
            );
        }
    }
}

/// A random union of 2-4 generated branches with the serial union's
/// sorted, deduplicated ids over `xml`, which must equal the DOM
/// oracle's deduplicated per-branch union.
fn union_case(rng: &mut SplitMix64, xml: &[u8]) -> (Vec<Path>, Vec<NodeId>) {
    let count = rng.range_usize(2, 5);
    let branches: Vec<Path> = (0..count)
        .map(|_| {
            let mut q = generate_query(rng, &QueryConfig::default());
            // Union output is node ids; a trailing `/@attr` selector
            // has no meaning there (the CLI rejects it too).
            q.attr = None;
            q
        })
        .collect();
    let mut serial = MultiTwigM::new();
    for branch in &branches {
        serial.add_query(branch).expect("generated queries compile");
    }
    let (mut expected, _) = run_engine(serial, xml).expect("generated XML parses");
    expected.sort_unstable();
    expected.dedup();
    let doc = Document::parse_bytes(xml).expect("generated XML parses");
    let mut oracle: Vec<u64> = branches.iter().flat_map(|b| oracle_ids(&doc, b)).collect();
    oracle.sort_unstable();
    oracle.dedup();
    let serial: Vec<u64> = expected.iter().map(|id| id.get()).collect();
    assert_eq!(serial, oracle, "serial union diverged from the oracle");
    (branches, expected)
}

fn sharded_ids<R: Read + Send>(
    branches: &[Path],
    shards: usize,
    src: R,
    opts: &PipelineOptions,
) -> Vec<NodeId> {
    let shards = shard_queries(branches, shards).expect("generated queries compile");
    let outcome = run_multi_sharded(shards, src, opts).expect("generated XML parses");
    let stats = &outcome.pipeline;
    assert_eq!(
        stats.events_delivered + stats.events_filtered,
        stats.events_scanned,
        "producer accounting leak on a sharded union"
    );
    outcome.ids
}

#[test]
fn sharded_union_matches_serial_union_on_the_generator_corpus() {
    let mut rng = SplitMix64::seed_from_u64(0x5a_4d_ed_01);
    let doc_cfg = DocConfig::default();
    for case in 0..20 {
        let xml = generate_doc(&mut rng, &doc_cfg);
        let (branches, expected) = union_case(&mut rng, &xml);
        for (i, opts) in option_matrix().iter().enumerate() {
            for shards in [1, 2, 4] {
                assert_eq!(
                    sharded_ids(&branches, shards, &xml[..], opts),
                    expected,
                    "case {case} option-set {i}, {shards} shard(s): union diverged from serial"
                );
            }
        }
    }
}

#[test]
fn sharded_union_is_chunk_split_invariant() {
    let mut rng = SplitMix64::seed_from_u64(0x5a_c4_5e_ed);
    let doc_cfg = DocConfig::default();
    let opts = PipelineOptions {
        batch_events: 3,
        queue_depth: 1,
        ..PipelineOptions::default()
    };
    for case in 0..10 {
        let xml = generate_doc(&mut rng, &doc_cfg);
        let (branches, expected) = union_case(&mut rng, &xml);
        for strategy in STRATEGIES {
            let cuts = split_points(&xml, strategy);
            for shards in [1, 2] {
                let src = ChunkedReader::new(&xml, &cuts);
                assert_eq!(
                    sharded_ids(&branches, shards, src, &opts),
                    expected,
                    "case {case} {strategy:?}, {shards} shard(s): union diverged under re-chunking"
                );
            }
        }
    }
}

/// Runs `run` on a thread of its own and fails unless it returns within
/// a deadline, so a driver that loses the end of a failed stream fails
/// the test instead of hanging it.
fn within_deadline<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(run());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("driver did not return: {e}"))
}

#[test]
fn every_driver_reports_the_serial_error() {
    let mut good = String::from("<r>");
    for i in 0..100 {
        good.push_str(&format!(
            "<a k=\"{i}\"><b>t{i}</b><c>{i}</c></a><junk>x</junk>"
        ));
    }
    let bad_docs = [
        format!("{good}<a><b></a></r>"),
        format!("{good}<a><b>cut"),
        format!("{good}<a><b>x</b>< /a></r>"),
        format!("{good}</r><a/>"),
    ];
    // Small batches and a one-slot queue: the error arrives after many
    // batches, with the producer blocked on full queues along the way.
    let opts = PipelineOptions {
        batch_events: 16,
        queue_depth: 1,
        ..PipelineOptions::default()
    };
    let query = "//a[c]/b";
    let union = "//a[c]/b | //junk";
    for xml in bad_docs {
        let xml = xml.into_bytes();
        let expected = run_engine(engine_for(&parse(query).unwrap()), &xml[..])
            .map(|_| ())
            .expect_err("the document is malformed")
            .to_string();
        let mut serial_union = MultiTwigM::new();
        for branch in parse_union(union).unwrap() {
            serial_union.add_query(&branch).unwrap();
        }
        let result = run_engine(serial_union, &xml[..]).map(|_| ());
        assert_eq!(result.unwrap_err().to_string(), expected, "serial union");

        // `None` is the single-query pipeline, `Some(n)` n union shards.
        for shards in [None, Some(1), Some(2)] {
            let (doc, opts) = (xml.clone(), opts.clone());
            let result = within_deadline(move || match shards {
                None => run_engine_pipelined(engine_for(&parse(query).unwrap()), &doc[..], &opts)
                    .map(|_| ()),
                Some(n) => {
                    let shards = shard_queries(&parse_union(union).unwrap(), n).unwrap();
                    run_multi_sharded(shards, &doc[..], &opts).map(|_| ())
                }
            });
            let err = result.expect_err("the document is malformed");
            assert_eq!(err.to_string(), expected, "shards: {shards:?}");
        }
    }
}
