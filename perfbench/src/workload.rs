//! The three workloads: seeded inputs, their queries, the DOM oracle and
//! the end-to-end driver call each one times.

use std::io::Write;

use twigm::fragments::FragmentCollector;
use twigm::pipeline::shard_queries;
use twigm::{run_engine, run_multi_sharded, Engine, MultiTwigM, PipelineOptions, PipelineStats};
use twigm_baselines::inmem::{Document, InMemEval};
use twigm_bench::queries::{auction_queries, book_queries, protein_queries};
use twigm_datagen::{auction, book, protein, GenReport, SplitMix64};
use twigm_xpath::Path;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One child-axis path query (Protein Q1) over Protein documents,
    /// serial driver, ids out.
    ProteinPath,
    /// Full-language twig queries Q9/Q10 over recursive Book documents,
    /// serial driver, fragments out.
    BookTwig,
    /// The 8-branch B1–B8 union over auction documents on the two-thread
    /// sharded pipeline, every result out.
    AuctionUnion2t,
}

/// Distinct documents in every workload's cycled pool: enough that the
/// 90th percentile over the pool has ten documents beyond it.
pub const POOL_DOCS: usize = 128;

/// Target size of one document: an eighth of one core's 2 MiB L2, and
/// small enough that a timed run repeats every pool document dozens of
/// times.
pub const DOC_BYTES: usize = 256 << 10;

impl Workload {
    /// Every workload, in a fixed order.
    pub const ALL: [Workload; 3] = [
        Workload::ProteinPath,
        Workload::BookTwig,
        Workload::AuctionUnion2t,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProteinPath => "protein-path",
            Workload::BookTwig => "book-twig",
            Workload::AuctionUnion2t => "auction-union-2t",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn generator(self) -> fn(u64, usize, &mut dyn Write) -> std::io::Result<GenReport> {
        match self {
            Workload::ProteinPath => protein::generate,
            Workload::BookTwig => book::generate,
            Workload::AuctionUnion2t => auction::generate,
        }
    }

    /// Whether the driver ships events as batches across the pipeline
    /// channel, with the relevance prefilter in its plan.
    pub fn batched(self) -> bool {
        self == Workload::AuctionUnion2t
    }
}

/// A workload's generated inputs: everything the program receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// The document pool, cycled in order.
    pub docs: Vec<Vec<u8>>,
    /// Deepest element nesting over the pool (the `R` of Theorem 4.4).
    pub max_depth: u32,
    /// Query texts: one per compiled engine, or one union for
    /// `auction-union-2t`.
    pub queries: Vec<String>,
}

impl Inputs {
    /// Total bytes in the pool.
    pub fn total_bytes(&self) -> u64 {
        self.docs.iter().map(|d| d.len() as u64).sum()
    }
}

/// Generates a workload's default-sized inputs from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    generate_sized(workload, seed, POOL_DOCS, DOC_BYTES)
}

/// Generates `count` documents of about `doc_bytes` each, plus the
/// workload's queries, deterministically from `seed`.
pub fn generate_sized(workload: Workload, seed: u64, count: usize, doc_bytes: usize) -> Inputs {
    // Document seeds are keyed by the workload, so workloads never share
    // documents.
    let key = workload as u64 + 1;
    let mut doc_rng = SplitMix64::seed_from_u64(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let generate = workload.generator();
    let mut max_depth = 0;
    let docs = (0..count)
        .map(|_| {
            let mut doc = Vec::with_capacity(doc_bytes + doc_bytes / 4);
            let report = generate(doc_rng.next_u64(), doc_bytes, &mut doc)
                .expect("writing to a Vec cannot fail");
            max_depth = max_depth.max(report.max_depth);
            doc
        })
        .collect();
    Inputs {
        workload,
        seed,
        docs,
        max_depth,
        queries: queries(workload),
    }
}

fn fig6(specs: Vec<twigm_bench::QuerySpec>, name: &str) -> String {
    specs
        .into_iter()
        .find(|q| q.name == name)
        .expect("the figure-6 query exists")
        .text
        .to_string()
}

fn queries(workload: Workload) -> Vec<String> {
    match workload {
        Workload::ProteinPath => vec![fig6(protein_queries(), "Q1")],
        Workload::BookTwig => vec![fig6(book_queries(), "Q9"), fig6(book_queries(), "Q10")],
        Workload::AuctionUnion2t => vec![auction_queries()
            .iter()
            .map(|q| q.text)
            .collect::<Vec<_>>()
            .join(" | ")],
    }
}

/// The parsed query set: the paths each engine compiles.
pub fn parse_queries(inputs: &Inputs) -> Result<Vec<Path>, String> {
    let mut paths = Vec::new();
    for text in &inputs.queries {
        let parsed = if inputs.workload == Workload::AuctionUnion2t {
            twigm_xpath::parse_union(text)
        } else {
            twigm_xpath::parse(text).map(|p| vec![p])
        };
        paths.extend(parsed.map_err(|e| format!("query {text:?}: {e}"))?);
    }
    Ok(paths)
}

/// A document's answer: the matched element ids (pre-order), compared
/// exactly against the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer(pub Vec<u64>);

impl Answer {
    /// Sorts and deduplicates, so answers compare as sets.
    pub fn normalize(mut self) -> Answer {
        self.0.sort_unstable();
        self.0.dedup();
        self
    }
}

/// Which compiled query document `k` of the pool is evaluated with.
pub fn query_for_doc(workload: Workload, k: usize) -> usize {
    match workload {
        Workload::BookTwig => k % 2,
        _ => 0,
    }
}

/// The expected answer of every pool document, from the in-memory DOM
/// evaluator (`twigm_baselines::inmem`).
pub fn oracle(inputs: &Inputs, paths: &[Path]) -> Result<Vec<Answer>, String> {
    inputs
        .docs
        .iter()
        .enumerate()
        .map(|(k, doc)| {
            let dom = Document::parse_bytes(doc).map_err(|e| format!("oracle, doc {k}: {e}"))?;
            let mut eval = InMemEval::new(&dom);
            let ids = |eval: &mut InMemEval<'_>, p: &Path| -> Vec<u64> {
                eval.evaluate(p).into_iter().map(|id| id.get()).collect()
            };
            let answer = match inputs.workload {
                Workload::ProteinPath | Workload::BookTwig => {
                    ids(&mut eval, &paths[query_for_doc(inputs.workload, k)])
                }
                Workload::AuctionUnion2t => paths.iter().flat_map(|p| ids(&mut eval, p)).collect(),
            };
            Ok(Answer(answer).normalize())
        })
        .collect()
}

/// The end-to-end call each workload times, with its engines compiled
/// once and reused across documents.
pub struct Driver {
    workload: Workload,
    paths: Vec<Path>,
    kind: Kind,
    /// Pipeline counters summed over every document run (all zero off
    /// the sharded path).
    pipeline: PipelineStats,
}

enum Kind {
    /// `run_engine` over a reused `Engine` (PathM for Protein Q1).
    Serial(Box<Engine>),
    /// `run_engine` over reused `FragmentCollector`s (one per query),
    /// fragments written into an in-memory sink cleared per document.
    Fragments(Vec<FragmentCollector<Engine>>, Vec<u8>),
    /// `shard_queries(branches, 1)` + `run_multi_sharded`: one producer
    /// thread and one worker. The sharded runner consumes its engines,
    /// so the eight small branch machines are compiled per document.
    Sharded(PipelineOptions),
}

impl Kind {
    fn build(workload: Workload, paths: &[Path]) -> Result<Kind, String> {
        let engine = |p: &Path| Engine::new(p).map_err(|e| e.to_string());
        Ok(match workload {
            Workload::ProteinPath => Kind::Serial(Box::new(engine(&paths[0])?)),
            Workload::BookTwig => Kind::Fragments(
                paths
                    .iter()
                    .map(|p| engine(p).map(FragmentCollector::new))
                    .collect::<Result<_, _>>()?,
                Vec::new(),
            ),
            Workload::AuctionUnion2t => {
                // Compile once here so a bad branch fails at set-up.
                shard_queries(paths, 1).map_err(|e| e.to_string())?;
                Kind::Sharded(PipelineOptions::default())
            }
        })
    }
}

impl Driver {
    /// Compiles the workload's engines.
    pub fn build(workload: Workload, paths: &[Path]) -> Result<Driver, String> {
        Ok(Driver {
            workload,
            paths: paths.to_vec(),
            kind: Kind::build(workload, paths)?,
            pipeline: PipelineStats::default(),
        })
    }

    /// Runs document `k` to completion: every result drained (and, for
    /// fragments, written). The answer is not yet normalized, so no
    /// checking work lands inside the caller's timing.
    pub fn process(&mut self, k: usize, doc: &[u8]) -> Result<Answer, String> {
        let result = self.process_inner(k, doc);
        if result.is_err() {
            // A failed document can leave engines mid-document; start
            // the next one from freshly compiled engines.
            self.kind = Kind::build(self.workload, &self.paths).expect("compiled at set-up");
        }
        result
    }

    fn process_inner(&mut self, k: usize, doc: &[u8]) -> Result<Answer, String> {
        let err = |e: twigm_sax::SaxError| e.to_string();
        match &mut self.kind {
            Kind::Serial(engine) => {
                let (ids, _) = run_engine(&mut **engine, doc).map_err(err)?;
                Ok(Answer(ids.into_iter().map(|id| id.get()).collect()))
            }
            Kind::Fragments(collectors, sink) => {
                let collector = &mut collectors[query_for_doc(self.workload, k)];
                run_engine(&mut *collector, doc).map_err(err)?;
                sink.clear();
                let fragments = collector.take_fragments();
                let mut ids = Vec::with_capacity(fragments.len());
                for (id, fragment) in fragments {
                    ids.push(id.get());
                    sink.extend_from_slice(fragment.as_bytes());
                    sink.push(b'\n');
                }
                Ok(Answer(ids))
            }
            Kind::Sharded(opts) => {
                let shards = shard_queries(&self.paths, 1).map_err(|e| e.to_string())?;
                let outcome = run_multi_sharded(shards, doc, opts).map_err(err)?;
                add_pipeline(&mut self.pipeline, &outcome.pipeline);
                Ok(Answer(outcome.ids.into_iter().map(|id| id.get()).collect()))
            }
        }
    }

    /// Pipeline counters summed over every document so far.
    pub fn pipeline(&self) -> &PipelineStats {
        &self.pipeline
    }
}

/// Sums one run's pipeline counters into `acc` (queue depth: max).
fn add_pipeline(acc: &mut PipelineStats, run: &PipelineStats) {
    acc.threads = acc.threads.max(run.threads);
    acc.batches += run.batches;
    acc.events_scanned += run.events_scanned;
    acc.events_delivered += run.events_delivered;
    acc.events_filtered += run.events_filtered;
    acc.producer_stalls += run.producer_stalls;
    acc.consumer_stalls += run.consumer_stalls;
    acc.max_queue_depth = acc.max_queue_depth.max(run.max_queue_depth);
    acc.bytes += run.bytes;
}

/// A multi-query engine holding every path, enumerating every result.
pub fn multi(paths: &[Path]) -> Result<MultiTwigM, String> {
    let mut engine = MultiTwigM::new();
    for p in paths {
        engine.add_query(p).map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_sax::SaxReader;

    fn well_formed(doc: &[u8]) -> bool {
        let mut reader = SaxReader::new(doc);
        loop {
            match reader.next_event() {
                Ok(Some(_)) => {}
                Ok(None) => return reader.depth() == 0,
                Err(_) => return false,
            }
        }
    }

    #[test]
    fn documents_are_well_formed_and_repeat_byte_for_byte() {
        for w in Workload::ALL {
            let a = generate_sized(w, 7, 3, 48 << 10);
            let b = generate_sized(w, 7, 3, 48 << 10);
            assert_eq!(a, b, "{}", w.name());
            assert!(a.docs.iter().all(|d| well_formed(d)), "{}", w.name());
            let other = generate_sized(w, 8, 3, 48 << 10);
            assert_ne!(a.docs, other.docs, "{}: seeds must matter", w.name());
            assert_eq!(a.docs.len(), 3);
            assert!(a.docs.iter().all(|d| d.len() >= 48 << 10));
        }
    }

    #[test]
    fn the_pool_supports_a_90th_percentile_over_documents() {
        use crate::stats::{highest_supported_percentile, samples_beyond, MIN_TAIL_SAMPLES};
        assert!(samples_beyond(POOL_DOCS, 90.0) >= MIN_TAIL_SAMPLES);
        assert!(highest_supported_percentile(POOL_DOCS) >= Some(90.0));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn every_query_set_parses() {
        for w in Workload::ALL {
            let inputs = generate_sized(w, 3, 1, 16 << 10);
            let paths = parse_queries(&inputs).unwrap();
            let expected = match w {
                Workload::ProteinPath => 1,
                Workload::BookTwig => 2,
                Workload::AuctionUnion2t => 8,
            };
            assert_eq!(paths.len(), expected, "{}", w.name());
        }
    }

    #[test]
    fn drivers_agree_with_the_oracle() {
        for w in Workload::ALL {
            let inputs = generate_sized(w, 11, 4, 32 << 10);
            let paths = parse_queries(&inputs).unwrap();
            let expected = oracle(&inputs, &paths).unwrap();
            let mut driver = Driver::build(w, &paths).unwrap();
            for (k, doc) in inputs.docs.iter().enumerate() {
                let got = driver.process(k, doc).unwrap().normalize();
                assert_eq!(got, expected[k], "{} doc {k}", w.name());
            }
        }
    }
}
