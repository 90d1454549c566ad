//! Projection differential: the reader's projection (skimming subtrees
//! no query node can reach) must be invisible. Over rooted child-path
//! queries — the ones whose projection skims — every engine, driver,
//! thread count and chunk split must decide the ids the same engine
//! decides with projection switched off, in the same order; and on
//! malformed input every one of them must fail with the error an
//! unprojected parse reports, at the same offset, whether or not the
//! break lies in skimmed content.

use std::io::Read;

use twigm::engine::{drive, run_engine, NoTelemetry, StreamEngine};
use twigm::fragments::FragmentCollector;
use twigm::pipeline::{run_engine_pipelined, run_multi_sharded, shard_queries, PipelineOptions};
use twigm::{BranchM, Engine, MultiTwigM, PathM, TwigM};
use twigm_datagen::SplitMix64;
use twigm_sax::{Event, NodeId, SaxError, SaxReader};
use twigm_testkit::check::{check_verdict, reader_verdict};
use twigm_testkit::querygen::{generate_query, QueryConfig};
use twigm_testkit::resplit::{run_engine_chunked, split_points, SplitStrategy, STRATEGIES};
use twigm_testkit::xmlgen::{generate_doc, malform, DocConfig, MALFORMATIONS};
use twigm_xpath::{NameTest, Path, PredExpr, Value};

/// Queries that anchor at the document root, as the projection needs.
fn rooted() -> QueryConfig {
    QueryConfig {
        rooted_prob: 1.0,
        ..QueryConfig::default()
    }
}

/// A rooted query and a second rooted branch for unions, without a
/// trailing `/@attr` (union output is node ids). A first step that
/// names a tag names `xml`'s root element, so the queries reach past
/// the root and the projection has live paths to keep and off-path
/// subtrees to skim.
fn queries(rng: &mut SplitMix64, xml: &[u8]) -> (Path, Vec<Path>) {
    let mut reader = SaxReader::from_bytes(xml);
    let root = loop {
        if let Some(Event::Start(tag)) = reader.next_event().expect("well-formed") {
            break tag.name().to_string();
        }
    };
    let mut anchored = || {
        let mut query = generate_query(rng, &rooted());
        if let NameTest::Tag(tag) = &mut query.steps[0].test {
            tag.clone_from(&root);
        }
        query
    };
    let query = anchored();
    let mut other = anchored();
    other.attr = None;
    let mut first = query.clone();
    first.attr = None;
    (query, vec![first, other])
}

/// `engine` driven over `xml` with the reader's projection off.
fn unprojected<E: StreamEngine>(mut engine: E, xml: &[u8]) -> Result<(Vec<NodeId>, E), SaxError> {
    let mut reader = SaxReader::new(xml).with_projection(None);
    drive(&mut engine, &mut reader, &mut NoTelemetry)?;
    Ok((engine.take_results(), engine))
}

/// How many events `engine`'s projection skims over `xml`.
fn skimmed<E: StreamEngine>(mut engine: E, xml: &[u8]) -> u64 {
    let mut reader = SaxReader::new(xml);
    drive(&mut engine, &mut reader, &mut NoTelemetry).expect("well-formed");
    reader.events_skipped()
}

/// Every delivery of one engine: the serial driver and the push-fed
/// driver at every chunk split, each with projection on, must equal the
/// unprojected run.
fn assert_invisible<E: StreamEngine>(what: &str, xml: &[u8], make: impl Fn() -> E) {
    let (expected, _) = unprojected(make(), xml).expect("well-formed");
    let (got, _) = run_engine(make(), xml).expect("well-formed");
    assert_eq!(got, expected, "{what}: serial driver");
    for strategy in STRATEGIES {
        let cuts = split_points(xml, strategy);
        let (got, _) = run_engine_chunked(make(), xml, &cuts).expect("well-formed");
        assert_eq!(got, expected, "{what}: FeedReader at {strategy:?}");
    }
}

fn sorted_union(branches: &[Path], xml: &[u8]) -> Vec<NodeId> {
    let mut engine = MultiTwigM::new();
    for branch in branches {
        engine.add_query(branch).expect("generated queries compile");
    }
    let (mut ids, _) = unprojected(engine, xml).expect("well-formed");
    ids.sort_unstable();
    ids.dedup();
    ids
}

fn pipeline_options() -> [PipelineOptions; 2] {
    let tiny = PipelineOptions {
        batch_events: 3,
        queue_depth: 1,
        ..PipelineOptions::default()
    };
    [PipelineOptions::default(), tiny]
}

#[test]
fn projection_is_invisible_to_every_engine_and_driver() {
    let mut rng = SplitMix64::seed_from_u64(0x9_0EC7_1011);
    let doc_cfg = DocConfig::default();
    let mut total_skimmed = 0;
    for case in 0..60 {
        let xml = generate_doc(&mut rng, &doc_cfg);
        let (query, union) = queries(&mut rng, &xml);
        let what = |engine: &str| format!("case {case} {engine} `{query}`");
        let compile = || Engine::new(&query).expect("generated queries compile");
        total_skimmed += skimmed(compile(), &xml);

        assert_invisible(&what("Engine"), &xml, compile);
        assert_invisible(&what("TwigM"), &xml, || TwigM::new(&query).unwrap());
        if query.is_predicate_free() {
            assert_invisible(&what("PathM"), &xml, || PathM::new(&query).unwrap());
        }
        if query.is_branch_only() {
            assert_invisible(&what("BranchM"), &xml, || BranchM::new(&query).unwrap());
        }
        let multi = || {
            let mut engine = MultiTwigM::new();
            for branch in &union {
                engine.add_query(branch).unwrap();
            }
            engine
        };
        assert_invisible(&what("MultiTwigM"), &xml, multi);
        // The same query testing its return node's own text: that text
        // lies inside content the plain query lets the reader skim.
        let mut text_tested = query.clone();
        let last = text_tested.steps.last_mut().expect("a step");
        last.predicates.push(PredExpr::Exists(Value {
            steps: Vec::new(),
            attr: None,
            text: true,
        }));
        assert_invisible(&what("Engine, text-tested"), &xml, || {
            Engine::new(&text_tested).unwrap()
        });

        // Fragments serialize whole candidate subtrees: same fragments.
        let (_, mut off) = unprojected(FragmentCollector::new(compile()), &xml).unwrap();
        let (_, mut on) = run_engine(FragmentCollector::new(compile()), &xml[..]).unwrap();
        assert_eq!(
            on.take_fragments(),
            off.take_fragments(),
            "{}",
            what("fragments")
        );

        // The batch pipeline (threads) and sharded unions, at every
        // chunk split of the producer's source.
        let (expected, _) = unprojected(compile(), &xml).unwrap();
        let union_ids = sorted_union(&union, &xml);
        for strategy in STRATEGIES {
            let cuts = split_points(&xml, strategy);
            for opts in pipeline_options() {
                let src = Chunked::new(&xml, &cuts);
                let (got, _, _) = run_engine_pipelined(compile(), src, &opts).unwrap();
                assert_eq!(got, expected, "{} pipelined, {strategy:?}", what("Engine"));
                for shards in [1, 2, 4] {
                    let engines = shard_queries(&union, shards).unwrap();
                    let src = Chunked::new(&xml, &cuts);
                    let outcome = run_multi_sharded(engines, src, &opts).unwrap();
                    assert_eq!(
                        outcome.ids,
                        union_ids,
                        "{} {shards} shard(s), {strategy:?}",
                        what("union")
                    );
                }
            }
        }
    }
    // Rooted queries over random documents must actually skim.
    assert!(total_skimmed > 100, "only {total_skimmed} events skimmed");
}

/// Fails unless every projected delivery of `xml` under `query` (and
/// the union `branches`) ends with the unprojected parse's verdict, at
/// every chunk split when `splits` is set.
fn assert_one_verdict(what: &str, xml: &[u8], query: &Path, branches: &[Path], splits: bool) {
    let strategies: &[SplitStrategy] = if splits { &STRATEGIES } else { &[] };
    if let Some(violation) = check_verdict(xml, query, branches, strategies) {
        panic!("{what}: {violation}");
    }
}

#[test]
fn malformed_input_gets_one_verdict_with_projection_on_or_off() {
    let mut rng = SplitMix64::seed_from_u64(0xBAD_0EC7);
    let doc_cfg = DocConfig::default();
    let mut broken = 0;
    for case in 0..40 {
        let xml = generate_doc(&mut rng, &doc_cfg);
        let (query, union) = queries(&mut rng, &xml);
        for how in MALFORMATIONS {
            let bad = malform(&mut rng, &xml, how);
            let what = format!("case {case} {how:?} `{query}`");
            assert_one_verdict(&what, &bad, &query, &union, true);
            broken += usize::from(reader_verdict(&bad).is_some());
        }
    }
    assert_eq!(
        broken,
        40 * MALFORMATIONS.len(),
        "a mutation kept a document well-formed"
    );
}

#[test]
fn every_truncation_gets_one_verdict_with_projection_on_or_off() {
    let mut rng = SplitMix64::seed_from_u64(0x7_0EC7);
    let doc_cfg = DocConfig::default();
    for case in 0..6 {
        let xml = generate_doc(&mut rng, &doc_cfg);
        let (query, union) = queries(&mut rng, &xml);
        for cut in 0..xml.len() {
            let what = format!("case {case} cut {cut} `{query}`");
            assert_one_verdict(&what, &xml[..cut], &query, &union, cut % 7 == 0);
        }
    }
}

/// A `Read` that stops at each cut, so the pipelined producer's reader
/// refills at exactly the splits the resplit battery feeds.
struct Chunked<'a> {
    xml: &'a [u8],
    cuts: Vec<usize>,
    at: usize,
}

impl<'a> Chunked<'a> {
    fn new(xml: &'a [u8], cuts: &[usize]) -> Chunked<'a> {
        Chunked {
            xml,
            cuts: cuts.to_vec(),
            at: 0,
        }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let next = self
            .cuts
            .iter()
            .copied()
            .find(|&c| c > self.at)
            .unwrap_or(self.xml.len());
        let n = buf.len().min(next - self.at);
        buf[..n].copy_from_slice(&self.xml[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}
