//! Driver-parity gate: every way of delivering one document to an
//! engine must be observationally identical — same result ids *and*
//! the same [`EngineStats`], counter for counter — across the testkit
//! generator corpus. The four deliveries are the event driver over the
//! SAX reader, the same driver over a push-fed `FeedReader` at every
//! chunk split, the replay of deliver-all event batches on the engine's
//! own symbol table, and that replay re-looked-up through a separately
//! compiled copy's table, as the sharded workers run it. This is what
//! makes `--stats` output comparable across execution modes.

use twigm::{run_engine, Engine, EngineStats, MultiTwigM, StreamEngine};
use twigm_datagen::SplitMix64;
use twigm_testkit::querygen::{generate_query, QueryConfig};
use twigm_testkit::resplit::{run_engine_batched, run_engine_chunked, split_points, STRATEGIES};
use twigm_testkit::xmlgen::{generate_doc, DocConfig};
use twigm_xpath::Path;

type Run = (Vec<u64>, EngineStats);

fn outcome<E: StreamEngine>(
    result: Result<(Vec<twigm_sax::NodeId>, E), twigm_sax::SaxError>,
) -> Run {
    let (ids, engine) = result.expect("generated XML is well-formed");
    (
        ids.iter().map(|id| id.get()).collect(),
        engine.stats().clone(),
    )
}

/// Runs the four deliveries over fresh engines from `make` and asserts
/// they all agree with the `SaxReader` run.
fn assert_parity<E: StreamEngine>(what: &str, xml: &[u8], make: impl Fn() -> E) {
    let reference = outcome(run_engine(make(), xml));
    for strategy in STRATEGIES {
        let cuts = split_points(xml, strategy);
        let chunked = outcome(run_engine_chunked(make(), xml, &cuts));
        assert_eq!(chunked, reference, "{what}: FeedReader at {strategy:?}");
    }
    let replayed = outcome(run_engine_batched(make(), xml, false));
    assert_eq!(replayed, reference, "{what}: batch replay on the own table");
    let relooked = outcome(run_engine_batched(make(), xml, true));
    assert_eq!(relooked, reference, "{what}: batch replay re-looked-up");
}

fn multi(queries: &[&Path]) -> MultiTwigM {
    let mut engine = MultiTwigM::new();
    for query in queries {
        engine.add_query(query).unwrap();
    }
    engine
}

#[test]
fn every_driver_agrees_on_ids_and_stats() {
    let mut rng = SplitMix64::seed_from_u64(0x57A7_5017);
    // The second standing queries come from their own stream, so the
    // (document, query) corpus stays the one `rng` alone derives.
    let mut other_rng = SplitMix64::seed_from_u64(0x07E5_0017);
    let doc_cfg = DocConfig::default();
    let query_cfg = QueryConfig::default();
    for case in 0..80u32 {
        let xml = generate_doc(&mut rng, &doc_cfg);
        let query = generate_query(&mut rng, &query_cfg);
        let other = generate_query(&mut other_rng, &query_cfg);

        // Auto-selected engine (PathM / BranchM / TwigM by query class).
        assert_parity(&format!("case {case} Engine `{query}`"), &xml, || {
            Engine::new(&query).unwrap()
        });
        // Two standing queries on one shared dispatch.
        assert_parity(
            &format!("case {case} MultiTwigM `{query}`, `{other}`"),
            &xml,
            || multi(&[&query, &other]),
        );
    }
}
