//! Cross-engine agreement on the paper's generated datasets: every
//! streaming engine must return exactly the node set the in-memory DOM
//! oracle computes, for every benchmark query.

use twigm::engine::run_engine;
use twigm::{Engine, PathM, TwigM};
use twigm_baselines::inmem::{Document, InMemEval};
use twigm_baselines::{LazyDfa, NaiveEnum};
use twigm_datagen::Dataset;
use twigm_sax::NodeId;
use twigm_xpath::parse;

fn sorted(ids: Vec<NodeId>) -> Vec<u64> {
    let mut ids: Vec<u64> = ids.into_iter().map(NodeId::get).collect();
    ids.sort_unstable();
    ids
}

fn check_dataset(dataset: Dataset, queries: &[&str]) {
    let (xml, _) = dataset.generate_vec(150_000);
    let doc = Document::parse_bytes(&xml).unwrap();
    let mut oracle = InMemEval::new(&doc);
    for text in queries {
        let query = parse(text).unwrap();
        let expected = sorted(oracle.evaluate(&query));

        let twig = sorted(run_engine(TwigM::new(&query).unwrap(), &xml[..]).unwrap().0);
        assert_eq!(twig, expected, "TwigM vs oracle on {text} ({dataset:?})");

        let auto = sorted(
            run_engine(Engine::new(&query).unwrap(), &xml[..])
                .unwrap()
                .0,
        );
        assert_eq!(auto, expected, "Engine vs oracle on {text} ({dataset:?})");

        let naive = sorted(
            run_engine(NaiveEnum::new(&query).unwrap(), &xml[..])
                .unwrap()
                .0,
        );
        assert_eq!(
            naive, expected,
            "NaiveEnum vs oracle on {text} ({dataset:?})"
        );

        if query.is_predicate_free() {
            let path = sorted(run_engine(PathM::new(&query).unwrap(), &xml[..]).unwrap().0);
            assert_eq!(path, expected, "PathM vs oracle on {text} ({dataset:?})");
            let dfa = sorted(
                run_engine(LazyDfa::new(&query).unwrap(), &xml[..])
                    .unwrap()
                    .0,
            );
            assert_eq!(dfa, expected, "LazyDfa vs oracle on {text} ({dataset:?})");
        }
    }
}

#[test]
fn book_queries_agree() {
    check_dataset(
        Dataset::Book,
        &[
            "/bib/book/title",
            "//section//figure",
            "/bib/*/title",
            "//section/*//image",
            "//section[title]/p",
            "//section[figure]//title",
            "//book[@year]//section[@id]/title",
            "//book[@year = '1999']/title",
            "//section[figure[image]]//p",
            "//book//*[title][figure/@width]/p",
            "//section[@difficulty > 5]//figure",
            "//book[author/last]//p",
        ],
    );
}

#[test]
fn auction_queries_agree() {
    check_dataset(
        Dataset::Auction,
        &[
            "/site//regions/africa/item/name",
            "//people/person[@id = 'person0']/name",
            "//open_auction[bidder]/current",
            "//item[payment]/name",
            "//person[profile/@income > 50000]/name",
            "//open_auction[bidder/increase > 20]/itemref",
            "//description//listitem//text",
            "//closed_auction[annotation]/price",
            "//listitem//listitem",
            "//person[profile[interest]]/name",
        ],
    );
}

#[test]
fn protein_queries_agree() {
    check_dataset(
        Dataset::Protein,
        &[
            "/ProteinDatabase/ProteinEntry/protein/name",
            "//reference//author",
            "/ProteinDatabase/*/header/uid",
            "//refinfo/*/author",
            "//ProteinEntry[keywords]/protein",
            "//refinfo[year]/title",
            "//ProteinEntry[@id]//gene",
            "//accinfo[mol-type = 'mRNA']",
            "//ProteinEntry[reference/refinfo[authors]]//keyword",
            "//*[header][summary/type = 'protein']/sequence",
        ],
    );
}

#[test]
fn recursive_stress_agrees() {
    // The adversarial shape for streaming engines: heavy tag repetition.
    let mut xml = Vec::from(&b"<root>"[..]);
    let mut count = 0;
    let mut seed = 100;
    while count < 4_000 {
        let mut tree = Vec::new();
        count +=
            twigm_datagen::recursive::random_recursive(seed, 12, 3, &["x", "y", "z"], &mut tree)
                .unwrap();
        xml.extend_from_slice(&tree);
        seed += 1;
    }
    xml.extend_from_slice(b"</root>");
    let doc = Document::parse_bytes(&xml).unwrap();
    let mut oracle = InMemEval::new(&doc);
    for text in [
        "//x//y//z",
        "//x[y]//z",
        "//x[y][z]//y",
        "//x//x//x",
        "//x[y/z]//y",
        "//*[x]//y",
        "//x[.//z]//y",
        "//z[x or y]",
    ] {
        let query = parse(text).unwrap();
        let expected = sorted(oracle.evaluate(&query));
        let twig = sorted(run_engine(TwigM::new(&query).unwrap(), &xml[..]).unwrap().0);
        assert_eq!(twig, expected, "TwigM vs oracle on {text}");
        let naive = sorted(
            run_engine(NaiveEnum::new(&query).unwrap(), &xml[..])
                .unwrap()
                .0,
        );
        assert_eq!(naive, expected, "NaiveEnum vs oracle on {text}");
    }
}

#[test]
fn union_evaluation_matches_per_branch_oracle() {
    let (xml, _) = Dataset::Book.generate_vec(100_000);
    let branches =
        twigm_xpath::parse_union("//section[title]/p | //figure/image | //book/author/last")
            .unwrap();
    let union = twigm::evaluate_union(&branches, &xml[..]).unwrap();
    let doc = Document::parse_bytes(&xml).unwrap();
    let mut oracle = InMemEval::new(&doc);
    let mut expected: Vec<u64> = branches
        .iter()
        .flat_map(|b| oracle.evaluate(b))
        .map(NodeId::get)
        .collect();
    expected.sort_unstable();
    expected.dedup();
    let union: Vec<u64> = union.into_iter().map(NodeId::get).collect();
    assert_eq!(union, expected);
}

// ---------------------------------------------------------------------
// Seeded differential sweep: documents derived from one SplitMix64
// stream × the benchmark query corpus, every applicable engine, through
// BOTH delivery paths: the event driver over the SAX reader and the
// replay of pre-parsed event batches.
// ---------------------------------------------------------------------

use twigm::engine::StreamEngine;
use twigm::BranchM;
use twigm_datagen::SplitMix64;
use twigm_testkit::resplit::run_engine_batched;

/// One differential case: every engine whose language covers `text`
/// must reproduce the oracle's id set through both delivery paths.
fn differential_case(oracle: &mut InMemEval<'_>, xml: &[u8], text: &str) {
    let query = parse(text).unwrap();
    let expected = sorted(oracle.evaluate(&query));
    check_both_paths("TwigM", text, xml, &expected, || {
        TwigM::new(&query).unwrap()
    });
    check_both_paths("NaiveEnum", text, xml, &expected, || {
        NaiveEnum::new(&query).unwrap()
    });
    if query.is_predicate_free() {
        check_both_paths("PathM", text, xml, &expected, || {
            PathM::new(&query).unwrap()
        });
    }
    if query.is_branch_only() {
        check_both_paths("BranchM", text, xml, &expected, || {
            BranchM::new(&query).unwrap()
        });
    }
}

/// Runs a fresh engine from `make` through the driver and through the
/// batch replay; both must give `expected`.
fn check_both_paths<E: StreamEngine>(
    name: &str,
    text: &str,
    xml: &[u8],
    expected: &[u64],
    make: impl Fn() -> E,
) {
    let driven = sorted(run_engine(make(), xml).unwrap().0);
    assert_eq!(driven, expected, "{name} (driver) vs oracle on {text}");
    let replayed = sorted(run_engine_batched(make(), xml, false).unwrap().0);
    assert_eq!(
        replayed, expected,
        "{name} (batch replay) vs oracle on {text}"
    );
}

/// A seeded differential sweep against the DOM oracle: one
/// SplitMix64 stream derives every document (benchmark datasets at
/// random seeds plus adversarial recursive trees), each paired with the
/// full benchmark query corpus. Well over 100 (document, query) cases,
/// deterministic across platforms.
#[test]
fn seeded_differential_sweep_covers_corpus_on_both_paths() {
    let mut rng = SplitMix64::seed_from_u64(0x7716_4D21);
    let mut cases = 0usize;

    // Benchmark datasets at three random seeds each × their corpus.
    type Corpus = fn() -> Vec<twigm_bench::QuerySpec>;
    let corpora: [(Dataset, Corpus); 3] = [
        (Dataset::Book, twigm_bench::book_queries),
        (Dataset::Auction, twigm_bench::auction_queries),
        (Dataset::Protein, twigm_bench::protein_queries),
    ];
    for (dataset, queries) in corpora {
        for _ in 0..3 {
            let seed = rng.next_u64();
            let mut xml = Vec::new();
            match dataset {
                Dataset::Book => twigm_datagen::book::generate(seed, 80_000, &mut xml),
                Dataset::Auction => twigm_datagen::auction::generate(seed, 80_000, &mut xml),
                Dataset::Protein => twigm_datagen::protein::generate(seed, 80_000, &mut xml),
            }
            .unwrap();
            let doc = Document::parse_bytes(&xml).unwrap();
            let mut oracle = InMemEval::new(&doc);
            for spec in queries() {
                differential_case(&mut oracle, &xml, spec.text);
                cases += 1;
            }
        }
    }

    // Adversarial recursive documents (heavy tag repetition along paths)
    // × recursion-stressing queries.
    let recursive_queries = [
        "//x//y//z",
        "//x[y]//z",
        "//x[y][z]//y",
        "//x//x//x",
        "//x[y/z]//y",
        "//*[x]//y",
        "//x[.//z]//y",
        "//z[x or y]",
        "/root/x//y",
        "//x/*/z",
    ];
    for _ in 0..4 {
        let seed = rng.next_u64();
        let depth = 6 + (rng.next_u64() % 6) as u32;
        let fanout = 2 + (rng.next_u64() % 2) as usize;
        let mut xml = Vec::from(&b"<root>"[..]);
        for tree in 0..3 {
            twigm_datagen::recursive::random_recursive(
                seed.wrapping_add(tree),
                depth,
                fanout,
                &["x", "y", "z"],
                &mut xml,
            )
            .unwrap();
        }
        xml.extend_from_slice(b"</root>");
        let doc = Document::parse_bytes(&xml).unwrap();
        let mut oracle = InMemEval::new(&doc);
        for text in recursive_queries {
            differential_case(&mut oracle, &xml, text);
            cases += 1;
        }
    }

    assert!(cases >= 100, "only {cases} differential cases ran");
}
