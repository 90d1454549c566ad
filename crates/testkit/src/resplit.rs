//! Stream-robustness driver: the same document re-fed under adversarial
//! byte-chunk splits must produce identical results and identical
//! Theorem 4.4 peak-memory accounting.
//!
//! Chunking is exercised through the public [`FeedReader`] push API —
//! the seam a network or pipeline deployment would use — so a parse that
//! resumes mid-tag, mid-entity-reference or mid-CDATA-section is
//! byte-for-byte equivalent to a whole-buffer parse. The same document
//! replayed from pre-parsed event batches ([`run_engine_batched`]) is the
//! pipelined drivers' delivery of it.

use twigm::engine::{drive, replay_batch, NoTelemetry, StreamEngine};
use twigm_sax::batch::{BatchPlan, BatchProducer, EventBatch, DEFAULT_BATCH_EVENTS};
use twigm_sax::{FeedReader, NodeId, SaxError, SaxReader, SymbolTable};

/// A family of chunk boundaries to re-feed a document under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// One byte at a time — every boundary at once.
    OneByte,
    /// Fixed-size chunks of `k` bytes.
    EveryK(usize),
    /// Cuts placed right after `<`, `&` and `]]` — mid-tag, mid-entity
    /// and mid-CDATA-terminator boundaries specifically.
    Boundaries,
}

/// All strategies a standard check battery runs.
pub const STRATEGIES: [SplitStrategy; 4] = [
    SplitStrategy::OneByte,
    SplitStrategy::EveryK(3),
    SplitStrategy::EveryK(7),
    SplitStrategy::Boundaries,
];

/// The sorted interior cut positions a strategy makes on `xml`.
pub fn split_points(xml: &[u8], strategy: SplitStrategy) -> Vec<usize> {
    let mut cuts = Vec::new();
    match strategy {
        SplitStrategy::OneByte => cuts.extend(1..xml.len()),
        SplitStrategy::EveryK(k) => {
            let k = k.max(1);
            cuts.extend((1..xml.len()).filter(|i| i % k == 0));
        }
        SplitStrategy::Boundaries => {
            for i in 0..xml.len().saturating_sub(1) {
                let cut = match xml[i] {
                    b'<' | b'&' => true,
                    b']' => xml.get(i + 1) == Some(&b']'),
                    _ => false,
                };
                if cut {
                    cuts.push(i + 1);
                }
            }
        }
    }
    cuts
}

/// Runs `engine` over `xml` delivered as the chunks induced by `cuts`
/// (sorted interior positions), via [`FeedReader`] and the event driver.
/// Returns the matched ids and the engine, mirroring
/// `twigm::engine::run_engine`.
pub fn run_engine_chunked<E: StreamEngine>(
    mut engine: E,
    xml: &[u8],
    cuts: &[usize],
) -> Result<(Vec<NodeId>, E), SaxError> {
    let mut parser = FeedReader::new();
    let mut start = 0usize;
    for (i, end) in cuts.iter().copied().chain([xml.len()]).enumerate() {
        parser.feed(&xml[start..end]);
        start = end;
        if i == cuts.len() {
            parser.finish();
        }
        drive(&mut engine, &mut parser, &mut NoTelemetry)?;
    }
    let results = engine.take_results();
    Ok((results, engine))
}

/// Runs `engine` over `xml` packed into deliver-all [`EventBatch`]es and
/// replayed, as the pipelined drivers deliver it: the producer's reader
/// skims under the engine's projection, and no symbol prefilter drops
/// events. With `relookup` off the batches are produced under the
/// engine's own table and applied with [`StreamEngine::apply_batch`].
/// With it on they are produced under a table that numbers the names
/// differently, and each stored symbol is converted through that
/// table's translation into the engine's, as the sharded workers do.
pub fn run_engine_batched<E: StreamEngine>(
    mut engine: E,
    xml: &[u8],
    relookup: bool,
) -> Result<(Vec<NodeId>, E), SaxError> {
    let own = engine.symbols().cloned().unwrap_or_default();
    let plan_table = if relookup {
        let mut shifted = SymbolTable::new();
        shifted.intern("\u{0}not-a-tag");
        for (_, name) in own.iter() {
            shifted.intern(name);
        }
        shifted
    } else {
        own.clone()
    };
    let projection = engine.projection().map(|p| p.remap(&own, &plan_table));
    let remap = plan_table.translation(&own);
    let reader = SaxReader::new(xml).with_projection(projection);
    let mut producer = BatchProducer::new(reader, BatchPlan::deliver_all(plan_table));
    let mut batch = EventBatch::new();
    while producer.next_batch(&mut batch, DEFAULT_BATCH_EVENTS)? {
        if relookup {
            replay_batch(&mut engine, &batch, Some(&remap));
        } else {
            engine.apply_batch(&batch);
        }
    }
    let results = engine.take_results();
    Ok((results, engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm::engine::run_engine;
    use twigm::TwigM;
    use twigm_xpath::parse;

    #[test]
    fn split_points_cover_the_document() {
        let xml = b"<a>&amp;<![CDATA[x]]></a>";
        assert_eq!(
            split_points(xml, SplitStrategy::OneByte).len(),
            xml.len() - 1
        );
        let cuts = split_points(xml, SplitStrategy::Boundaries);
        // After '<' (4 tags + CDATA open), after '&', after ']]'.
        assert!(cuts.contains(&1), "mid-tag cut");
        assert!(cuts.contains(&4), "mid-entity cut");
        assert!(!cuts.is_empty() && cuts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn chunked_run_matches_whole_run() {
        let xml = b"<r><a p=\"1\">t&amp;x<b/></a><a><b/></a></r>";
        let query = parse("//a[@p]/b").unwrap();
        let (whole, engine) = run_engine(TwigM::new(&query).unwrap(), &xml[..]).unwrap();
        let whole_peak = engine.stats().peak_entries;
        for strategy in STRATEGIES {
            let cuts = split_points(xml, strategy);
            let (ids, engine) =
                run_engine_chunked(TwigM::new(&query).unwrap(), xml, &cuts).unwrap();
            assert_eq!(ids, whole, "{strategy:?}");
            assert_eq!(engine.stats().peak_entries, whole_peak, "{strategy:?}");
        }
    }
}
