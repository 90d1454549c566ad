//! Streaming scenario from the paper's introduction: stock market data
//! arriving continuously, filtered by an XPath query, with results
//! delivered *incrementally* — long before the stream ends.
//!
//! A producer thread emits an unbounded XML ticker feed through an
//! in-memory pipe; the consumer runs TwigM over it and prints alerts the
//! moment they are decidable. This demonstrates the paper's core
//! requirement: "query results should be distributed incrementally and
//! as soon as they are found, potentially before we read all the data".
//!
//! Run with: `cargo run --example stock_monitor`

use std::io::Read;
use std::sync::mpsc;

use twigm::{ByName, StreamEngine, TwigM};
use twigm_sax::{Attribute, Event, SaxReader};
use twigm_xpath::parse;

/// A `Read` adapter over an mpsc channel of byte chunks.
struct ChannelReader {
    rx: mpsc::Receiver<Vec<u8>>,
    pending: Vec<u8>,
    offset: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.offset >= self.pending.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.pending = chunk;
                    self.offset = 0;
                }
                Err(_) => return Ok(0), // producer hung up: EOF
            }
        }
        let n = (self.pending.len() - self.offset).min(out.len());
        out[..n].copy_from_slice(&self.pending[self.offset..self.offset + n]);
        self.offset += n;
        Ok(n)
    }
}

fn main() {
    let (tx, rx) = mpsc::channel::<Vec<u8>>();

    // Producer: a ticker of 5000 quotes, sent in small bursts.
    let producer = std::thread::spawn(move || {
        let send = |s: String| {
            let _ = tx.send(s.into_bytes());
        };
        send("<ticker>".into());
        let symbols = ["ACME", "GLOBEX", "INITECH", "HOOLI"];
        let mut price = 95.0f64;
        for i in 0..5000u32 {
            // A deterministic pseudo-random walk.
            price += ((i * 2654435761u32.wrapping_mul(i)) % 200) as f64 / 100.0 - 0.995;
            let symbol = symbols[(i as usize) % symbols.len()];
            send(format!(
                "<quote seq=\"{i}\"><symbol>{symbol}</symbol><price>{price:.2}</price>\
                 <volume>{}</volume></quote>",
                (i % 900) + 100
            ));
        }
        send("</ticker>".into());
    });

    // The standing query: ACME trades above 100.
    let query = parse("//quote[symbol = 'ACME'][price > 100]/price").unwrap();
    let mut engine = TwigM::new(&query).unwrap();

    let mut reader = SaxReader::new(ChannelReader {
        rx,
        pending: Vec::new(),
        offset: 0,
    });

    let mut alerts = 0u64;
    let mut events = 0u64;
    let mut first_alert_event = None;
    // Level of the innermost open element, which text belongs to.
    let mut depth = 0;
    while let Some(event) = reader.next_event().expect("well-formed feed") {
        events += 1;
        match event {
            Event::Start(tag) => {
                let attrs: Vec<Attribute<'_>> = tag.attributes().collect::<Result<_, _>>().unwrap();
                depth = tag.level();
                engine.start_named(tag.name(), &attrs, depth, tag.id());
            }
            Event::End(tag) => {
                engine.end_named(tag.name(), tag.level());
                depth = tag.level() - 1;
            }
            Event::Text(t) => engine.text(&t, depth),
            _ => {}
        }
        // Drain incrementally: matches surface while the stream is live.
        for id in engine.take_results() {
            alerts += 1;
            if first_alert_event.is_none() {
                first_alert_event = Some(events);
            }
            if alerts <= 5 {
                println!("ALERT: ACME above 100 (price node id {id}, after {events} events)");
            }
        }
    }
    producer.join().unwrap();
    println!("stream complete: {events} events, {alerts} alerts");
    if let Some(first) = first_alert_event {
        println!(
            "first alert emitted after {first} of {events} events — \
             {:.1}% of the stream (incremental delivery)",
            100.0 * first as f64 / events as f64
        );
    }
    assert!(alerts > 0, "the walk crosses 100 repeatedly");
}
