//! Dataset materialization and caching.
//!
//! Experiments stream datasets from disk (like the paper's systems did),
//! so memory measurements reflect engine state, not input buffers. Files
//! are generated once into `target/twigm-datasets/` and reused.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

use twigm_datagen::Dataset;

/// Default fraction of the paper's dataset sizes (keeps a full figure run
/// in the minutes range; pass `--full` to binaries for 1.0).
pub const DEFAULT_SCALE: f64 = 0.25;

/// The paper's dataset sizes in bytes (figure 5): Book 9 MB, Benchmark
/// (XMark auction) 34 MB, Protein 75 MB.
pub fn paper_size(dataset: Dataset) -> usize {
    match dataset {
        Dataset::Book => 9 * 1024 * 1024,
        Dataset::Auction => 34 * 1024 * 1024,
        Dataset::Protein => 75 * 1024 * 1024,
    }
}

/// Directory where generated datasets are cached.
pub fn cache_dir() -> PathBuf {
    // Keep artifacts under target/ so `cargo clean` removes them.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.push("target");
    dir.push("twigm-datasets");
    dir
}

/// Path of a cached dataset at a given byte size.
pub fn dataset_path(dataset: Dataset, bytes: usize) -> PathBuf {
    let mut path = cache_dir();
    path.push(format!("{}-{}.xml", dataset.name().to_lowercase(), bytes));
    path
}

/// Ensures the dataset exists on disk; returns its path.
pub fn ensure_dataset(dataset: Dataset, bytes: usize) -> std::io::Result<PathBuf> {
    let path = dataset_path(dataset, bytes);
    if path.exists() {
        return Ok(path);
    }
    fs::create_dir_all(cache_dir())?;
    publish(&path, |writer| {
        dataset.generate(bytes, writer)?;
        Ok(())
    })?;
    Ok(path)
}

/// Writes a cache file: `write` fills a temporary file whose name is
/// unique to this process and thread, which is then published at `path`
/// unless another writer published it first. Concurrent callers (test
/// threads, parallel binaries) each write their own temporary file and
/// never replace a published one, so a published file never changes
/// under a reader.
fn publish(
    path: &std::path::Path,
    write: impl FnOnce(&mut BufWriter<fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{:?}.tmp",
        std::process::id(),
        std::thread::current().id()
    ));
    let tmp = PathBuf::from(tmp);
    let written = fs::File::create(&tmp).and_then(|file| {
        let mut writer = BufWriter::new(file);
        write(&mut writer)?;
        writer.flush()
    });
    // A hard link publishes atomically and fails, instead of replacing,
    // when the file is already there.
    let published = written.and_then(|()| match fs::hard_link(&tmp, path) {
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(()),
        linked => linked,
    });
    let removed = fs::remove_file(&tmp);
    published.and(removed)
}

/// Duplicates a dataset k times into one well-formed document (the
/// paper's scaling methodology, §5.4: "we duplicated the Book dataset
/// between 2 and 6 times"). The copies are wrapped in a `<dup>` root and
/// each copy's original root becomes a child, so `//`-queries see k
/// copies of every match.
pub fn ensure_duplicated(dataset: Dataset, bytes: usize, k: usize) -> std::io::Result<PathBuf> {
    assert!(k >= 1);
    let base = ensure_dataset(dataset, bytes)?;
    if k == 1 {
        return Ok(base);
    }
    let mut path = cache_dir();
    path.push(format!(
        "{}-{}-x{}.xml",
        dataset.name().to_lowercase(),
        bytes,
        k
    ));
    if path.exists() {
        return Ok(path);
    }
    let body = fs::read(&base)?;
    // Strip the XML declaration of the base copy.
    let content_start = match body.windows(2).position(|w| w == b"?>") {
        Some(i) => i + 2,
        None => 0,
    };
    publish(&path, |writer| {
        writer.write_all(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?><dup>")?;
        for _ in 0..k {
            writer.write_all(&body[content_start..])?;
        }
        writer.write_all(b"</dup>")
    })?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_reuses() {
        let path = ensure_dataset(Dataset::Book, 20_000).unwrap();
        assert!(path.exists());
        let len = fs::metadata(&path).unwrap().len();
        assert!(len >= 20_000);
        // Second call must not regenerate (same mtime).
        let mtime = fs::metadata(&path).unwrap().modified().unwrap();
        let path2 = ensure_dataset(Dataset::Book, 20_000).unwrap();
        assert_eq!(path, path2);
        assert_eq!(fs::metadata(&path2).unwrap().modified().unwrap(), mtime);
    }

    #[test]
    fn concurrent_writers_publish_one_file() {
        // A size no other test uses, generated afresh.
        let path = dataset_path(Dataset::Book, 20_001);
        match fs::remove_file(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => panic!("{e}"),
            _ => {}
        }
        let threads: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| ensure_dataset(Dataset::Book, 20_001).unwrap()))
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), path);
        }
        let mtime = fs::metadata(&path).unwrap().modified().unwrap();
        ensure_dataset(Dataset::Book, 20_001).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().modified().unwrap(), mtime);
        // No temporary file is left behind.
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers = fs::read_dir(cache_dir())
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(&stem) && name.ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0);
    }

    #[test]
    fn duplication_multiplies_content_and_stays_wellformed() {
        let p1 = ensure_duplicated(Dataset::Book, 20_000, 1).unwrap();
        let p3 = ensure_duplicated(Dataset::Book, 20_000, 3).unwrap();
        let len1 = fs::metadata(&p1).unwrap().len();
        let len3 = fs::metadata(&p3).unwrap().len();
        assert!(len3 > 2 * len1);
        let bytes = fs::read(&p3).unwrap();
        let mut reader = twigm_sax::SaxReader::from_bytes(&bytes);
        let mut roots = 0;
        while let Some(e) = reader.next_event().unwrap() {
            if let twigm_sax::Event::Start(t) = e {
                if t.level() == 2 && t.name() == "bib" {
                    roots += 1;
                }
            }
        }
        assert_eq!(roots, 3);
    }

    #[test]
    fn paper_sizes_match_figure5() {
        assert_eq!(paper_size(Dataset::Book), 9 * 1024 * 1024);
        assert_eq!(paper_size(Dataset::Auction), 34 * 1024 * 1024);
        assert_eq!(paper_size(Dataset::Protein), 75 * 1024 * 1024);
    }
}
