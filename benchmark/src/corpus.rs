//! Seeded inputs and the answers they must produce.
//!
//! Everything is a function of `(workload, seed)`: the same seed gives the
//! same bytes (see the hash test), and `rsq` only ever sees the generated
//! file or socket traffic. Expected answers come from
//! `rsq_baselines::SurferEngine` — the plain scalar evaluator — never from
//! `rsq-engine` or `rsq --verify`.

use crate::workload::{Kind, Workload};
use rsq_baselines::SurferEngine;
use rsq_datagen::GenConfig;
use std::ops::Range;
use std::path::{Path, PathBuf};

pub struct Corpus {
    /// The file's content: one document, or one document per NDJSON line.
    pub bytes: Vec<u8>,
    /// Each document's range in `bytes` (without the line terminator).
    pub docs: Vec<Range<usize>>,
    /// The oracle's match positions per document, relative to it.
    pub positions: Vec<Vec<usize>>,
    /// Byte-exact stdout (or socket responses) of a correct run.
    pub expected: Vec<u8>,
    pub path: PathBuf,
    /// FNV-1a of `bytes`, printed with the results.
    pub hash: u64,
}

impl Corpus {
    pub fn doc(&self, i: usize) -> &[u8] {
        &self.bytes[self.docs[i].clone()]
    }

    pub fn slices(&self) -> Vec<&[u8]> {
        (0..self.docs.len()).map(|i| self.doc(i)).collect()
    }

    pub fn matches(&self) -> usize {
        self.positions.iter().map(Vec::len).sum()
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The workload's input bytes and document ranges for `seed`.
pub fn generate(w: &Workload, seed: u64) -> (Vec<u8>, Vec<Range<usize>>) {
    if w.docs == 1 {
        let doc = w.dataset.generate(&GenConfig {
            target_bytes: w.doc_target_bytes,
            seed,
        });
        let whole = std::iter::once(0..doc.len()).collect();
        return (doc.into_bytes(), whole);
    }
    let mut bytes = Vec::with_capacity(w.docs * w.doc_target_bytes);
    let mut docs = Vec::with_capacity(w.docs);
    for i in 0..w.docs as u64 {
        let doc = w.dataset.generate(&GenConfig {
            target_bytes: w.doc_target_bytes,
            seed: seed ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
        let start = bytes.len();
        bytes.extend_from_slice(&rsq_bench::compact_json(doc.as_bytes()));
        docs.push(start..bytes.len());
        bytes.push(b'\n');
    }
    (bytes, docs)
}

/// Generates the corpus, asks the oracle, and writes the input file
/// under `out_dir`.
pub fn build(w: &Workload, seed: u64, out_dir: &Path) -> std::io::Result<Corpus> {
    let (bytes, docs) = generate(w, seed);
    let oracle = SurferEngine::from_text(w.query).expect("workload queries compile");
    let positions: Vec<Vec<usize>> = docs
        .iter()
        .map(|r| oracle.positions(&bytes[r.clone()]))
        .collect();
    let mut expected = Vec::new();
    for (range, found) in docs.iter().zip(&positions) {
        if w.kind == Kind::FileValues {
            let doc = &bytes[range.clone()];
            for &pos in found {
                let span = rsq_json::node_span(doc, pos).expect("oracle positions start a value");
                expected.extend_from_slice(&doc[span]);
                expected.push(b'\n');
            }
        } else {
            expected.extend_from_slice(format!("{}\n", found.len()).as_bytes());
        }
    }
    let extension = if w.docs == 1 { "json" } else { "ndjson" };
    let path = out_dir.join(format!("{}.{extension}", w.name));
    std::fs::write(&path, &bytes)?;
    Ok(Corpus {
        hash: fnv1a(&bytes),
        bytes,
        docs,
        positions,
        expected,
        path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, WORKLOADS};

    /// A shrunken copy of a workload: same generator, query and shape.
    fn small(w: &Workload) -> Workload {
        Workload {
            docs: w.docs.min(5),
            doc_target_bytes: w.doc_target_bytes.min(20_000),
            ..*w
        }
    }

    #[test]
    fn same_seed_same_corpus_and_other_seed_differs() {
        for w in &WORKLOADS {
            let w = small(w);
            let (a, docs) = generate(&w, 42);
            let (b, _) = generate(&w, 42);
            let (c, _) = generate(&w, 43);
            assert_eq!(fnv1a(&a), fnv1a(&b), "{}", w.name);
            assert_ne!(fnv1a(&a), fnv1a(&c), "{}", w.name);
            assert_eq!(docs.len(), w.docs);
        }
    }

    #[test]
    fn multi_document_corpora_are_one_line_per_document() {
        let w = small(workload::by_name("batch-ndjson-t1").unwrap());
        let (bytes, docs) = generate(&w, 1);
        assert_eq!(rsq_batch::split_ndjson(&bytes), docs);
        for r in docs {
            assert!(rsq_json::parse(&bytes[r]).is_ok());
        }
    }

    #[test]
    fn expected_output_has_one_line_per_match_or_document() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for w in &WORKLOADS {
            let w = small(w);
            let corpus = build(&w, 7, &dir).unwrap();
            let lines = corpus.expected.iter().filter(|&&b| b == b'\n').count();
            if w.kind == Kind::FileValues {
                assert_eq!(lines, corpus.matches());
                assert!(lines > 0, "{} matches nothing", w.name);
            } else {
                assert_eq!(lines, w.docs);
            }
            assert_eq!(std::fs::read(&corpus.path).unwrap(), corpus.bytes);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
