//! Deterministic synthetic datasets mirroring the benchmark corpus of
//! *Supporting Descendants in SIMD-Accelerated JSONPath* (ASPLOS 2023).
//!
//! The paper evaluates on nine real datasets (Table 3) plus OpenFood from
//! the appendix; those files are gigabytes hosted on Zenodo and cannot be
//! redistributed here. Each [`Dataset`] generator reproduces the *shape*
//! that drives engine performance instead: the key names used by the
//! paper's queries, the nesting depth, the verbosity (bytes per node), and
//! the relative selectivity of each queried member. Generation is
//! deterministic: the same [`GenConfig`] always yields the same bytes.
//!
//! The [`catalog`] module lists every query of the paper's Appendix C,
//! keyed by the experiment (A/B/C) it belongs to.
//!
//! # Examples
//!
//! ```
//! use rsq_datagen::{Dataset, GenConfig};
//!
//! let doc = Dataset::TwitterSmall.generate(&GenConfig { target_bytes: 50_000, seed: 7 });
//! assert!(doc.len() >= 50_000);
//! let doc2 = Dataset::TwitterSmall.generate(&GenConfig { target_bytes: 50_000, seed: 7 });
//! assert_eq!(doc, doc2); // deterministic
//! ```

#![warn(missing_docs)]
// Contained tier (DESIGN.md §14.2): a panic here is caught as one
// document's `panic` fault, but every site still says why it cannot fire.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod catalog;
mod gen;
mod words;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generation parameters: an (approximate, lower-bound) byte target and a
/// seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenConfig {
    /// Generation stops after the document grows past this size, so the
    /// output is at least this large (plus at most one record).
    pub target_bytes: usize,
    /// RNG seed; every dataset derives its own stream from it.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            target_bytes: default_target_bytes(),
            seed: 0x5eed_cafe,
        }
    }
}

/// The default dataset size for benchmarks: `RSQ_DATASET_MB` megabytes
/// (decimal), or 16 MB when unset or unparsable.
#[must_use]
pub fn default_target_bytes() -> usize {
    std::env::var("RSQ_DATASET_MB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(16_000_000, |mb| mb * 1_000_000)
}

/// The benchmark datasets (Table 3 of the paper, plus OpenFood).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataset {
    /// `AST` (A): clang AST of a large C file — deep, irregular.
    Ast,
    /// `BestBuy` (B): product catalog with rare `videoChapters`.
    BestBuy,
    /// `Crossref` (C): publication metadata — highly regular.
    Crossref,
    /// `GoogleMap` (G): direction responses, `routes/legs/steps` nesting.
    GoogleMap,
    /// `NSPL` (N): dense statistical export — lowest verbosity.
    Nspl,
    /// `Twitter` (T): large tweet array.
    TwitterLarge,
    /// `Twitter small` (Ts): search-API response with trailing metadata.
    TwitterSmall,
    /// `Walmart` (Wa): product feed — highest verbosity.
    Walmart,
    /// `Wikimedia` (Wi): entity dump with rare `P150` claims.
    Wikimedia,
    /// `OpenFood` (O): product database with very rare queried tags.
    OpenFood,
}

impl Dataset {
    /// All datasets, in Table 3 order.
    #[must_use]
    pub fn all() -> [Dataset; 10] {
        [
            Dataset::Ast,
            Dataset::BestBuy,
            Dataset::Crossref,
            Dataset::GoogleMap,
            Dataset::Nspl,
            Dataset::TwitterLarge,
            Dataset::TwitterSmall,
            Dataset::Walmart,
            Dataset::Wikimedia,
            Dataset::OpenFood,
        ]
    }

    /// The dataset's name as used in Table 3.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Ast => "AST",
            Dataset::BestBuy => "BestBuy",
            Dataset::Crossref => "Crossref",
            Dataset::GoogleMap => "GoogleMap",
            Dataset::Nspl => "NSPL",
            Dataset::TwitterLarge => "Twitter",
            Dataset::TwitterSmall => "Twitter small",
            Dataset::Walmart => "Walmart",
            Dataset::Wikimedia => "Wikimedia",
            Dataset::OpenFood => "OpenFood",
        }
    }

    /// The single-letter (or two-letter) id used in the paper's tables.
    #[must_use]
    pub fn letter(self) -> &'static str {
        match self {
            Dataset::Ast => "A",
            Dataset::BestBuy => "B",
            Dataset::Crossref => "C",
            Dataset::GoogleMap => "G",
            Dataset::Nspl => "N",
            Dataset::TwitterLarge => "T",
            Dataset::TwitterSmall => "Ts",
            Dataset::Walmart => "Wa",
            Dataset::Wikimedia => "Wi",
            Dataset::OpenFood => "O",
        }
    }

    /// Generates the dataset's JSON text.
    ///
    /// The output is valid JSON of at least `config.target_bytes` bytes
    /// (except [`Dataset::TwitterSmall`], which treats the target as an
    /// upper bound to stay faithful to its 0.7 MB original).
    #[must_use]
    pub fn generate(self, config: &GenConfig) -> String {
        // Derive a per-dataset stream so datasets are independent.
        let seed = config.seed ^ (self as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = String::with_capacity(config.target_bytes + (config.target_bytes >> 3));
        let t = config.target_bytes;
        match self {
            Dataset::Ast => gen::ast::generate(&mut out, &mut rng, t),
            Dataset::BestBuy => gen::bestbuy::generate(&mut out, &mut rng, t),
            Dataset::Crossref => gen::crossref::generate(&mut out, &mut rng, t),
            Dataset::GoogleMap => gen::googlemap::generate(&mut out, &mut rng, t),
            Dataset::Nspl => gen::nspl::generate(&mut out, &mut rng, t),
            Dataset::TwitterLarge => gen::twitter::generate_large(&mut out, &mut rng, t),
            Dataset::TwitterSmall => gen::twitter::generate_small(&mut out, &mut rng, t),
            Dataset::Walmart => gen::walmart::generate(&mut out, &mut rng, t),
            Dataset::Wikimedia => gen::wikimedia::generate(&mut out, &mut rng, t),
            Dataset::OpenFood => gen::openfood::generate(&mut out, &mut rng, t),
        }
        out
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_valid_json() {
        let config = GenConfig {
            target_bytes: 60_000,
            seed: 42,
        };
        for dataset in Dataset::all() {
            let text = dataset.generate(&config);
            assert!(
                rsq_json::parse(text.as_bytes()).is_ok(),
                "{dataset} generates invalid JSON"
            );
            assert!(text.len() >= 50_000, "{dataset} too small: {}", text.len());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = GenConfig {
            target_bytes: 30_000,
            seed: 7,
        };
        for dataset in Dataset::all() {
            assert_eq!(dataset.generate(&config), dataset.generate(&config));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::BestBuy.generate(&GenConfig {
            target_bytes: 10_000,
            seed: 1,
        });
        let b = Dataset::BestBuy.generate(&GenConfig {
            target_bytes: 10_000,
            seed: 2,
        });
        assert_ne!(a, b);
    }

    #[test]
    fn ast_is_deep() {
        let text = Dataset::Ast.generate(&GenConfig {
            target_bytes: 400_000,
            seed: 42,
        });
        let stats = rsq_json::document_stats(text.as_bytes());
        assert!(stats.max_depth > 30, "AST depth only {}", stats.max_depth);
    }

    #[test]
    fn verbosity_ordering_matches_table3() {
        // NSPL is the densest, Walmart the most verbose (Table 3).
        let config = GenConfig {
            target_bytes: 300_000,
            seed: 42,
        };
        let v = |d: Dataset| {
            let text = d.generate(&config);
            rsq_json::document_stats(text.as_bytes()).verbosity()
        };
        let nspl = v(Dataset::Nspl);
        let walmart = v(Dataset::Walmart);
        let bestbuy = v(Dataset::BestBuy);
        assert!(nspl < bestbuy, "nspl {nspl} vs bestbuy {bestbuy}");
        assert!(bestbuy < walmart, "bestbuy {bestbuy} vs walmart {walmart}");
        assert!(walmart > 50.0, "walmart verbosity {walmart}");
        assert!(nspl < 25.0, "nspl verbosity {nspl}");
    }

    #[test]
    fn twitter_small_has_trailing_metadata() {
        let text = Dataset::TwitterSmall.generate(&GenConfig {
            target_bytes: 100_000,
            seed: 3,
        });
        let meta_pos = text.find("search_metadata").unwrap();
        assert!(
            meta_pos > text.len() * 3 / 4,
            "metadata must be near the end"
        );
    }

    #[test]
    fn env_default_parses() {
        assert!(default_target_bytes() >= 1_000_000);
    }
}
