//! # flock-corpus
//!
//! Workload and dataset generators backing every experiment in the
//! reproduction:
//!
//! * [`notebooks`] — synthetic GitHub-notebook corpora with calibrated
//!   2017/2019 package-popularity distributions (Figure 2);
//! * [`landscape`] — the ML-systems feature-support matrix (Figure 3);
//! * [`tpch`] / [`tpcc`] — query/transaction stream generators for the
//!   SQL-provenance capture experiment (2,208 / 2,200 statements);
//! * [`scripts`] — Python script corpora with ground truth for the
//!   provenance-coverage table (49 "Kaggle" / 37 "enterprise" scripts);
//! * [`tabular`] — the tabular datasets and trained pipelines scored in
//!   the in-DB inference experiment (Figure 4).

pub mod landscape;
pub mod notebooks;
pub mod scripts;
pub mod tabular;
pub mod tpcc;
pub mod tpch;

pub use notebooks::{NotebookCorpus, SnapshotParams};
pub use scripts::{enterprise_corpus, kaggle_corpus, GeneratedScript, GroundTruth};
pub use tabular::{TabularDataset, FIGURE4_SIZES};
