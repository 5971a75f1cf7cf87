//! # flock-ml
//!
//! The ML substrate of the Flock reference architecture (CIDR 2020,
//! *"Cloudy with high chance of DBMS"*). It provides everything the paper
//! assumes exists around the DBMS:
//!
//! * **featurizers** (imputation, scaling, one-hot, feature hashing,
//!   binning) and **inference pipelines** — "practical end-to-end
//!   prediction pipelines are composed of a larger variety of operators";
//! * a **model zoo** (linear, logistic, decision tree, random forest,
//!   gradient-boosted trees, naive Bayes, kNN) with batch and row scoring;
//! * **training** routines so experiments use realistic models;
//! * **FONNX**, a uniform serialized model representation (the paper's
//!   ONNX stand-in), stored by the DBMS as model payloads;
//! * scoring **runtimes**: a vectorized standalone runtime (the paper's
//!   "ONNX Runtime" baseline) and a row-at-a-time interpreter (the
//!   "Inline SQL" 1× anchor);
//! * the **introspection hooks** the cross-optimizer consumes: per-input
//!   usage from model sparsity, range-based model compression, and
//!   deterministic feature layout.

pub mod compiled;
pub mod drift;
pub mod error;
pub mod featurize;
pub mod fonnx;
pub mod frame;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod pipeline;
pub mod runtime;
pub mod specialize;
pub mod train;

pub use compiled::{CompiledModel, CompiledPipeline};
pub use drift::{DriftReport, DriftVerdict, ScoreProfile};
pub use error::{MlError, Result};
pub use featurize::{Categories, ColumnPipeline, Encoder, NumericStep, RawValue};
pub use frame::{Frame, FrameCol};
pub use matrix::Matrix;
pub use model::{
    DecisionTree, GaussianNb, GbtModel, KnnModel, LinearModel, Model, RandomForest,
    TreeNode,
};
pub use pipeline::Pipeline;
pub use specialize::{specialize_mask, InputConstraint, SpecializationReport};
pub use runtime::{
    interpreted_score, interpreted_score_with_metrics, ScoringMetrics, StageMetrics,
    StandaloneRuntime,
};
