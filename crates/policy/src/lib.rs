//! # flock-policy
//!
//! The Flock policy module (paper §4.1, "Bridging the model-application
//! divide"): declarative business rules evaluated over model outputs
//! before any action reaches the application domain.
//!
//! * conditions in SQL expression syntax (`"risk > 0.8 AND amount >
//!   50000"`), parsed and evaluated by the engine itself;
//! * actions: override / cap / floor the prediction, deny, escalate;
//! * a **continuous monitor** with per-policy hit counts and override
//!   rates;
//! * **transactional** application of domain actions with rollback on
//!   failure;
//! * a decision **history with explanations** for debugging and
//!   end-to-end accountability.

pub mod context;
pub mod engine;
pub mod monitor;
pub mod policy;
pub mod txn;

pub use context::DecisionContext;
pub use engine::{Decision, DecisionRecord, Outcome, PolicyEngine};
pub use monitor::{BreachAction, ContinuousMonitor, MonitorReport, StreamingMonitor};
pub use policy::{eval_condition, Policy, PolicyAction};
pub use txn::{apply_transactional, ActionError, ActionSink, DomainAction, MemorySink};
