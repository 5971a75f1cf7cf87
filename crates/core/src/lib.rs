//! # flock-core
//!
//! The primary contribution of the reproduced paper (*"Cloudy with high
//! chance of DBMS"*, CIDR 2020): **Enterprise-Grade ML inside the DBMS**.
//!
//! * Models are **first-class catalog objects** — versioned, access
//!   controlled, audited, and updatable transactionally (several models
//!   can switch atomically in one COMMIT).
//! * `PREDICT(model, args...)` is a **relational expression**: inference
//!   runs inside query execution, next to the data, with no exfiltration.
//! * A **cross-optimizer** rewrites hybrid SQL×ML plans: predicate
//!   push-up across logistic models, input-column pruning from model
//!   sparsity, statistics-driven model compression, Froid-style model
//!   inlining, and statistics-driven physical operator selection (the
//!   morsel-parallel operator decides the fan-out; each morsel is scored
//!   row-at-a-time or by the compiled kernel).
//!
//! The entry point is [`FlockDb`]; open sessions with
//! [`FlockDb::session`], deploy models with
//! [`FlockSession::deploy_model`] or the `CREATE MODEL` DDL, and score
//! with ordinary SQL:
//!
//! ```
//! use flock_core::FlockDb;
//!
//! let db = FlockDb::new();
//! db.execute("CREATE TABLE loans (income DOUBLE, debt DOUBLE, approved INT)").unwrap();
//! db.execute("INSERT INTO loans VALUES (95.0, 10.0, 1), (20.0, 50.0, 0), \
//!             (80.0, 20.0, 1), (15.0, 60.0, 0)").unwrap();
//! db.execute("CREATE MODEL approval KIND logistic FROM loans TARGET approved").unwrap();
//! let batch = db
//!     .query("SELECT income, PREDICT(approval, income, debt) AS p FROM loans")
//!     .unwrap();
//! assert_eq!(batch.num_rows(), 4);
//! ```

pub mod flockdb;
pub mod meta;
pub mod provider;
pub mod registry;
pub mod xopt;

pub use flockdb::{FlockDb, FlockSession, ModelPackage, MODEL_KIND};
pub use meta::{Lineage, ModelMetadata};
pub use provider::FlockInferenceProvider;
pub use registry::{ModelRegistry, RegisteredModel};
pub use xopt::{CrossOptimizer, XOptConfig};
