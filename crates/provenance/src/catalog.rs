//! The provenance catalog — our Apache Atlas stand-in.
//!
//! "The Catalog stores all the provenance information and acts as the
//! bridge between the SQL and the Python Provenance modules" (§4.2). Both
//! capture modules write into one shared [`ProvenanceGraph`] through this
//! API, which is what lets a Python script's `read_sql` connect to the
//! column-level lineage captured on the database side (challenge C3).

use crate::graph::{EdgeKind, NodeId, NodeKind, ProvenanceGraph};

/// Shared provenance store.
#[derive(Debug, Default)]
pub struct ProvCatalog {
    graph: ProvenanceGraph,
    next_query_id: u64,
    next_script_id: u64,
}

impl ProvCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn graph(&self) -> &ProvenanceGraph {
        &self.graph
    }

    pub fn graph_mut(&mut self) -> &mut ProvenanceGraph {
        &mut self.graph
    }

    // ---- entity helpers shared by capture modules ----

    pub fn table(&mut self, name: &str) -> NodeId {
        self.graph.upsert(NodeKind::Table, name, None)
    }

    pub fn column(&mut self, table: &str, column: &str) -> NodeId {
        let t = self.table(table);
        let c = self
            .graph
            .upsert(NodeKind::Column, &format!("{table}.{column}"), None);
        self.graph.link(c, t, EdgeKind::PartOf);
        c
    }

    /// A specific snapshot of a table ("an INSERT to a table results in a
    /// new version of the table in the provenance data model"). Versions
    /// chain temporally: v derives from v-1 when that snapshot is known.
    pub fn table_version(&mut self, table: &str, version: u64) -> NodeId {
        let t = self.table(table);
        let v = self
            .graph
            .upsert(NodeKind::TableVersion, table, Some(version));
        self.graph.link(v, t, EdgeKind::VersionOf);
        if version > 1 {
            if let Some(prev) = self
                .graph
                .find(NodeKind::TableVersion, table, Some(version - 1))
            {
                self.graph.link(v, prev, EdgeKind::DerivedFrom);
            }
        }
        v
    }

    pub fn user(&mut self, name: &str) -> NodeId {
        self.graph.upsert(NodeKind::User, name, None)
    }

    /// Register a new query execution (never deduplicated).
    pub fn query(&mut self, sql: &str, user: &str) -> NodeId {
        self.next_query_id += 1;
        let q = self
            .graph
            .create(NodeKind::Query, &format!("query#{}", self.next_query_id));
        self.graph.set_property(q, "sql", sql);
        let u = self.user(user);
        self.graph.link(q, u, EdgeKind::IssuedBy);
        q
    }

    /// Register a new script analysis (never deduplicated).
    pub fn script(&mut self, name: &str) -> NodeId {
        self.next_script_id += 1;
        let s = self
            .graph
            .create(NodeKind::Script, &format!("script#{}:{name}", self.next_script_id));
        s
    }

    pub fn model(&mut self, name: &str, version: Option<u64>) -> NodeId {
        match version {
            Some(v) => self.graph.upsert(NodeKind::ModelVersion, name, Some(v)),
            None => self.graph.upsert(NodeKind::Model, name, None),
        }
    }

    pub fn hyperparameter(&mut self, owner: &str, name: &str, value: &str) -> NodeId {
        let h = self
            .graph
            .upsert(NodeKind::Hyperparameter, &format!("{owner}.{name}"), None);
        self.graph.set_property(h, "value", value);
        h
    }

    pub fn metric(&mut self, owner: &str, name: &str, value: &str) -> NodeId {
        let m = self
            .graph
            .upsert(NodeKind::Metric, &format!("{owner}.{name}"), None);
        self.graph.set_property(m, "value", value);
        m
    }

    pub fn dataset(&mut self, name: &str) -> NodeId {
        self.graph.upsert(NodeKind::Dataset, name, None)
    }

    pub fn link(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        self.graph.link(from, to, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_attach_to_tables() {
        let mut c = ProvCatalog::new();
        let col = c.column("orders", "price");
        let t = c.table("orders");
        assert!(c
            .graph()
            .outgoing(col)
            .any(|e| e.to == t && e.kind == EdgeKind::PartOf));
    }

    #[test]
    fn versions_chain_to_table() {
        let mut c = ProvCatalog::new();
        let v1 = c.table_version("t", 1);
        let v2 = c.table_version("t", 2);
        assert_ne!(v1, v2);
        let t = c.table("t");
        assert_eq!(c.graph().incoming(t).count(), 2);
    }

    #[test]
    fn queries_are_distinct_and_attributed() {
        let mut c = ProvCatalog::new();
        let q1 = c.query("SELECT 1", "alice");
        let q2 = c.query("SELECT 1", "alice");
        assert_ne!(q1, q2);
        assert_eq!(c.graph().property(q1, "sql"), Some("SELECT 1"));
        let u = c.user("alice");
        assert_eq!(c.graph().incoming(u).count(), 2);
    }

    #[test]
    fn hyperparams_and_metrics_store_values() {
        let mut c = ProvCatalog::new();
        let h = c.hyperparameter("m1", "max_depth", "6");
        assert_eq!(c.graph().property(h, "value"), Some("6"));
        let m = c.metric("m1", "auc", "0.93");
        assert_eq!(c.graph().node(m).name, "m1.auc");
    }
}
