//! Model metadata: the "models are derived data" record.
//!
//! Every deployed model carries its full lineage — which table (and which
//! *version* of it) it was trained on, by whom, with what statement, and
//! with what quality metrics. This is the paper's §4.2 requirement that
//! "the full provenance of a model must be known for debugging/auditing".

use std::collections::BTreeMap;

/// Where a model came from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lineage {
    /// Table the training data was read from, if trained in-engine.
    pub training_table: Option<String>,
    /// Exact version of that table at training time.
    pub training_table_version: Option<u64>,
    /// Every table the training query scanned, with the exact committed
    /// version pinned at training time. The first entry mirrors
    /// `training_table`/`training_table_version`; joins add more.
    pub training_tables: Vec<(String, u64)>,
    /// The statement or description that produced the model.
    pub training_query: Option<String>,
    /// User who trained/deployed the model.
    pub trained_by: String,
    /// Wall-clock creation time (ms since epoch).
    pub created_ms: u64,
    /// Quality metrics recorded at training time.
    pub metrics: BTreeMap<String, f64>,
}

/// Catalog-visible description of a deployed model version.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMetadata {
    pub name: String,
    /// Input column names, in PREDICT argument order, with a text flag.
    pub inputs: Vec<(String, bool)>,
    /// Output column name.
    pub output: String,
    /// Model family, e.g. "gbt".
    pub kind: String,
    /// Model complexity (weights / tree nodes) for optimizer costing.
    pub complexity: usize,
    pub lineage: Lineage,
}

impl ModelMetadata {
    /// The metadata `pipeline` implies when deployed as `name`.
    pub fn of(name: &str, pipeline: &flock_ml::Pipeline, lineage: Lineage) -> ModelMetadata {
        ModelMetadata {
            name: name.to_ascii_lowercase(),
            inputs: pipeline
                .columns
                .iter()
                .map(|c| (c.input.clone(), c.encoder.takes_strings()))
                .collect(),
            output: pipeline.output.clone(),
            kind: pipeline.model.kind_name().to_string(),
            complexity: pipeline.complexity(),
            lineage,
        }
    }

    /// Serialize for storage in the catalog extension object, hand-written
    /// over the JSON document model.
    pub fn to_json(&self) -> flock_json::Value {
        use flock_json::{Map, Value};
        let mut lineage = Map::new();
        lineage.insert(
            "training_table".to_string(),
            match &self.lineage.training_table {
                Some(t) => Value::from(t.as_str()),
                None => Value::Null,
            },
        );
        lineage.insert(
            "training_table_version".to_string(),
            match self.lineage.training_table_version {
                Some(v) => Value::from(v),
                None => Value::Null,
            },
        );
        lineage.insert(
            "training_tables".to_string(),
            Value::Array(
                self.lineage
                    .training_tables
                    .iter()
                    .map(|(t, v)| Value::Array(vec![Value::from(t.as_str()), Value::from(*v)]))
                    .collect(),
            ),
        );
        lineage.insert(
            "training_query".to_string(),
            match &self.lineage.training_query {
                Some(q) => Value::from(q.as_str()),
                None => Value::Null,
            },
        );
        lineage.insert(
            "trained_by".to_string(),
            Value::from(self.lineage.trained_by.as_str()),
        );
        lineage.insert("created_ms".to_string(), Value::from(self.lineage.created_ms));
        let mut metrics = Map::new();
        for (k, v) in &self.lineage.metrics {
            metrics.insert(k.clone(), Value::from(*v));
        }
        lineage.insert("metrics".to_string(), Value::Object(metrics));

        let mut doc = Map::new();
        doc.insert("name".to_string(), Value::from(self.name.as_str()));
        doc.insert(
            "inputs".to_string(),
            Value::Array(
                self.inputs
                    .iter()
                    .map(|(n, text)| {
                        Value::Array(vec![Value::from(n.as_str()), Value::from(*text)])
                    })
                    .collect(),
            ),
        );
        doc.insert("output".to_string(), Value::from(self.output.as_str()));
        doc.insert("kind".to_string(), Value::from(self.kind.as_str()));
        doc.insert("complexity".to_string(), Value::from(self.complexity));
        doc.insert("lineage".to_string(), Value::Object(lineage));
        Value::Object(doc)
    }

    pub fn from_json(v: &flock_json::Value) -> Option<ModelMetadata> {
        use flock_json::Value;
        let name = v.get("name")?.as_str()?.to_string();
        let inputs = v
            .get("inputs")?
            .as_array()?
            .iter()
            .map(|pair| {
                let a = pair.as_array()?;
                match a.as_slice() {
                    [n, t] => Some((n.as_str()?.to_string(), t.as_bool()?)),
                    _ => None,
                }
            })
            .collect::<Option<Vec<_>>>()?;
        let output = v.get("output")?.as_str()?.to_string();
        let kind = v.get("kind")?.as_str()?.to_string();
        let complexity = v.get("complexity")?.as_u64()? as usize;
        let l = v.get("lineage")?;
        let opt_str = |v: Option<&Value>| -> Option<Option<String>> {
            match v {
                None => None,
                Some(Value::Null) => Some(None),
                Some(s) => Some(Some(s.as_str()?.to_string())),
            }
        };
        let lineage = Lineage {
            training_table: opt_str(l.get("training_table"))?,
            training_table_version: match l.get("training_table_version") {
                None => return None,
                Some(Value::Null) => None,
                Some(n) => Some(n.as_u64()?),
            },
            // Optional for back-compat: models deployed before multi-table
            // lineage only carry the single training_table pin.
            training_tables: match l.get("training_tables") {
                None | Some(Value::Null) => Vec::new(),
                Some(arr) => arr
                    .as_array()?
                    .iter()
                    .map(|pair| {
                        let a = pair.as_array()?;
                        match a.as_slice() {
                            [t, v] => Some((t.as_str()?.to_string(), v.as_u64()?)),
                            _ => None,
                        }
                    })
                    .collect::<Option<Vec<_>>>()?,
            },
            training_query: opt_str(l.get("training_query"))?,
            trained_by: l.get("trained_by")?.as_str()?.to_string(),
            created_ms: l.get("created_ms")?.as_u64()?,
            metrics: l
                .get("metrics")?
                .as_object()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect::<Option<std::collections::BTreeMap<_, _>>>()?,
        };
        Some(ModelMetadata {
            name,
            inputs,
            output,
            kind,
            complexity,
            lineage,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let m = ModelMetadata {
            name: "churn".into(),
            inputs: vec![("age".into(), false), ("city".into(), true)],
            output: "p_churn".into(),
            kind: "logistic".into(),
            complexity: 12,
            lineage: Lineage {
                training_table: Some("customers".into()),
                training_table_version: Some(7),
                training_tables: vec![("customers".into(), 7), ("regions".into(), 3)],
                training_query: Some("CREATE MODEL churn ...".into()),
                trained_by: "alice".into(),
                created_ms: 123,
                metrics: BTreeMap::from([("auc".to_string(), 0.91)]),
            },
        };
        let back = ModelMetadata::from_json(&m.to_json()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn malformed_json_is_none() {
        assert!(ModelMetadata::from_json(&flock_json::json!({"nope": 1})).is_none());
    }
}
