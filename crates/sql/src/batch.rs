//! Record batches: the unit of data flowing between physical operators.

use crate::column::ColumnVector;
use crate::error::{Result, SqlError};
use crate::schema::Schema;
use crate::types::Value;
use std::sync::Arc;

/// A horizontal slice of a table: a schema plus equal-length columns.
#[derive(Debug, Clone)]
pub struct RecordBatch {
    schema: Arc<Schema>,
    columns: Vec<ColumnVector>,
    rows: usize,
}

impl RecordBatch {
    pub fn new(schema: Arc<Schema>, columns: Vec<ColumnVector>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(SqlError::Execution(format!(
                "schema has {} columns but batch has {}",
                schema.len(),
                columns.len()
            )));
        }
        let rows = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != rows) {
            return Err(SqlError::Execution("ragged record batch".into()));
        }
        Ok(RecordBatch {
            schema,
            columns,
            rows,
        })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnVector::new(c.data_type))
            .collect();
        RecordBatch {
            schema,
            columns,
            rows: 0,
        }
    }

    /// Build a batch from row-major values, casting into the schema types.
    pub fn from_rows(schema: Arc<Schema>, rows: &[Vec<Value>]) -> Result<Self> {
        let mut columns: Vec<ColumnVector> = schema
            .columns()
            .iter()
            .map(|c| ColumnVector::with_capacity(c.data_type, rows.len()))
            .collect();
        for row in rows {
            if row.len() != schema.len() {
                return Err(SqlError::Constraint(format!(
                    "row has {} values, expected {}",
                    row.len(),
                    schema.len()
                )));
            }
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v.clone())?;
            }
        }
        RecordBatch::new(schema, columns)
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, idx: usize) -> &ColumnVector {
        &self.columns[idx]
    }

    pub fn columns(&self) -> &[ColumnVector] {
        &self.columns
    }

    /// Read a full row as scalars.
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(idx)).collect()
    }

    /// Same schema, new columns of `rows` rows each. The row count is
    /// carried explicitly so a zero-column batch keeps its cardinality.
    fn with_columns(&self, columns: Vec<ColumnVector>, rows: usize) -> RecordBatch {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        RecordBatch {
            schema: self.schema.clone(),
            columns,
            rows,
        }
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<RecordBatch> {
        if mask.len() != self.rows {
            return Err(SqlError::Execution(format!(
                "filter mask has {} entries for a batch of {} rows",
                mask.len(),
                self.rows
            )));
        }
        let columns = self.columns.iter().map(|c| c.filter(mask)).collect();
        Ok(self.with_columns(columns, mask.iter().filter(|k| **k).count()))
    }

    /// Gather rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Result<RecordBatch> {
        if let Some(bad) = indices.iter().find(|&&i| i >= self.rows) {
            return Err(SqlError::Execution(format!(
                "take index {bad} out of range for a batch of {} rows",
                self.rows
            )));
        }
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Ok(self.with_columns(columns, indices.len()))
    }

    /// Project columns at `indices` with a new schema.
    pub fn project(&self, indices: &[usize]) -> Result<RecordBatch> {
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        Ok(RecordBatch {
            schema: Arc::new(self.schema.project(indices)),
            columns,
            rows: self.rows,
        })
    }

    /// View of rows `[start, start+len)`, clamped to the batch: shares
    /// every column buffer (see [`ColumnVector::slice`]).
    pub fn slice(&self, start: usize, len: usize) -> RecordBatch {
        let start = start.min(self.rows);
        let rows = len.min(self.rows - start);
        let columns = self.columns.iter().map(|c| c.slice(start, rows)).collect();
        self.with_columns(columns, rows)
    }

    /// Split into chunks of at most `chunk_rows` rows (for parallel
    /// scoring). An empty batch yields no chunks.
    pub fn chunks(&self, chunk_rows: usize) -> Vec<RecordBatch> {
        let chunk_rows = chunk_rows.max(1);
        (0..self.rows)
            .step_by(chunk_rows)
            .map(|start| self.slice(start, chunk_rows))
            .collect()
    }

    /// Vertically concatenate batches sharing a schema.
    pub fn concat(schema: Arc<Schema>, batches: &[RecordBatch]) -> Result<RecordBatch> {
        let mut out = RecordBatch::empty(schema);
        if batches.iter().any(|b| b.num_columns() != out.num_columns()) {
            return Err(SqlError::Execution("concat: column count mismatch".into()));
        }
        for (i, dst) in out.columns.iter_mut().enumerate() {
            let srcs: Vec<&ColumnVector> = batches.iter().map(|b| &b.columns[i]).collect();
            dst.append_all(&srcs)?;
        }
        out.rows = batches.iter().map(|b| b.rows).sum();
        Ok(out)
    }

    /// Render as an ASCII table (for examples and debugging).
    pub fn pretty(&self) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let row: Vec<String> = self.columns.iter().map(|c| c.get(r).to_string()).collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.len());
            }
            cells.push(row);
        }
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+";
        let mut out = String::new();
        out.push_str(&sep);
        out.push('\n');
        out.push('|');
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!(" {n:<w$} |"));
        }
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &cells {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        out.push_str(&sep);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn sample() -> RecordBatch {
        let schema = Arc::new(Schema::from_pairs(&[
            ("id", DataType::Int),
            ("name", DataType::Text),
        ]));
        RecordBatch::from_rows(
            schema,
            &[
                vec![Value::Int(1), Value::Text("a".into())],
                vec![Value::Int(2), Value::Text("b".into())],
                vec![Value::Int(3), Value::Text("c".into())],
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_rows_validates_arity() {
        let schema = Arc::new(Schema::from_pairs(&[("id", DataType::Int)]));
        let err = RecordBatch::from_rows(schema, &[vec![Value::Int(1), Value::Int(2)]]);
        assert!(err.is_err());
    }

    #[test]
    fn ragged_batch_rejected() {
        let schema = Arc::new(Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
        ]));
        let cols = vec![
            ColumnVector::from_i64([1, 2]),
            ColumnVector::from_i64([1]),
        ];
        assert!(RecordBatch::new(schema, cols).is_err());
    }

    #[test]
    fn filter_take_project() {
        let b = sample();
        let f = b.filter(&[true, false, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(1), vec![Value::Int(3), Value::Text("c".into())]);
        let p = b.project(&[1]).unwrap();
        assert_eq!(p.schema().names(), vec!["name"]);
        let t = b.take(&[2, 2]).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column(0).get(0), Value::Int(3));
    }

    #[test]
    fn chunks_cover_all_rows() {
        let b = sample();
        let chunks = b.chunks(2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].num_rows(), 2);
        assert_eq!(chunks[1].num_rows(), 1);
        let total: usize = chunks.iter().map(|c| c.num_rows()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn concat_roundtrips_chunks() {
        let b = sample();
        let chunks = b.chunks(1);
        let whole = RecordBatch::concat(b.schema().clone(), &chunks).unwrap();
        assert_eq!(whole.num_rows(), b.num_rows());
        assert_eq!(whole.row(2), b.row(2));
    }

    #[test]
    fn zero_column_batches_keep_their_row_count() {
        let none = sample().project(&[]).unwrap();
        assert_eq!((none.num_columns(), none.num_rows()), (0, 3));
        assert_eq!(none.slice(1, 5).num_rows(), 2);
        assert_eq!(none.filter(&[true, false, true]).unwrap().num_rows(), 2);
        assert_eq!(none.take(&[2, 2, 0, 1]).unwrap().num_rows(), 4);
        let chunks = none.chunks(2);
        assert_eq!(chunks.len(), 2);
        let whole = RecordBatch::concat(none.schema().clone(), &chunks).unwrap();
        assert_eq!(whole.num_rows(), 3);
        assert!(none.filter(&[true]).is_err(), "short mask is an error");
        assert!(none.take(&[3]).is_err(), "out-of-range index is an error");
    }

    #[test]
    fn pretty_renders_header() {
        let s = sample().pretty();
        assert!(s.contains("| id | name |"));
        assert!(s.contains("| 2  | b    |"));
    }
}
