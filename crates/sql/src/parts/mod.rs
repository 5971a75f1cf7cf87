//! Disk-resident compressed columnar parts (data bigger than RAM).
//!
//! A table's committed history no longer has to be fully resident: when a
//! table outgrows the configured memory budget, its rows are flushed into
//! immutable, per-column-compressed **parts** on disk, and only a small
//! resident tail (plus per-part zone maps) stays in memory. The WAL is
//! still the commit log; checkpoints embed each table's part *manifest*
//! ([`PartMeta`] list) instead of the flushed rows, so recovery = newest
//! checkpoint whose referenced parts all pass their checksums + WAL tail
//! replay. Scans stream parts through the morsel executor one part at a
//! time — peak decoded bytes are bounded by the largest single part, not
//! the table — and per-column min/max zone maps let the planner skip whole
//! parts for selective predicates. A background size-tiered merge thread
//! compacts small parts so scan fan-in stays low.
//!
//! See DESIGN.md §5i for the format, merge policy, and budget semantics.

mod codec;
mod store;

pub use codec::{decode_part, encode_part, validate_part_image};
pub(crate) use codec::{get_part_meta, put_part_meta};
pub(crate) use store::DecodeGate;
pub use store::{parse_part_name, part_file_name, Part, PartHandle, PartStore};

/// Per-column min/max + null-count summary, the unit of scan pruning.
///
/// Bounds use the engine's numeric view of values (`get_f64`): ints,
/// floats, dates, and bools all map onto `f64`, matching how the planner
/// compares predicate literals against table stats. Text columns (and any
/// column containing a NaN) carry `None` bounds and are never pruned on.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    pub min: Option<f64>,
    pub max: Option<f64>,
    pub null_count: u64,
}

impl ZoneMap {
    /// Could any row in this zone satisfy `value ∈ [lo, hi]` (inclusive)?
    /// `None` bounds mean "unknown" — always scannable. A zone of all
    /// NULLs can never match a range predicate (SQL NULL comparisons are
    /// not true), so it *is* prunable even without bounds.
    pub fn overlaps(&self, lo: Option<f64>, hi: Option<f64>, rows: u64) -> bool {
        if self.null_count >= rows {
            return false;
        }
        if let (Some(hi), Some(min)) = (hi, self.min) {
            if min > hi {
                return false;
            }
        }
        if let (Some(lo), Some(max)) = (lo, self.max) {
            if max < lo {
                return false;
            }
        }
        true
    }
}

/// Manifest entry for one immutable part file: identity, shape, and the
/// zone maps the planner prunes with. Checkpoints embed these, so recovery
/// and plan-time pruning never touch part data.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartMeta {
    /// Globally unique, never reused (allocation resumes above every part
    /// file on disk at open).
    pub id: u64,
    pub rows: u64,
    /// Size-tier: freshly flushed parts are level 0; a merge of level-N
    /// parts produces a level-N+1 part.
    pub level: u8,
    pub bytes_on_disk: u64,
    pub bytes_uncompressed: u64,
    /// One per table column, in schema order.
    pub zones: Vec<ZoneMap>,
}

impl PartMeta {
    /// Approximate decoded in-memory size, consistent with how the query
    /// budget charges batches (8 bytes per cell).
    pub fn decoded_bytes(&self) -> u64 {
        self.rows * self.zones.len() as u64 * 8
    }

    /// Whether any row can fall inside every `(column, [lo, hi])` bound,
    /// as far as the zone maps tell (a column without a zone never rules
    /// a part out).
    pub(crate) fn may_match(
        &self,
        mut bounds: impl Iterator<Item = (usize, (Option<f64>, Option<f64>))>,
    ) -> bool {
        bounds.all(|(c, (lo, hi))| {
            self.zones
                .get(c)
                .is_none_or(|z| z.overlaps(lo, hi, self.rows))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_overlap_logic() {
        let z = ZoneMap {
            min: Some(10.0),
            max: Some(20.0),
            null_count: 0,
        };
        assert!(z.overlaps(Some(15.0), Some(25.0), 100));
        assert!(z.overlaps(None, Some(10.0), 100), "boundary touch matches");
        assert!(!z.overlaps(Some(20.5), None, 100));
        assert!(!z.overlaps(None, Some(9.9), 100));
        // Unknown bounds: never prunable...
        let unknown = ZoneMap {
            min: None,
            max: None,
            null_count: 0,
        };
        assert!(unknown.overlaps(Some(0.0), Some(1.0), 100));
        // ...unless every row is NULL.
        let all_null = ZoneMap {
            min: None,
            max: None,
            null_count: 100,
        };
        assert!(!all_null.overlaps(Some(0.0), Some(1.0), 100));
        assert!(!all_null.overlaps(None, None, 100));
    }
}
