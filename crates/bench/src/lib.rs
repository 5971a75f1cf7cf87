//! # flock-bench
//!
//! Harnesses that regenerate every figure and table of the paper. Each
//! module computes one artifact and returns structured rows; the binaries
//! under `src/bin/` print them in the paper's layout. Wall-clock costs of
//! the engine itself are measured end to end by `flockbench/`, not here.

pub mod ablation;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod provtab;
pub mod pytab;

/// Render a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let sep: String = widths
        .iter()
        .map(|w| format!("+{}", "-".repeat(w + 2)))
        .collect::<String>()
        + "+";
    out.push_str(&sep);
    out.push('\n');
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    out.push_str(&sep);
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_renders() {
        let t = super::render_table(
            &["a", "long_header"],
            &[vec!["1".into(), "2".into()]],
        );
        assert!(t.contains("| a | long_header |"));
    }
}
