//! Regenerates Figure 4: in-database inference time across dataset sizes
//! (left) and speedups vs the Inline-SQL anchor (right).

use flock_bench::{fig4, render_table};
use flock_corpus::FIGURE4_SIZES;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sizes, trees, depth, repeats, anchor_size): (Vec<usize>, usize, usize, usize, usize) =
        if quick {
            (vec![1_000, 10_000, 100_000], 20, 4, 2, 10_000)
        } else {
            (FIGURE4_SIZES.to_vec(), 30, 4, 3, 100_000)
        };

    println!("Figure 4 (left) — total inference time (ms) vs dataset size");
    println!(
        "pipeline: 7 featurized inputs -> GBT({trees} trees, depth {depth}); host threads: {}",
        fig4::host_threads()
    );
    println!();
    let rows = fig4::run_sizes(&sizes, trees, depth, repeats);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.size.to_string(),
                format!("{:.1}", r.sklearn_ms),
                format!("{:.1}", r.ort_ms),
                format!("{:.1}", r.sonnx_ms),
                format!("{:.1}", r.sonnx_ext_ms),
            ]
        })
        .collect();
    let headers = ["rows", "sklearn (ms)", "ORT (ms)", "SONNX (ms)", "SONNX-ext (ms)"];
    println!("{}", render_table(&headers, &table));
    if let Some(last) = rows.last() {
        println!(
            "\nat {} rows: SONNX is {:.1}x over ORT; SONNX-ext is {:.1}x over ORT \
             (paper: up to 5.5x from parallelization alone)",
            last.size,
            last.ort_ms / last.sonnx_ms,
            last.ort_ms / last.sonnx_ext_ms,
        );
    }

    println!("\nFigure 4 (right) — speedup over the Inline-SQL anchor at {anchor_size} rows");
    let a = fig4::run_anchor(anchor_size, trees, depth, repeats);
    let table = vec![
        vec!["Inline SQL".into(), format!("{:.1}", a.inline_sql_ms), "1.0x".into()],
        vec![
            "ORT".into(),
            format!("{:.1}", a.ort_ms),
            format!("{:.1}x", a.ort_speedup()),
        ],
        vec![
            "Optimized".into(),
            format!("{:.1}", a.optimized_ms),
            format!("{:.1}x", a.optimized_speedup()),
        ],
    ];
    println!(
        "{}",
        render_table(&["configuration", "time (ms)", "speedup"], &table)
    );
    println!("(paper: Inline SQL 1x, ORT 17x, Optimized 24x)");

    if !a.optimized_breakdown.is_empty() {
        println!("\nmeasured per-operator breakdown of the optimized run (from plan metrics):");
        let table: Vec<Vec<String>> = a
            .optimized_breakdown
            .iter()
            .map(|o| {
                let mut name = "  ".repeat(o.depth);
                name.push_str(&o.name);
                if !o.detail.is_empty() {
                    name.push_str(&format!(" [{}]", o.detail));
                }
                vec![
                    name,
                    o.rows_out.to_string(),
                    format!("{:.3}", o.self_ms),
                    o.degree.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["operator", "rows", "self (ms)", "degree"], &table)
        );
    }
}
