//! Differential test of the `VALUES` literal-cell rule: the parser reads a
//! cell that is one literal (a number, a string or `NULL`, optionally
//! after `-`) followed by `,` or `)` without the expression grammar. That
//! must change nothing a user can see.
//!
//! Each seed generates `INSERT … VALUES` lists mixing literal cells (NULL,
//! ±0.0, the i64 extremes and their overflow, floats in every spelling,
//! strings with `''` escapes and multi-byte characters) with cells the
//! rule must leave to the grammar (CAST, arithmetic, negated non-numbers,
//! malformed cells), sometimes at the wrong arity or the wrong type. The
//! reference is the same statement with every cell behind a unary `+`,
//! which the grammar drops and the rule never matches. Both must parse to
//! the same AST or fail with the same `SqlError` text; each cell must be
//! the `Expr` that `parse_expr` gives for it alone; and the INSERT must
//! leave the same rows, or fail the same way, in two fresh databases.
//!
//! Deterministic via flock-rng; seed count defaults to 64 and is
//! overridable with `FLOCK_DIFF_SEEDS` (CI sweeps wider).

use flock_rng::{rngs::StdRng, test_seeds, Rng, SeedableRng};
use flock_sql::ast::{InsertSource, Statement};
use flock_sql::parser::{parse_expr, parse_statement};
use flock_sql::Database;

const DDL: &str = "CREATE TABLE t (a INT, b DOUBLE, c VARCHAR, d INT NOT NULL)";

/// Cells the rule reads: every spelling of a literal the lexer knows.
const LITERALS: &[&str] = &[
    "NULL",
    "null",
    "0",
    "-0",
    "0.0",
    "-0.0",
    "1.",
    "-1.",
    "1e3",
    "1E-3",
    "-2.5e+7",
    "1e400",
    "-1e400",
    "9223372036854775807",
    "-9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "''",
    "''''",
    "'it''s'",
    "'héllo 世界'",
    "'ü''ß'",
    "'7'",
];

/// Cells the rule must hand to the grammar, valid or not.
const OTHERS: &[&str] = &[
    "CAST('7' AS INT)",
    "CAST(-1.5 AS VARCHAR)",
    "1 + 2",
    "2 * -3",
    "-(3)",
    "- -5",
    "-NULL",
    "- 'x'",
    "'a' || 'b'",
    "+4",
    "TRUE",
    "DATE '2020-01-02'",
    "NULL IS NULL",
    "1 = 1",
    "(1)",
    "x",
    ".5",
    "1 2",
    "'a' 'b'",
    "-",
    "",
    "1e",
    "NULL NULL",
    "-9223372036854775808 - 1",
];

/// A cell for column `col` of `t`: mostly a literal of its type, now and
/// then any spelling of any literal, NULL, or a cell from [`OTHERS`].
fn cell(rng: &mut StdRng, col: usize) -> String {
    let pick = |rng: &mut StdRng, from: &[&str]| from[rng.gen_range(0..from.len())].to_string();
    match (rng.gen_range(0..10u32), col) {
        (0, _) => pick(rng, LITERALS),
        (1, _) => pick(rng, OTHERS),
        (2, _) => "NULL".to_string(),
        (3, _) => pick(rng, &["-0", "9223372036854775807", "-9223372036854775807"]),
        (_, 1) => match rng.gen_range(0..3u32) {
            0 => pick(
                rng,
                &["0.0", "-0.0", "1.", "-1.", "1e3", "1E-3", "-2.5e+7", "7"],
            ),
            _ => format!("{:?}", rng.gen_range(-1e9..1e9f64)),
        },
        (_, 2) => {
            let text = rng.gen_word("ab'c é世😀", 0, 6);
            format!("'{}'", text.replace('\'', "''"))
        }
        _ => rng.gen_range(i64::MIN + 1..=i64::MAX).to_string(),
    }
}

/// `INSERT INTO t VALUES …` over `rows`, each cell behind `prefix`.
fn insert(rows: &[Vec<String>], prefix: &str) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|c| format!("{prefix}{c}")).collect();
            format!("({})", cells.join(", "))
        })
        .collect();
    format!("INSERT INTO t VALUES {}", rows.join(", "))
}

/// A statement's AST, or its error text.
fn parsed(sql: &str) -> Result<String, String> {
    parse_statement(sql)
        .map(|s| format!("{s:?}"))
        .map_err(|e| e.to_string())
}

/// Run `sql` on a fresh table `t`: the error text, or every row after it.
fn inserted(sql: &str) -> Result<Vec<String>, String> {
    let db = Database::new();
    db.execute(DDL).unwrap();
    db.execute(sql).map_err(|e| e.to_string())?;
    let batch = db.query("SELECT * FROM t").unwrap();
    Ok((0..batch.num_rows())
        .map(|i| format!("{:?}", batch.row(i)))
        .collect())
}

#[test]
fn literal_cells_parse_and_insert_as_the_grammar_would() {
    let (mut by_rule, mut executed) = (0usize, 0usize);
    for seed in test_seeds(64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<String>> = (0..rng.gen_range(1..6usize))
            .map(|_| {
                // The table is four wide; now and then a row is not.
                let width = if rng.gen_bool(0.1) {
                    rng.gen_range(1..7)
                } else {
                    4
                };
                (0..width).map(|col| cell(&mut rng, col)).collect()
            })
            .collect();
        let sql = insert(&rows, "");
        let reference = insert(&rows, "+");
        let got = parsed(&sql);
        assert_eq!(got, parsed(&reference), "seed {seed}: {sql}");

        let Ok(Statement::Insert {
            source: InsertSource::Values(exprs),
            ..
        }) = parse_statement(&sql)
        else {
            continue;
        };
        for (row, cells) in rows.iter().zip(&exprs) {
            for (text, expr) in row.iter().zip(cells) {
                let alone = parse_expr(text).unwrap_or_else(|e| panic!("seed {seed}: {text}: {e}"));
                assert_eq!(
                    format!("{expr:?}"),
                    format!("{alone:?}"),
                    "seed {seed}: {text}"
                );
                by_rule += usize::from(LITERALS.contains(&text.as_str()));
            }
        }
        let rows_in = inserted(&sql);
        assert_eq!(rows_in, inserted(&reference), "seed {seed}: {sql}");
        executed += usize::from(rows_in.is_ok());
    }
    // The sweep must reach both the rule and the executor's success path.
    assert!(
        by_rule > 0 && executed > 0,
        "{by_rule} literal cells, {executed} INSERTs"
    );
}

/// Each literal alone, at the end of a row and before a `,`: the rule's
/// `Expr`, value for value, is what the grammar builds.
#[test]
fn every_literal_spelling_matches_parse_expr() {
    for lit in LITERALS {
        let alone = format!("{:?}", parse_expr(lit).unwrap());
        for sql in [
            format!("INSERT INTO t VALUES ({lit})"),
            format!("INSERT INTO t VALUES ({lit}, 1)"),
        ] {
            let Statement::Insert {
                source: InsertSource::Values(rows),
                ..
            } = parse_statement(&sql).unwrap()
            else {
                panic!("{sql}")
            };
            assert_eq!(format!("{:?}", rows[0][0]), alone, "{sql}");
        }
    }
    // `-` directly before 2^63 is INT's minimum, as the grammar folds it.
    let Statement::Insert {
        source: InsertSource::Values(rows),
        ..
    } = parse_statement("INSERT INTO t VALUES (-9223372036854775808, -9223372036854775807)")
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(
        format!("{:?}", rows[0]),
        "[Literal(Int(-9223372036854775808)), Literal(Int(-9223372036854775807))]"
    );
}
