//! Property tests of the SQL substrate invariants.
//!
//! Each property runs over generated inputs from a seeded flock-rng
//! stream, then over the shrunk inputs of failures it once found. The
//! seed count defaults to 256 and is overridable with `FLOCK_DIFF_SEEDS`.

use flock_rng::{rngs::StdRng, test_seeds, Rng, SeedableRng};
use flock_sql::exec::functions::like_match;
use flock_sql::types::{format_date, parse_date, Value};
use flock_sql::{DataType, Database};

fn any_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Int(rng.gen_range(-1_000_000i64..1_000_000)),
        3 => Value::Float(rng.gen_range(-1e6..1e6)),
        4 => Value::Text(rng.gen_word("abcdefghijklmnopqrstuvwxyz", 0, 8)),
        _ => Value::Date(rng.gen_range(-50_000i32..50_000)),
    }
}

fn table_of(db: &Database, ddl: &str, rows: &[String]) {
    db.execute(ddl).unwrap();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
}

/// The lexer and parser must never panic, whatever the input.
#[test]
fn parser_never_panics() {
    let check = |input: &str| {
        let _ = flock_sql::parser::parse_statement(input);
        let _ = flock_sql::parser::parse_expr(input);
        let _ = flock_sql::lexer::tokenize(input);
        let _ = flock_sql::lexer::split_statements(input);
    };
    // A four-byte char once sliced mid-code-point by the lexer.
    check("\u{11d3f}");
    // Tokens borrow the text by byte offsets: multi-byte characters
    // against quotes, escapes, comments and numbers, closed or not.
    for input in [
        r#"'é"#, r#"'é''"#, r#"''é'"#, r#""é"""#, r#"é'"#, "1é", "1.é", "1eé", "1e+é", "--é",
        "/*é", "/*é*", "é/*", "é--", r#"'😀'''"#, r#""😀""""#, r#"INSERT INTO t VALUES ('é'''"#,
        "VALUES (-é)", r#"VALUES (-'é', 1é)"#, r#"""#, "'", "''", r#""""#, "''''", "-", "- 1e",
        r#"x."é"#,
    ] {
        check(input);
    }
    // Type arguments cut off by the end of the text once never ended.
    for input in [
        "SELECT CAST(1 AS VARCHAR(",
        "SELECT CAST(1 AS VARCHAR(20",
        "CREATE TABLE t (a VARCHAR(",
        "ALTER TABLE t ADD COLUMN c DOUBLE(1, ",
    ] {
        assert!(flock_sql::parser::parse_statement(input).is_err(), "{input}");
    }
    for seed in test_seeds(256) {
        check(&StdRng::seed_from_u64(seed).gen_text(200));
    }
}

/// SQL-ish inputs exercise deeper parser paths; still no panics. Words
/// are joined with or without a space, so multi-byte characters land
/// right next to quotes, comments and numbers.
#[test]
fn parser_survives_sql_shaped_garbage() {
    const WORDS: [&str; 43] = [
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "JOIN", "ON", "(", ")", ",", "x", "t", "1",
        "'s'", "AND", "=", "*", "CASE", "END", "IN", "NOT", "NULL", "AS", "INSERT", "INTO",
        "VALUES", "-", "1.", "1e3", "'it''s'", r#""a""b""#, "'", r#"""#, "--", "/*", "*/", "é",
        "世", "😀'", "-9223372036854775808", "CAST", "''", r#""""#,
    ];
    for seed in test_seeds(256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sql = String::new();
        for _ in 0..rng.gen_range(0..30usize) {
            if rng.gen_bool(0.7) {
                sql.push(' ');
            }
            sql.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
        }
        let _ = flock_sql::parser::parse_statement(&sql);
        let _ = flock_sql::parser::parse_script(&sql);
    }
}

/// Lexing what a token stream renders to gives the stream back: quotes
/// inside strings and quoted identifiers are doubled on the way out and
/// unescaped on the way in, whatever characters surround them.
#[test]
fn lexer_round_trips_rendered_tokens() {
    use flock_sql::lexer::{tokenize, Token};
    const TEXT: &str = r#"ab'" é世😀_1"#;
    const PUNCT: [&str; 19] = [
        ",", "(", ")", ";", "*", "+", "-", "/", "%", ".", "=", "<>", "<", "<=", ">", ">=", "||",
        "?", "!=",
    ];
    const NUMBERS: [&str; 8] = [
        "0", "42", "1.", "1.5", "1e3", "2.5E-3", "7e+1", "9223372036854775808",
    ];
    // How a token is written back: its text, with quotes doubled.
    let render = |t: &Token| match t {
        Token::StringLit(s) => format!("'{}'", s.replace('\'', "''")),
        Token::QuotedIdent(s) => format!("\"{}\"", s.replace('"', "\"\"")),
        other => other.to_string(),
    };
    for seed in test_seeds(256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let words: Vec<String> = (0..rng.gen_range(0..24usize))
            .map(|_| match rng.gen_range(0..5u32) {
                0 => format!("'{}'", rng.gen_word(TEXT, 0, 6).replace('\'', "''")),
                1 => format!("\"{}\"", rng.gen_word(TEXT, 0, 6).replace('"', "\"\"")),
                2 => NUMBERS[rng.gen_range(0..NUMBERS.len())].to_string(),
                3 => format!("w{}", rng.gen_word("abé世_9", 0, 4)),
                _ => PUNCT[rng.gen_range(0..PUNCT.len())].to_string(),
            })
            .collect();
        let text = words.join(" ");
        let tokens = tokenize(&text).unwrap_or_else(|e| panic!("seed {seed}: {text}: {e}"));
        assert_eq!(tokens.len(), words.len() + 1, "seed {seed}: {text}");
        let rendered: Vec<String> = tokens[..words.len()].iter().map(render).collect();
        assert_eq!(
            tokenize(&rendered.join(" ")).unwrap(),
            tokens,
            "seed {seed}: {text}"
        );
    }
}

/// Date conversion is a bijection over a wide range.
#[test]
fn date_roundtrip() {
    for seed in test_seeds(256) {
        let days = StdRng::seed_from_u64(seed).gen_range(-200_000i32..200_000);
        assert_eq!(parse_date(&format_date(days)), Some(days), "{days}");
    }
}

/// Casting a value to its own type is the identity.
#[test]
fn cast_to_own_type_is_identity() {
    for seed in test_seeds(256) {
        let v = any_value(&mut StdRng::seed_from_u64(seed));
        if let Some(t) = v.data_type() {
            let back = v.cast(t).unwrap();
            assert!(back.group_eq(&v), "{v:?} -> {back:?}");
        }
    }
}

/// Int -> Float -> Int roundtrips for safe magnitudes.
#[test]
fn int_float_roundtrip() {
    for seed in test_seeds(256) {
        let i = StdRng::seed_from_u64(seed).gen_range(-1_000_000_000i64..1_000_000_000);
        let f = Value::Int(i).cast(DataType::Float).unwrap();
        assert_eq!(f.cast(DataType::Int).unwrap(), Value::Int(i));
    }
}

/// total_cmp is a total order: antisymmetric and transitive on triples.
#[test]
fn total_cmp_is_total_order() {
    use std::cmp::Ordering;
    let check = |a: &Value, b: &Value, c: &Value| {
        assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse(), "{a:?} {b:?}");
        if a.total_cmp(b) != Ordering::Greater && b.total_cmp(c) != Ordering::Greater {
            assert_ne!(a.total_cmp(c), Ordering::Greater, "{a:?} {b:?} {c:?}");
        }
    };
    // Mixed types once compared by value across type boundaries and broke
    // transitivity.
    check(
        &Value::Bool(false),
        &Value::Text(String::new()),
        &Value::Int(-1),
    );
    for seed in test_seeds(256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let [a, b, c] = [(); 3].map(|_| any_value(&mut rng));
        check(&a, &b, &c);
    }
}

/// LIKE agrees with a simple reference implementation on %-only patterns.
#[test]
fn like_matches_reference_for_contains() {
    for seed in test_seeds(256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = rng.gen_word("abc", 0, 12);
        let needle = rng.gen_word("abc", 0, 4);
        for (pattern, want) in [
            (format!("%{needle}%"), text.contains(&needle)),
            (format!("{needle}%"), text.starts_with(&needle)),
            (format!("%{needle}"), text.ends_with(&needle)),
        ] {
            assert_eq!(like_match(&text, &pattern), want, "{text:?} {pattern:?}");
        }
    }
}

/// Inserted rows always come back in full, regardless of content.
#[test]
fn insert_select_roundtrip() {
    const TEXT: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    for seed in test_seeds(256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<(i32, f64, String)> = (0..rng.gen_range(1..20usize))
            .map(|_| {
                let i = match rng.gen_range(0..8u32) {
                    0 => i32::MIN,
                    1 => i32::MAX,
                    _ => rng.gen_range(i32::MIN..=i32::MAX),
                };
                (i, rng.gen_range(-1e9..1e9), rng.gen_word(TEXT, 0, 12))
            })
            .collect();
        let db = Database::new();
        let values: Vec<String> = rows
            .iter()
            .map(|(i, f, s)| format!("({i}, {f:?}, '{s}')"))
            .collect();
        table_of(&db, "CREATE TABLE t (i INT, f DOUBLE, s VARCHAR)", &values);
        let b = db.query("SELECT i, f, s FROM t").unwrap();
        assert_eq!(b.num_rows(), rows.len(), "seed {seed}");
        for (r, (i, f, s)) in rows.iter().enumerate() {
            assert_eq!(b.column(0).get(r), Value::Int(*i as i64));
            let Value::Float(got) = b.column(1).get(r) else {
                panic!("seed {seed}: row {r} is not a float")
            };
            assert!((got - f).abs() < 1e-9, "seed {seed}: {got} vs {f}");
            assert_eq!(b.column(2).get(r), Value::Text(s.clone()));
        }
    }
}

/// ORDER BY produces a sorted permutation of the input.
#[test]
fn order_by_sorts_and_permutes() {
    for seed in test_seeds(256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<i64> = (0..rng.gen_range(1..40usize))
            .map(|_| rng.gen_range(-1000i64..1000))
            .collect();
        let db = Database::new();
        let values: Vec<String> = xs.iter().map(|x| format!("({x})")).collect();
        table_of(&db, "CREATE TABLE t (x INT)", &values);
        let b = db.query("SELECT x FROM t ORDER BY x").unwrap();
        let got: Vec<i64> = (0..b.num_rows())
            .map(|r| b.column(0).get(r).as_i64().unwrap())
            .collect();
        let mut expected = xs;
        expected.sort_unstable();
        assert_eq!(got, expected, "seed {seed}");
    }
}

/// `ORDER BY … LIMIT k` is the stable sort's first k rows, for k in
/// {0, 1, n-1, n, n+1} and both directions, over keys full of ties, NaN,
/// ±0.0, the i64 extremes and NULL: NULL-free FLOAT and INT keys take
/// the integer-key selection, the rest the row comparator.
#[test]
fn top_k_is_the_stable_sorts_prefix() {
    let float = |rng: &mut StdRng| match rng.gen_range(0..6u32) {
        0 => "CAST('NaN' AS DOUBLE)".to_string(),
        1 => "-0.0".to_string(),
        2 => "0.0".to_string(),
        3 => "CAST('-inf' AS DOUBLE)".to_string(),
        _ => format!("{:?}", rng.gen_range(-3i64..3) as f64 / 2.0),
    };
    let int = |rng: &mut StdRng| match rng.gen_range(0..5u32) {
        0 => i64::MAX.to_string(),
        1 => format!("{}", i64::MIN + 1),
        _ => rng.gen_range(-3i64..3).to_string(),
    };
    for seed in test_seeds(64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..40usize);
        let null_or = |rng: &mut StdRng, v: String| {
            if rng.gen_bool(0.2) {
                "NULL".to_string()
            } else {
                v
            }
        };
        let rows: Vec<String> = (0..n)
            .map(|id| {
                let (f, i) = (float(&mut rng), int(&mut rng));
                let (g, j) = (float(&mut rng), int(&mut rng));
                let (g, j) = (null_or(&mut rng, g), null_or(&mut rng, j));
                let s = format!("'{}'", rng.gen_word("ab", 0, 2));
                let s = null_or(&mut rng, s);
                format!("({id}, {f}, {g}, {i}, {j}, {s})")
            })
            .collect();
        let db = Database::new();
        table_of(
            &db,
            "CREATE TABLE t (id INT, f DOUBLE, g DOUBLE, i INT, j INT, s VARCHAR)",
            &rows,
        );
        let ids = |sql: &str| {
            let b = db
                .query(sql)
                .unwrap_or_else(|e| panic!("seed {seed}: {sql}: {e}"));
            (0..b.num_rows())
                .map(|r| b.column(0).get(r).as_i64().unwrap())
                .collect::<Vec<_>>()
        };
        let keys: [&[&str]; 9] = [
            &["f"],
            &["f + 0.0"],
            &["g"],
            &["i"],
            &["i + 0"],
            &["j"],
            &["s"],
            &["f", "i"],
            &["s", "g"],
        ];
        for key in keys {
            for dir in ["", " DESC"] {
                // The keys projected, so the LIMIT sits right on the sort.
                let select: Vec<String> = key
                    .iter()
                    .enumerate()
                    .map(|(c, e)| format!("{e} AS k{c}"))
                    .collect();
                let order: Vec<String> = (0..key.len()).map(|c| format!("k{c}{dir}")).collect();
                let full = format!(
                    "SELECT id, {} FROM t ORDER BY {}",
                    select.join(", "),
                    order.join(", ")
                );
                let sorted = ids(&full);
                // The keys left out of the select list: the LIMIT sits on a
                // projection over the sort.
                let order: Vec<String> = key.iter().map(|e| format!("{e}{dir}")).collect();
                let hidden = format!("SELECT id FROM t ORDER BY {}", order.join(", "));
                assert_eq!(ids(&hidden), sorted, "seed {seed}: {hidden}");
                for k in [0, 1, n - 1, n, n + 1] {
                    for query in [&full, &hidden] {
                        let top = format!("{query} LIMIT {k}");
                        assert_eq!(ids(&top), sorted[..k.min(n)], "seed {seed}: {top}");
                        if k < n {
                            let plan = db
                                .query(&format!("EXPLAIN ANALYZE {top}"))
                                .unwrap()
                                .pretty();
                            assert!(plan.contains(&format!("TopK(k={k})")), "{top}: {plan}");
                        }
                    }
                }
            }
        }
    }
}

/// Aggregates match straightforward recomputation.
#[test]
fn aggregates_match_reference() {
    for seed in test_seeds(256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<i64> = (0..rng.gen_range(1..50usize))
            .map(|_| rng.gen_range(-100i64..100))
            .collect();
        let db = Database::new();
        let values: Vec<String> = xs.iter().map(|x| format!("({x})")).collect();
        table_of(&db, "CREATE TABLE t (x INT)", &values);
        let b = db
            .query("SELECT COUNT(*), SUM(x), MIN(x), MAX(x), AVG(x) FROM t")
            .unwrap();
        assert_eq!(b.column(0).get(0), Value::Int(xs.len() as i64));
        assert_eq!(b.column(1).get(0), Value::Int(xs.iter().sum()));
        assert_eq!(b.column(2).get(0), Value::Int(*xs.iter().min().unwrap()));
        assert_eq!(b.column(3).get(0), Value::Int(*xs.iter().max().unwrap()));
        let Value::Float(avg) = b.column(4).get(0) else {
            panic!("seed {seed}: AVG is not a float")
        };
        let expected = xs.iter().sum::<i64>() as f64 / xs.len() as f64;
        assert!(
            (avg - expected).abs() < 1e-9,
            "seed {seed}: {avg} vs {expected}"
        );
    }
}

/// WAL replay: whatever random mix of DDL/DML commits, crashing after a
/// clean shutdown and recovering reproduces the state bit for bit, and
/// crashing mid-run recovers a committed prefix.
#[test]
fn wal_replay_recovers_committed_state() {
    use flock_sql::{DurabilityOptions, FailpointFs, MemFs};
    let opts = DurabilityOptions {
        fsync_on_commit: true,
        checkpoint_every_commits: 3,
        keep_checkpoints: 2,
    };
    for seed in test_seeds(256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let steps: Vec<String> = (0..rng.gen_range(1..12usize))
            .map(|_| match rng.gen_range(0..4u32) {
                0 => format!(
                    "INSERT INTO t VALUES ({}, {:?})",
                    rng.gen_range(i16::MIN..=i16::MAX),
                    rng.gen_range(-1e3..1e3)
                ),
                1 => format!(
                    "UPDATE t SET f = f + 1.0 WHERE i > {}",
                    rng.gen_range(-100i64..100)
                ),
                2 => format!("DELETE FROM t WHERE i = {}", rng.gen_range(-100i64..100)),
                _ => "SELECT COUNT(*) FROM t".to_string(),
            })
            .collect();
        let kill_after = rng.gen_range(0u64..40);

        // Clean-shutdown roundtrip is exact.
        let mem = MemFs::new();
        let db = Database::open_with_fs(mem.clone(), opts).unwrap();
        db.execute("CREATE TABLE t (i INT, f DOUBLE)").unwrap();
        for s in &steps {
            db.execute(s).unwrap();
        }
        let live = db.state_digest();
        drop(db);
        let rec = Database::open_with_fs(mem.clean_image(), opts).unwrap();
        assert_eq!(rec.state_digest(), live, "seed {seed}: {steps:?}");

        // Mid-run kill recovers exactly the killed instance's committed
        // state (fsync-on-commit), which is some prefix of the workload.
        let mem = MemFs::new();
        let fp = FailpointFs::new(mem.clone(), kill_after);
        let db = Database::open_with_fs(fp, opts).unwrap();
        let mut digests = vec![db.state_digest()];
        if db.execute("CREATE TABLE t (i INT, f DOUBLE)").is_ok() {
            digests.push(db.state_digest());
            for s in &steps {
                let _ = db.execute(s);
                digests.push(db.state_digest());
            }
        }
        let survivor = db.state_digest();
        drop(db);
        let rec = Database::open_with_fs(mem.crash_image(), opts).unwrap();
        let recovered = rec.state_digest();
        assert_eq!(recovered, survivor, "seed {seed}: kill after {kill_after}");
        assert!(digests.contains(&recovered), "seed {seed}: not a prefix");
    }
}

/// The optimizer never changes results on a family of generated filter +
/// projection + sort queries.
#[test]
fn optimizer_preserves_generated_queries() {
    use flock_sql::optimizer::OptimizerConfig;
    let values: Vec<String> = (0..40)
        .map(|i| format!("({}, {})", i - 20, (i * 7) % 23))
        .collect();
    for seed in test_seeds(256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = Database::new();
        table_of(&db, "CREATE TABLE t (a INT, b INT)", &values);
        let q = format!(
            "SELECT a, b + 1 AS b1 FROM t WHERE a > {} ORDER BY b1 {}, a LIMIT {}",
            rng.gen_range(-50i64..50),
            if rng.gen() { "DESC" } else { "ASC" },
            rng.gen_range(1usize..10),
        );
        db.set_optimizer_config(OptimizerConfig::default());
        let on = db.query(&q).unwrap();
        db.set_optimizer_config(OptimizerConfig::disabled());
        let off = db.query(&q).unwrap();
        assert_eq!(on.num_rows(), off.num_rows(), "{q}");
        for r in 0..on.num_rows() {
            assert_eq!(on.row(r), off.row(r), "{q}");
        }
    }
}
