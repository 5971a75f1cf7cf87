//! The SQL front end allocates per statement and per value, not per byte
//! it reads: a counting global allocator checks lexing and parsing a
//! 100-row INSERT of the durable ingest workload's shape. Allocation
//! counts are deterministic where a timing bound would be a flake.

use flock_sql::ast::{InsertSource, Statement};
use flock_sql::lexer::tokenize;
use flock_sql::parser::parse_token_stream;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

/// The system allocator, counting the allocations (fresh blocks and
/// reallocations) each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations this thread made running it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const ROWS: usize = 100;

/// `INSERT INTO events VALUES (k, 3k, v, 'cN'), ...`: an INT key, an INT,
/// a DOUBLE in multiples of 1/8 and a short category string per row.
fn insert_100() -> String {
    let mut sql = String::from("INSERT INTO events VALUES ");
    for k in 0..ROWS as i64 {
        let v = ((k * 7919) % 80_000) as f64 / 8.0;
        let sep = if k == 0 { "" } else { ", " };
        write!(sql, "{sep}({k}, {}, {v:?}, 'c{}')", k * 3, k % 8).unwrap();
    }
    sql
}

#[test]
fn lexing_a_100_row_insert_allocates_a_constant() {
    let sql = insert_100();
    let (tokens, n) = allocations(|| tokenize(&sql).unwrap());
    // `INSERT INTO events VALUES`, ten tokens a row but the last row's
    // `,`, and `Eof`.
    assert_eq!(tokens.len(), 4 + ROWS * 10 - 1 + 1);
    assert!(
        n < 32,
        "tokenizing {} tokens made {n} allocations",
        tokens.len()
    );
}

#[test]
fn parsing_a_100_row_insert_allocates_per_row_and_text_cell() {
    let sql = insert_100();
    let tokens = tokenize(&sql).unwrap();
    let ((stmt, params), n) = allocations(|| parse_token_stream(tokens).unwrap());
    assert_eq!(params, 0);
    let Statement::Insert {
        source: InsertSource::Values(rows),
        ..
    } = &stmt
    else {
        panic!("an INSERT … VALUES: {stmt:?}")
    };
    assert_eq!(rows.len(), ROWS);
    // One row vector per row, one `String` per text cell, and a constant:
    // the table name and the doublings of the row list.
    let bound = ROWS + ROWS + 16;
    assert!(n <= bound, "parsing made {n} allocations, bound {bound}");
}
