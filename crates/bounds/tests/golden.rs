//! Bit-identity pins for the exact-binomial inversion.
//!
//! `data/exact_sample_size.golden` records `exact_binomial_sample_size`
//! answers for every exact leaf key of the served single-variable
//! conditions and for a wide two-tail `(ε, δ)` grid (the file header
//! says how each family was drawn). Any change to how the breakpoint
//! climbs search — seeds, carries, early exits — must reproduce every
//! row byte for byte. The debug run checks a stride of the rows; the
//! `#[ignore]`d test checks them all (run it in release with
//! `cargo test --release -p easeml-bounds -- --ignored`).

use easeml_bounds::{exact_binomial_sample_size, Tail};

const GOLDEN: &str = include_str!("data/exact_sample_size.golden");

/// Rows checked by the default (debug) run: every `STRIDE`-th, a prime
/// so both families and the whole `(ε, δ)` range are sampled.
const STRIDE: usize = 3;

/// One golden row and the inputs it records.
struct Row<'a> {
    line: &'a str,
    family: &'a str,
    tail: Tail,
    eps: f64,
    delta: f64,
}

fn bits(field: &str) -> f64 {
    f64::from_bits(u64::from_str_radix(field, 16).expect("hex f64 bits"))
}

fn rows() -> Vec<Row<'static>> {
    GOLDEN
        .lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 7, "malformed row {line:?}");
            let tail = match fields[1] {
                "one-sided" => Tail::OneSided,
                "two-sided" => Tail::TwoSided,
                other => panic!("unknown tail {other:?}"),
            };
            Row {
                line,
                family: fields[0],
                tail,
                eps: bits(fields[2]),
                delta: bits(fields[3]),
            }
        })
        .collect()
}

/// The row as the current code renders it.
fn render(row: &Row) -> String {
    let n = exact_binomial_sample_size(row.eps, row.delta, row.tail).unwrap();
    format!(
        "{} {} {:016x} {:016x} {:?} {:?} {n}",
        row.family,
        row.tail,
        row.eps.to_bits(),
        row.delta.to_bits(),
        row.eps,
        row.delta,
    )
}

#[test]
fn golden_file_holds_both_families() {
    let rows = rows();
    let leaf = rows.iter().filter(|r| r.family == "leaf").count();
    let grid = rows.iter().filter(|r| r.family == "grid").count();
    assert_eq!((leaf, grid, rows.len()), (3_267, 960, 4_227));
}

#[test]
fn golden_rows_reproduce_byte_for_byte() {
    for row in rows().iter().step_by(STRIDE) {
        assert_eq!(render(row), row.line);
    }
}

#[test]
#[ignore = "every row; run in release with --ignored"]
fn every_golden_row_reproduces_byte_for_byte() {
    let rows = rows();
    let want: Vec<&str> = rows.iter().map(|r| r.line).collect();
    let got: Vec<String> = rows.iter().map(render).collect();
    assert_eq!(got.join("\n"), want.join("\n"));
}
