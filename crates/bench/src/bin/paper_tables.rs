//! Regenerates the paper's results and checks their shapes: the §III-B
//! communication share (`motivation`), Table I (`table1`), Tables III–VI
//! (`table3` … `table6`), Fig. 6(b) (`fig6`) and two extensions, grouping
//! composed with SS_Mask (`combined`) and data vs layer-pipeline vs model
//! parallelism (`tradeoff`).
//!
//! Name the tables to run as arguments; with none, all nine run. Each
//! table's shape claim is a predicate over its rows, and the binary exits
//! nonzero if any selected table breaks its claim. The effort line is
//! printed only when a selected table trains networks (`LTS_EFFORT=quick`
//! for a fast pass). Run:
//! `cargo run --release -p lts-bench --bin paper_tables -- table3 table5`
//!
//! Results are bit-reproducible at any `LTS_THREADS`.

use lts_bench::{banner, effort_from_env};
use lts_core::experiment::{PaperTable, PAPER_TABLES};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let tables: Vec<PaperTable> = if names.is_empty() {
        PAPER_TABLES.to_vec()
    } else {
        names
            .iter()
            .map(|n| {
                PAPER_TABLES.into_iter().find(|t| t.name == n).unwrap_or_else(|| {
                    let known: Vec<&str> = PAPER_TABLES.iter().map(|t| t.name).collect();
                    eprintln!("unknown table `{n}`; expected one of {}", known.join(", "));
                    std::process::exit(2);
                })
            })
            .collect()
    };
    let preset = effort_from_env();
    let trains = tables.iter().any(|t| t.trains);
    banner("paper tables", trains.then_some(&preset));

    let mut violations = Vec::new();
    for table in &tables {
        println!("== {} ==", table.name);
        let rows = (table.run)(&preset).unwrap_or_else(|e| panic!("{}: {e}", table.name));
        println!("{}\n", rows.render());
        violations.extend(rows.violations().into_iter().map(|v| format!("{}: {v}", table.name)));
    }

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("VIOLATION {v}");
        }
        eprintln!("paper tables: {} shape violation(s)", violations.len());
        std::process::exit(1);
    }
    println!("all {} table(s) kept their shape claims", tables.len());
}
