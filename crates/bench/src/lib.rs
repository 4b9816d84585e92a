//! # pipes-bench
//!
//! The experiment harness: one reproducible experiment per demonstrated
//! claim of the PIPES paper (see `DESIGN.md`, experiment index E1–E19).
//!
//! Each experiment prints the table/series it regenerates; E14–E19 measure
//! through one paired method and each full run of them appends one
//! host-stamped line to `bench-history/experiments.jsonl`
//! ([`experiments::method`]). Run everything:
//!
//! ```text
//! cargo run --release -p pipes-bench --bin experiments -- all
//! cargo run --release -p pipes-bench --bin experiments -- e5        # one exp
//! cargo run --release -p pipes-bench --bin experiments -- all --quick  # seconds, no record
//! ```

pub mod experiments;

/// Prints an aligned ASCII table with a title.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[&str]| -> String {
        let padded = cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}  "));
        padded.collect()
    };
    let head = line(headers);
    println!("{head}");
    println!("{}", "-".repeat(head.len().min(120)));
    for row in rows {
        let cells: Vec<&str> = row.iter().map(String::as_str).collect();
        println!("{}", line(&cells));
    }
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Formats a duration as milliseconds.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1000.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn formatting_helpers() {
        assert_eq!(super::f(1.23456, 2), "1.23");
        assert_eq!(super::ms(std::time::Duration::from_millis(1500)), "1500.0");
        // table() only prints; smoke-test it doesn't panic.
        super::table("t", &["a", "long-header"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn quick_experiments_run() {
        // `scripts/ci.sh` smoke-runs E14–E19 quick; here we smoke the
        // cheapest two to keep unit tests fast.
        super::experiments::run("e4", true);
        super::experiments::run("e9", true);
    }
}
