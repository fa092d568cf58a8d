//! The figure registry: one table of `(id, fn)` entries, one id per run,
//! behind both the `figures` bench target and `fleet figures`.
//!
//! It holds the paper's evaluation ([`crate::paper`], Figs. 1–16) and the
//! serving figures this reproduction adds ([`crate::figures`], each of which
//! records a `BENCH_*.json` through [`crate::figures::record`]).  [`run`]
//! takes the shell's command-line arguments:
//!
//! * no ids runs every entry, in table order;
//! * ids run in argument order, space- or comma-separated
//!   (`fig7 fig8` or `fig7,fig8`);
//! * an unknown id runs nothing and returns [`UnknownId`], which names the
//!   known ids;
//! * `--bench`, which `cargo bench` appends for every bench target, is not
//!   an id.

use crate::{figures, paper};
use std::fmt;

/// One registered run: its id and the function that runs it.
pub type Entry = (&'static str, fn());

/// Every figure, in the order a run with no ids executes them.
pub const FIGURES: &[Entry] = &[
    ("fig1", paper::figure1),
    ("fig2", paper::figure2),
    ("fig3", paper::figure3),
    ("fig7", paper::figure7),
    ("fig8", paper::figure8),
    ("fig9", paper::figure9),
    ("fig10_11", paper::figure10_11),
    ("fig12", paper::figure12),
    ("fig12_shift", figures::figure12_load_shift),
    ("fig_multimodel", figures::figure_multimodel),
    ("fig_spot", figures::figure_spot),
    ("fig_scale", figures::figure_scale),
    ("fig_batching", figures::figure_batching),
    ("fig_outage", figures::figure_outage),
    ("fig_variants", figures::figure_variants),
    ("fig_serverless", figures::figure_serverless),
    ("fig13", paper::figure13),
    ("fig14", paper::figure14),
    ("fig15", paper::figure15),
    ("fig16", paper::figure16),
];

/// An id that names no entry of the table it was looked up in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownId {
    /// The id as given.
    pub id: String,
    /// The table's ids, in table order.
    pub known: Vec<&'static str>,
}

impl fmt::Display for UnknownId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (id, known) = (&self.id, self.known.join(" "));
        write!(f, "unknown figure id `{id}`; known ids: {known}")
    }
}

impl std::error::Error for UnknownId {}

/// Runs the figures `args` name (see the module doc); every id is checked
/// before any figure runs.
pub fn run<S: AsRef<str>>(args: impl IntoIterator<Item = S>) -> Result<(), UnknownId> {
    run_in(FIGURES, args)
}

fn run_in<S: AsRef<str>>(
    table: &[Entry],
    args: impl IntoIterator<Item = S>,
) -> Result<(), UnknownId> {
    let mut selected = Vec::new();
    for arg in args {
        if arg.as_ref() == "--bench" {
            continue;
        }
        for id in arg.as_ref().split(',').filter(|id| !id.is_empty()) {
            let Some(&(_, f)) = table.iter().find(|&&(known, _)| known == id) else {
                let (id, known) = (id.to_owned(), table.iter().map(|e| e.0).collect());
                return Err(UnknownId { id, known });
            };
            selected.push(f);
        }
    }
    if selected.is_empty() {
        selected = table.iter().map(|&(_, f)| f).collect();
    }
    for f in selected {
        f();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    thread_local! {
        static RAN: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    fn a() {
        RAN.with(|r| r.borrow_mut().push("a"));
    }

    fn b() {
        RAN.with(|r| r.borrow_mut().push("b"));
    }

    const TABLE: &[Entry] = &[("a", a), ("b", b)];

    /// Runs `args` against the two-entry table and returns which entries ran.
    fn ran(args: &[&str]) -> (Result<(), UnknownId>, Vec<&'static str>) {
        RAN.with(|r| r.borrow_mut().clear());
        let result = run_in(TABLE, args);
        (result, RAN.with(|r| r.borrow().clone()))
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate figure id in FIGURES");
    }

    #[test]
    fn unknown_id_runs_nothing_and_names_the_known_ids() {
        let (result, ran) = ran(&["a", "figzz"]);
        assert!(ran.is_empty(), "ran {ran:?} despite an unknown id");
        let err = result.unwrap_err();
        assert_eq!(err.id, "figzz");
        assert_eq!(err.known, ["a", "b"]);
        assert_eq!(err.to_string(), "unknown figure id `figzz`; known ids: a b");
        // The real table reports its own ids.
        let err = run(["figzz"]).unwrap_err();
        assert_eq!(err.known.len(), FIGURES.len());
    }

    #[test]
    fn bench_flag_is_not_an_id() {
        assert_eq!(ran(&["b", "--bench"]), (Ok(()), vec!["b"]));
        // `cargo bench` with no filter passes only the flag: every entry.
        assert_eq!(ran(&["--bench"]), (Ok(()), vec!["a", "b"]));
    }

    #[test]
    fn ids_run_in_argument_order_space_or_comma_separated() {
        assert_eq!(ran(&[]), (Ok(()), vec!["a", "b"]));
        assert_eq!(ran(&["b", "a"]), (Ok(()), vec!["b", "a"]));
        assert_eq!(ran(&["b,a"]), (Ok(()), vec!["b", "a"]));
    }
}
