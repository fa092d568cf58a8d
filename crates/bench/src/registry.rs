//! The figure registry: one table of `(id, fn)` entries, one id per run,
//! behind both the `figures` bench target and `fleet figures`.
//!
//! It holds the paper's evaluation ([`crate::paper`], Figs. 1–16) and the
//! serving figures this reproduction adds ([`crate::figures`], each of which
//! records a `BENCH_*.json` through the [`Recorder`] it is handed).  [`run`]
//! takes the shell's command-line arguments:
//!
//! * no ids runs every entry, in table order;
//! * ids run in argument order, space- or comma-separated
//!   (`fig7 fig8` or `fig7,fig8`);
//! * an unknown id runs nothing and returns [`RunError::UnknownId`], which
//!   names the known ids;
//! * a selection with a serving figure resolves the recording root first,
//!   and runs nothing ([`RunError::NoRecordRoot`]) when it is unknown;
//! * `--bench`, which `cargo bench` appends for every bench target, is not
//!   an id.

use crate::figures::{self, Recorder};
use crate::paper;
use std::fmt;
use Figure::{Prints, Records};

/// What a registered entry runs.
#[derive(Debug, Clone, Copy)]
pub enum Figure {
    /// A figure that only prints its tables.
    Prints(fn()),
    /// A figure that prints its table and records a `BENCH_*.json`.
    Records(fn(&Recorder)),
}

/// One registered run: its id and the figure it runs.
pub type Entry = (&'static str, Figure);

/// Every figure, in the order a run with no ids executes them.
pub const FIGURES: &[Entry] = &[
    ("fig1", Prints(paper::figure1)),
    ("fig2", Prints(paper::figure2)),
    ("fig3", Prints(paper::figure3)),
    ("fig7", Prints(paper::figure7)),
    ("fig8", Prints(paper::figure8)),
    ("fig9", Prints(paper::figure9)),
    ("fig10_11", Prints(paper::figure10_11)),
    ("fig12", Prints(paper::figure12)),
    ("fig12_shift", Records(figures::figure12_load_shift)),
    ("fig_multimodel", Records(figures::figure_multimodel)),
    ("fig_spot", Records(figures::figure_spot)),
    ("fig_scale", Records(figures::figure_scale)),
    ("fig_batching", Records(figures::figure_batching)),
    ("fig_outage", Records(figures::figure_outage)),
    ("fig_variants", Records(figures::figure_variants)),
    ("fig_serverless", Records(figures::figure_serverless)),
    ("fig13", Prints(paper::figure13)),
    ("fig14", Prints(paper::figure14)),
    ("fig15", Prints(paper::figure15)),
    ("fig16", Prints(paper::figure16)),
];

/// Why a run executed no figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// An id that names no entry of the table it was looked up in.
    UnknownId {
        /// The id as given.
        id: String,
        /// The table's ids, in table order.
        known: Vec<&'static str>,
    },
    /// A selected figure records, and the workspace root it records under
    /// is unknown (`CARGO_MANIFEST_DIR` unset outside fast mode).
    NoRecordRoot,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownId { id, known } => {
                let known = known.join(" ");
                write!(f, "unknown figure id `{id}`; known ids: {known}")
            }
            RunError::NoRecordRoot => write!(
                f,
                "cannot record BENCH_*.json: CARGO_MANIFEST_DIR is not set; run the \
                 figures through `cargo bench` or `cargo run`, or set KAIROS_FIG_FAST=1"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Runs the figures `args` name (see the module doc); every id, and the
/// recording root when a selected figure records, is checked before any
/// figure runs.
pub fn run<S: AsRef<str>>(args: impl IntoIterator<Item = S>) -> Result<(), RunError> {
    run_in(FIGURES, args, Recorder::from_env)
}

fn run_in<S: AsRef<str>>(
    table: &[Entry],
    args: impl IntoIterator<Item = S>,
    recorder: impl FnOnce() -> Option<Recorder>,
) -> Result<(), RunError> {
    let mut selected = Vec::new();
    for arg in args {
        if arg.as_ref() == "--bench" {
            continue;
        }
        for id in arg.as_ref().split(',').filter(|id| !id.is_empty()) {
            let Some(&(_, f)) = table.iter().find(|&&(known, _)| known == id) else {
                let (id, known) = (id.to_owned(), table.iter().map(|e| e.0).collect());
                return Err(RunError::UnknownId { id, known });
            };
            selected.push(f);
        }
    }
    if selected.is_empty() {
        selected = table.iter().map(|&(_, f)| f).collect();
    }
    let recorder = if selected.iter().any(|f| matches!(f, Records(_))) {
        recorder().ok_or(RunError::NoRecordRoot)?
    } else {
        Recorder::default()
    };
    for f in selected {
        match f {
            Prints(f) => f(),
            Records(f) => f(&recorder),
        }
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

    fn r(_: &Recorder) {
        RAN.with(|r| r.borrow_mut().push("r"));
    }

    const TABLE: &[Entry] = &[("a", Prints(a)), ("b", Prints(b))];

    /// Runs `args` against `table`, with `root` as the recording root's
    /// lookup, and returns which entries ran.
    fn ran_in(
        table: &[Entry],
        args: &[&str],
        root: Option<Recorder>,
    ) -> (Result<(), RunError>, Vec<&'static str>) {
        RAN.with(|r| r.borrow_mut().clear());
        let result = run_in(table, args, || root);
        (result, RAN.with(|r| r.borrow().clone()))
    }

    /// Runs `args` against the two-entry table and returns which entries ran.
    fn ran(args: &[&str]) -> (Result<(), RunError>, Vec<&'static str>) {
        ran_in(TABLE, args, None)
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
        assert_eq!(err.to_string(), "unknown figure id `figzz`; known ids: a b");
        assert_eq!(
            err,
            RunError::UnknownId {
                id: "figzz".to_owned(),
                known: vec!["a", "b"],
            }
        );
        // The real table reports its own ids.
        let Err(RunError::UnknownId { known, .. }) = run(["figzz"]) else {
            panic!("figzz must be an unknown id");
        };
        assert_eq!(known.len(), FIGURES.len());
    }

    #[test]
    fn a_missing_record_root_runs_nothing() {
        const RECORDING: &[Entry] = &[("a", Prints(a)), ("r", Records(r))];
        let (result, ran) = ran_in(RECORDING, &["a", "r"], None);
        assert_eq!(result, Err(RunError::NoRecordRoot));
        assert!(ran.is_empty(), "ran {ran:?} without a recording root");
        // A selection that records nothing needs no root.
        assert_eq!(ran_in(RECORDING, &["a"], None), (Ok(()), vec!["a"]));
        // With a root, every selected entry runs.
        let root = Some(Recorder::default());
        assert_eq!(ran_in(RECORDING, &[], root), (Ok(()), vec!["a", "r"]));
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
