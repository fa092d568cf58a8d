//! Figure reproduction harness (`harness = false`): a shell over
//! [`kairos_bench::registry`], which lists the ids and how they are read.
//! `cargo bench -p kairos-bench --bench figures -- fig7 fig8` runs two
//! figures; with no ids every figure runs.

use std::process::ExitCode;

fn main() -> ExitCode {
    // Large-scale replays (fig_scale) re-fault the same gigabytes every pass
    // without this; see the harness doc.
    kairos_bench::tune_allocator_for_replay();
    match kairos_bench::registry::run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
