//! Regenerates Figure 8: repair coverage of RelaxFault vs FreeFault with
//! and without XOR-based LLC set-index hashing (1 repair way per set).

use relaxfault_bench::{emit, fig08_hashing};

fn main() -> Result<(), String> {
    let args = relaxfault_bench::obs_init();
    let trials = args.work(60_000);
    let t = fig08_hashing(trials);
    emit(
        "fig08_hashing",
        &format!("Figure 8: coverage vs set-index hashing ({trials} node trials)"),
        &t,
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
