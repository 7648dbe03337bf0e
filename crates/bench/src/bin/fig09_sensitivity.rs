//! Regenerates Figure 9: sensitivity of the refined fault model to the
//! FIT acceleration factor (9a/9b) and the accelerated fraction (9c/9d).

use relaxfault_bench::{emit, fig09_sensitivity};

fn main() -> Result<(), String> {
    let args = relaxfault_bench::obs_init();
    let trials = args.work(60_000);
    let (factor, fraction) = fig09_sensitivity(trials);
    emit(
        "fig09a_factor",
        &format!("Figure 9a/9b: sweep of FIT acceleration at 0.1% of nodes+DIMMs ({trials} trials/point)"),
        &factor,
    )?;
    emit(
        "fig09c_fraction",
        &format!("Figure 9c/9d: sweep of accelerated fraction at 100x ({trials} trials/point)"),
        &fraction,
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
