//! Regenerates Figure 2 / Table 2: per-device FIT rates by fault mode for
//! the Cielo and Hopper field studies.

use relaxfault_bench::emit;
use relaxfault_faults::{FaultMode, FitRates, Transience};
use relaxfault_util::table::Table;

fn main() -> Result<(), String> {
    relaxfault_bench::obs_init();
    let mut t = Table::new(&[
        "fault mode",
        "Cielo transient",
        "Cielo permanent",
        "Hopper transient",
        "Hopper permanent",
    ]);
    let cielo = FitRates::cielo();
    let hopper = FitRates::hopper();
    for mode in FaultMode::ALL {
        t.row(&[
            mode.label().to_string(),
            format!("{:.1}", cielo.rate(mode, Transience::Transient)),
            format!("{:.1}", cielo.rate(mode, Transience::Permanent)),
            format!("{:.1}", hopper.rate(mode, Transience::Transient)),
            format!("{:.1}", hopper.rate(mode, Transience::Permanent)),
        ]);
    }
    t.row(&[
        "total".into(),
        format!("{:.1}", cielo.total_transient()),
        format!("{:.1}", cielo.total_permanent()),
        format!("{:.1}", hopper.total_transient()),
        format!("{:.1}", hopper.total_permanent()),
    ]);
    emit(
        "fig02_table2",
        "Figure 2 / Table 2: FIT per device by fault mode",
        &t,
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
