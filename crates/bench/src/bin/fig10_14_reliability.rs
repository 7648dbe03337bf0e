//! Regenerates Figures 10–14 (coverage vs LLC capacity; DUEs, SDCs and
//! DIMM replacements per system) at 1x and 10x FIT from one sampled
//! population per FIT level. The work amount is the Figure 13a trial count.

use relaxfault_bench::{emit, fig10_14_reliability};

fn main() -> Result<(), String> {
    let args = relaxfault_bench::obs_init();
    for (name, title, table) in fig10_14_reliability(args.work(4_000_000)) {
        emit(name, &title, &table)?;
    }
    relaxfault_bench::obs_finish();
    Ok(())
}
