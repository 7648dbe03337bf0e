//! Regenerates Figures 15 and 16 from one capacity sweep: weighted
//! speedup with LLC capacity dedicated to RelaxFault repair (none /
//! 100 KiB of random lines / 1 way / 4 ways), and DRAM dynamic power
//! relative to the full-LLC configuration.

use relaxfault_bench::emit;
use relaxfault_bench::perf::{fig15_table, fig16_table, performance_sweep};

fn main() -> Result<(), String> {
    let args = relaxfault_bench::obs_init();
    let instr = args.work(300_000);
    let rows = performance_sweep(instr, 2016);
    emit(
        "fig15_performance",
        &format!("Figure 15: weighted speedup vs LLC repair capacity ({instr} instr/core)"),
        &fig15_table(&rows),
    )?;
    emit(
        "fig16_power",
        &format!("Figure 16: relative DRAM dynamic power ({instr} instr/core)"),
        &fig16_table(&rows),
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
