//! Regenerates Table 4: the workload catalogue (synthetic stand-ins).

use relaxfault_bench::emit;
use relaxfault_bench::perf::table4;

fn main() -> Result<(), String> {
    relaxfault_bench::obs_init();
    emit(
        "table4_workloads",
        "Table 4: workloads (synthetic stand-ins)",
        &table4(),
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
