//! Regenerates Table 3: the simulated system parameters.

use relaxfault_bench::emit;
use relaxfault_perfsim::SimConfig;
use relaxfault_util::table::{format_bytes, Table};

fn main() -> Result<(), String> {
    relaxfault_bench::obs_init();
    let c = SimConfig::isca16();
    let mut t = Table::new(&["component", "configuration"]);
    t.row(&[
        "Processor".into(),
        format!(
            "{}-core, {} GHz, 4-way OOO (base IPC {})",
            c.cores,
            c.core_mhz / 1000,
            c.base_ipc
        ),
    ]);
    t.row(&[
        "L1 D-cache".into(),
        format!(
            "{}, private, {}-way, 64B line, {}-cycle",
            format_bytes(c.l1.size_bytes),
            c.l1.ways,
            c.l1_latency
        ),
    ]);
    t.row(&[
        "L2 cache".into(),
        format!(
            "{}, private, {}-way, 64B line, {}-cycle",
            format_bytes(c.l2.size_bytes),
            c.l2.ways,
            c.l2_latency
        ),
    ]);
    t.row(&[
        "L3 cache".into(),
        format!(
            "{} shared, {}-way, 64B line, {}-cycle, hashed index",
            format_bytes(c.llc.size_bytes),
            c.llc.ways,
            c.llc_latency
        ),
    ]);
    t.row(&[
        "Memory controller".to_string(),
        "open-page policy, channel/rank/bank interleaving, bank XOR hashing".to_string(),
    ]);
    t.row(&[
        "Main memory".into(),
        format!(
            "{} channels, {} ranks/channel, {} banks/rank, DDR3-1600 ({}-{}-{})",
            c.dram.channels,
            c.dram.dimms_per_channel * c.dram.ranks_per_dimm,
            c.dram.banks,
            c.timing.t_cl,
            c.timing.t_rcd,
            c.timing.t_rp
        ),
    ]);
    emit("table3_config", "Table 3: simulated system parameters", &t)?;
    relaxfault_bench::obs_finish();
    Ok(())
}
