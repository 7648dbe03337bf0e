//! Regenerates Table 1: RelaxFault's dedicated storage, plus the §3.3
//! energy-overhead bounds.

use relaxfault_bench::emit;
use relaxfault_cache::CacheConfig;
use relaxfault_core::overhead::{EnergyOverhead, StorageOverhead};
use relaxfault_dram::DramConfig;
use relaxfault_util::table::Table;

fn main() -> Result<(), String> {
    relaxfault_bench::obs_init();
    let o = StorageOverhead::for_system(
        &DramConfig::isca16_reliability(),
        &CacheConfig::isca16_llc(),
    );
    let mut t = Table::new(&["component", "bytes", "description"]);
    t.row(&[
        "faulty-bank table".into(),
        o.faulty_bank_table.to_string(),
        "1 bit per bank per DIMM".to_string(),
    ]);
    t.row(&[
        "data coalescer".into(),
        o.data_coalescer.to_string(),
        "pre-computed per-device bitmasks".to_string(),
    ]);
    t.row(&[
        "LLC tag extension".into(),
        o.llc_tag_extension.to_string(),
        "1 bit per LLC line".to_string(),
    ]);
    t.row(&[
        "total".into(),
        o.total().to_string(),
        "(paper: 16,520)".to_string(),
    ]);
    emit(
        "table1_overhead",
        "Table 1: RelaxFault storage overhead",
        &t,
    )?;

    let e = EnergyOverhead::isca16();
    let mut t2 = Table::new(&["quantity", "value"]);
    t2.row(&["tag lookup".into(), format!("{} nJ", e.tag_lookup_nj)]);
    t2.row(&[
        "metadata vs LLC access".into(),
        format!(
            "{:.2}% (paper bound: <1.5%)",
            e.metadata_vs_llc_access() * 100.0
        ),
    ]);
    t2.row(&[
        "metadata vs DRAM miss".into(),
        format!(
            "{:.3}% (paper bound: <0.03%)",
            e.metadata_vs_dram_miss() * 100.0
        ),
    ]);
    emit("table1_energy", "Section 3.3: energy overhead bounds", &t2)?;
    relaxfault_bench::obs_finish();
    Ok(())
}
