//! Design-choice ablations for the knobs DESIGN.md calls out.
//!
//! Five studies, each isolating one modelling or mechanism decision:
//!
//! 1. **Refined vs uniform fault model** — the motivation for §4.1.2:
//!    without node/DIMM acceleration the predicted DUE count collapses far
//!    below field observations.
//! 2. **Device-to-device variation (CV sweep)** — the paper reports
//!    insensitivity; quantify it.
//! 3. **PPR sparing generosity** — how many spare rows per bank group
//!    would PPR need to approach RelaxFault's coverage?
//! 4. **Repair-preemption probability** — how much of the DUE reduction
//!    comes from detection racing the second fault, versus pure ordering.
//! 5. **Coverage-gap fingerprint** — which fault modes remain unrepaired
//!    under each mechanism (why the curves saturate where they do).
//!
//! ```bash
//! cargo run --release -p relaxfault-bench --bin ablation_design -- 40000
//! ```

use relaxfault_bench::{emit, SYSTEM_NODES};
use relaxfault_faults::FaultMode;
use relaxfault_relsim::engine::{run_scenarios, RunConfig};
use relaxfault_relsim::scenario::{Mechanism, ReplacementPolicy, Scenario};
use relaxfault_util::table::{format_pct, Table};

fn run(arms: &[Scenario], trials: u64) -> Vec<relaxfault_relsim::ScenarioResult> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_scenarios(
        arms,
        &RunConfig {
            trials,
            seed: 0xAB1A,
            threads,
            chunk_size: 0,
        },
    )
}

fn main() -> Result<(), String> {
    let args = relaxfault_bench::obs_init();
    let trials = args.work(40_000);

    // 1. Refined vs uniform fault model.
    let mut uniform = Scenario::isca16_baseline();
    uniform.fault_model =
        relaxfault_faults::FaultModel::uniform(relaxfault_faults::FitRates::cielo(), 6.0);
    let refined = Scenario::isca16_baseline();
    let r = run(&[uniform, refined], trials * 2);
    let mut t1 = Table::new(&["fault model", "DUEs/system", "replacements/system"]);
    for (name, res) in ["uniform (prior work)", "refined (Eq. 1 + lognormal)"]
        .iter()
        .zip(&r)
    {
        t1.row(&[
            name.to_string(),
            format!("{:.2}", res.dues_per_system(SYSTEM_NODES)),
            format!("{:.2}", res.replacements_per_system(SYSTEM_NODES)),
        ]);
    }
    emit(
        "ablation1_fault_model",
        "Ablation 1: uniform fault model under-predicts failures (paper §4.1.2)",
        &t1,
    )?;

    // 2. Device-CV sweep.
    let mut arms = Vec::new();
    let cvs = [0.0, 0.25, 0.5, 1.0];
    for cv in cvs {
        let mut s = Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None);
        s.fault_model.variation.device_cv = cv;
        s.mechanism = Mechanism::RelaxFault { max_ways: 1 };
        arms.push(s);
    }
    let r = run(&arms, trials);
    let mut t2 = Table::new(&["device CV", "coverage", "faulty nodes/system"]);
    for (cv, res) in cvs.iter().zip(&r) {
        t2.row(&[
            format!("{cv}"),
            format_pct(res.coverage()),
            format!("{:.0}", res.per_system(res.faulty_nodes, SYSTEM_NODES)),
        ]);
    }
    emit(
        "ablation2_device_cv",
        "Ablation 2: device-to-device rate variation barely moves coverage (paper: 'results are not sensitive')",
        &t2,
    )?;

    // 3. PPR sparing generosity.
    let mut arms = Vec::new();
    let spare_cfgs = [(2u32, 1u32), (2, 2), (2, 4), (1, 4)];
    for (bpg, spg) in spare_cfgs {
        arms.push(
            Scenario::isca16_baseline()
                .with_replacement(ReplacementPolicy::None)
                .with_mechanism(Mechanism::PprCustom {
                    banks_per_group: bpg,
                    spares_per_group: spg,
                }),
        );
    }
    arms.push(
        Scenario::isca16_baseline()
            .with_replacement(ReplacementPolicy::None)
            .with_mechanism(Mechanism::RelaxFault { max_ways: 1 }),
    );
    let r = run(&arms, trials);
    let mut t3 = Table::new(&["mechanism", "coverage"]);
    for res in &r {
        t3.row(&[res.label.clone(), format_pct(res.coverage())]);
    }
    emit(
        "ablation3_ppr_spares",
        "Ablation 3: even generous row sparing cannot reach LLC-based repair (columns/banks stay out of reach)",
        &t3,
    )?;

    // 4. Repair-preemption probability.
    let mut arms = Vec::new();
    let preempts = [0.0, 0.35, 0.7];
    for p in preempts {
        let mut s =
            Scenario::isca16_baseline().with_mechanism(Mechanism::RelaxFault { max_ways: 4 });
        s.ecc.p_repair_preempts_due = p;
        arms.push(s);
    }
    arms.push(Scenario::isca16_baseline()); // no-repair reference
    let r = run(&arms, trials * 3);
    let baseline = r
        .last()
        .expect("reference arm")
        .dues_per_system(SYSTEM_NODES);
    let mut t4 = Table::new(&[
        "p(repair preempts DUE)",
        "DUEs/system",
        "reduction vs no repair",
    ]);
    for (p, res) in preempts.iter().zip(&r) {
        let d = res.dues_per_system(SYSTEM_NODES);
        t4.row(&[
            format!("{p}"),
            format!("{d:.2}"),
            format_pct(1.0 - d / baseline.max(1e-9)),
        ]);
    }
    emit(
        "ablation4_preemption",
        "Ablation 4: DUE reduction = ordering effect (~arrival symmetry) + detection racing the overlap",
        &t4,
    )?;

    // 5. Coverage-gap fingerprint.
    let base = Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None);
    let arms = vec![
        base.clone().with_mechanism(Mechanism::Ppr),
        base.clone()
            .with_mechanism(Mechanism::FreeFault { max_ways: 1 }),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 1 }),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
    ];
    let r = run(&arms, trials);
    let mut headers = vec!["mechanism".to_string()];
    headers.extend(FaultMode::ALL.iter().map(|m| m.label().to_string()));
    let mut t5 = Table::new(&headers);
    for res in &r {
        let mut row = vec![res.label.clone()];
        for i in 0..6 {
            row.push(format!(
                "{:.1}",
                res.unrepaired_by_mode[i] as f64 / res.trials as f64 * SYSTEM_NODES as f64
            ));
        }
        t5.row(&row);
    }
    emit(
        "ablation5_gap_fingerprint",
        "Ablation 5: unrepaired faults per system by mode (who fails on what)",
        &t5,
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
