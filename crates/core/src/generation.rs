//! The F-model generation step as one reusable workflow (Fig. 1 of the
//! paper): measure the current generation on representative workloads,
//! rank candidate architecture options by gain/cost with the §4 regression
//! veto, pick the affordable winners, and produce the next-generation
//! configuration — software untouched.

use audo_common::SimError;
use audo_platform::config::SocConfig;

use crate::options::{
    cross_workload_ranking, evaluate_options, render_cross_ranking, ArchOption, CostModel,
    CrossEvaluation, OptionStudy,
};

/// Tuning knobs of a generation study.
#[derive(Debug, Clone)]
pub struct GenerationPlanOptions {
    /// Area/effort budget for the sum of selected options (kGE).
    pub budget: f64,
    /// Maximum number of options to adopt.
    pub max_options: usize,
    /// Per-workload regression tolerance for the §4 veto.
    pub regression_tolerance: f64,
    /// Minimum geometric-mean gain for an option to be worth adopting.
    pub min_gain: f64,
}

impl Default for GenerationPlanOptions {
    fn default() -> GenerationPlanOptions {
        GenerationPlanOptions {
            budget: 100.0,
            max_options: 3,
            regression_tolerance: 0.002,
            min_gain: 0.002,
        }
    }
}

/// The outcome of one generation step.
#[derive(Debug, Clone)]
pub struct GenerationPlan {
    /// The next-generation configuration (baseline + adopted options).
    pub next_config: SocConfig,
    /// Options adopted, in adoption order.
    pub adopted: Vec<ArchOption>,
    /// Total cost of the adopted options.
    pub total_cost: f64,
    /// The full cross-workload ranking the decision was based on.
    pub ranking: Vec<CrossEvaluation>,
    /// Per-workload studies (label, study).
    pub studies: Vec<(String, OptionStudy)>,
    /// Measured speedup of the adopted combination, per workload.
    pub combined_speedups: Vec<(String, f64)>,
}

impl GenerationPlan {
    /// Renders the decision as a report.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cross-workload ranking:");
        for l in render_cross_ranking(&self.ranking).lines() {
            let _ = writeln!(out, "  {l}");
        }
        let _ = writeln!(
            out,
            "adopted ({} kGE total): {}",
            self.total_cost,
            if self.adopted.is_empty() {
                "nothing met the bar".to_string()
            } else {
                self.adopted
                    .iter()
                    .map(ArchOption::label)
                    .collect::<Vec<_>>()
                    .join(" + ")
            }
        );
        let _ = writeln!(out, "next-generation speedups (same software):");
        for (name, s) in &self.combined_speedups {
            let _ = writeln!(out, "  {name:<26} {s:.3}x");
        }
        out
    }
}

/// Runs the complete generation step: evaluate `options` on every workload
/// with `runner`, rank, adopt the safe winners within budget, and validate
/// the combined next-generation configuration on all workloads.
///
/// `runner(config, workload_index)` executes workload `i` on `config` and
/// returns the cycle count. The (option × workload) replay grid is run in
/// parallel — workloads fan out here and each study fans its option
/// replays out in [`evaluate_options`] — with results collected in input
/// order, so the plan is identical to a sequential run.
///
/// # Errors
///
/// Propagates runner failures.
pub fn plan_next_generation<F>(
    baseline: &SocConfig,
    workload_names: &[String],
    options: &[ArchOption],
    cost_model: &CostModel,
    plan: &GenerationPlanOptions,
    runner: F,
) -> Result<GenerationPlan, SimError>
where
    F: Fn(&SocConfig, usize) -> Result<u64, SimError> + Sync,
{
    // Per-workload option studies.
    let studies =
        crate::par::par_map_indexed(workload_names.len(), crate::par::max_workers(), |i| {
            evaluate_options(baseline, options, cost_model, None, |cfg| runner(cfg, i))
                .map(|study| (workload_names[i].clone(), study))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let ranking = cross_workload_ranking(&studies, plan.regression_tolerance);

    // Greedy adoption: safe options by gain/cost, within budget and count.
    let mut next_config = baseline.clone();
    let mut adopted = Vec::new();
    let mut total_cost = 0.0;
    for row in &ranking {
        if !row.safe || row.geomean_speedup - 1.0 < plan.min_gain {
            continue;
        }
        if adopted.len() >= plan.max_options || total_cost + row.cost > plan.budget {
            continue;
        }
        row.option.apply(&mut next_config);
        adopted.push(row.option);
        total_cost += row.cost;
    }

    // Validate the combination (options can interact); one replay per
    // workload, again fanned out and collected in order.
    let combined_speedups =
        crate::par::par_map_indexed(workload_names.len(), crate::par::max_workers(), |i| {
            let before = studies[i].1.baseline_cycles;
            runner(&next_config, i).map(|after| {
                (
                    workload_names[i].clone(),
                    before as f64 / after.max(1) as f64,
                )
            })
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(GenerationPlan {
        next_config,
        adopted,
        total_cost,
        ranking,
        studies,
        combined_speedups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use audo_common::ByteSize;
    use audo_platform::config::PortArbitration;

    /// Synthetic runner: wait states help w0 a lot and w1 a little,
    /// bigger D-cache helps w0 only, RoundRobin hurts w1.
    fn fake_runner(cfg: &SocConfig, workload: usize) -> Result<u64, SimError> {
        let mut cycles = 100_000f64;
        if cfg.flash.wait_states < 5 {
            cycles *= if workload == 0 { 0.85 } else { 0.97 };
        }
        if cfg.dcache.size > ByteSize::kib(4) {
            cycles *= if workload == 0 { 0.92 } else { 1.0 };
        }
        if cfg.flash.arbitration == PortArbitration::RoundRobin {
            cycles *= if workload == 1 { 1.04 } else { 0.99 };
        }
        Ok(cycles as u64)
    }

    #[test]
    fn plans_adopt_safe_options_within_budget() {
        let baseline = SocConfig::default();
        let options = [
            ArchOption::FlashWaitStates(3),
            ArchOption::DcacheSize(ByteSize::kib(8)),
            ArchOption::FlashArbitration(PortArbitration::RoundRobin),
        ];
        let names = vec!["engine".to_string(), "chassis".to_string()];
        let plan = plan_next_generation(
            &baseline,
            &names,
            &options,
            &CostModel::default(),
            &GenerationPlanOptions {
                budget: 120.0,
                ..GenerationPlanOptions::default()
            },
            fake_runner,
        )
        .unwrap();
        // RoundRobin regresses `chassis` -> vetoed despite its low cost.
        assert!(!plan
            .adopted
            .iter()
            .any(|o| matches!(o, ArchOption::FlashArbitration(_))));
        assert!(plan.adopted.contains(&ArchOption::FlashWaitStates(3)));
        assert!(plan
            .adopted
            .contains(&ArchOption::DcacheSize(ByteSize::kib(8))));
        assert!(plan.total_cost <= 120.0);
        // Both adopted: combined speedup on engine = 1/(0.85*0.92).
        let engine = plan
            .combined_speedups
            .iter()
            .find(|(n, _)| n == "engine")
            .unwrap();
        assert!((engine.1 - 1.0 / (0.85 * 0.92)).abs() < 1e-6);
        let chassis = plan
            .combined_speedups
            .iter()
            .find(|(n, _)| n == "chassis")
            .unwrap();
        assert!(chassis.1 >= 1.0, "no regression on any workload");
        let r = plan.render();
        assert!(r.contains("adopted"));
        assert!(r.contains("flash ws=3"));
    }

    #[test]
    fn budget_limits_adoption() {
        let baseline = SocConfig::default();
        let options = [
            ArchOption::FlashWaitStates(3),           // 70 kGE
            ArchOption::DcacheSize(ByteSize::kib(8)), // 36 kGE
        ];
        let names = vec!["engine".to_string()];
        let tight = GenerationPlanOptions {
            budget: 40.0,
            ..GenerationPlanOptions::default()
        };
        let plan = plan_next_generation(
            &baseline,
            &names,
            &options,
            &CostModel::default(),
            &tight,
            fake_runner,
        )
        .unwrap();
        assert_eq!(
            plan.adopted.len(),
            1,
            "only one option fits 40 kGE: {:?}",
            plan.adopted
        );
        assert!(plan.total_cost <= 40.0);
    }

    #[test]
    fn nothing_adopted_when_nothing_helps() {
        let baseline = SocConfig::default();
        let options = [ArchOption::FlashReadBuffers(4)];
        let names = vec!["w".to_string()];
        let plan = plan_next_generation(
            &baseline,
            &names,
            &options,
            &CostModel::default(),
            &GenerationPlanOptions::default(),
            |_, _| Ok(100_000),
        )
        .unwrap();
        assert!(plan.adopted.is_empty());
        assert!(plan.render().contains("nothing met the bar"));
    }
}
