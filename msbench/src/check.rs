//! Output oracles. They judge a schedule by its completion vector alone,
//! so they hold whether or not the program materializes columns:
//!
//! * identical machines — Theorem 8: a completion vector is feasible iff
//!   Water-Filling succeeds on it ([`wf_feasible_grouped`]);
//! * other capacity models, and instances with release times — the
//!   transport-flow witness ([`flow_witness`]).

use malleable_core::algos::related::flow_witness;
use malleable_core::algos::waterfill_fast::wf_feasible_grouped;
use malleable_core::bounds::combined_lower_bound;
use malleable_core::instance::Instance;
use malleable_core::machine::MachineModel;
use numkit::Scalar;

/// Is `completions` achievable by some valid schedule of `instance`?
pub fn feasible(instance: &Instance, completions: &[f64]) -> Result<(), String> {
    if matches!(instance.machine, MachineModel::Identical { .. }) && !instance.has_arrivals() {
        return match wf_feasible_grouped(instance, completions) {
            Ok(true) => Ok(()),
            Ok(false) => Err("water-filling rejects the completion vector (Theorem 8)".into()),
            Err(e) => Err(format!("water-filling check failed: {e}")),
        };
    }
    let releases = instance.arrivals.as_deref();
    flow_witness(instance, releases, completions)
        .map(|_| ())
        .map_err(|e| format!("no transport-flow witness for the completion vector: {e}"))
}

/// `Σ wᵢCᵢ` summed exactly as `ColumnSchedule::weighted_completion_cost`
/// sums it, so the result is bit-identical to the program's.
pub fn weighted_cost(instance: &Instance, completions: &[f64]) -> f64 {
    <f64 as Scalar>::sum(instance.iter().map(|(id, t)| t.weight * completions[id.0]))
}

/// What `msched <file>` printed, as far as the oracles need it.
#[derive(Debug)]
pub struct CliOutput {
    /// `Tᵢ completes at …` values, in task order.
    pub completions: Vec<f64>,
    /// The printed `Σ wᵢCᵢ` token, verbatim.
    pub cost_text: String,
    /// The certified ratio on the policy line, when the policy has one.
    pub ratio: Option<f64>,
}

/// Parse the stdout of one `msched <file>` run.
pub fn parse_cli_output(text: &str) -> Result<CliOutput, String> {
    let mut completions = Vec::new();
    let mut cost_text = None;
    let mut ratio = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("Σ wᵢCᵢ = ") {
            cost_text = rest.split_whitespace().next().map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("policy: ") {
            if let Some(r) = rest.split("(ratio ").nth(1) {
                let r = r.trim_end_matches(')');
                ratio = Some(r.parse::<f64>().map_err(|_| format!("bad ratio {r:?}"))?);
            }
        } else if let Some((_, c)) = line.split_once(" completes at ") {
            completions.push(
                c.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad completion {c:?}"))?,
            );
        }
    }
    Ok(CliOutput {
        completions,
        cost_text: cost_text.ok_or("no Σ wᵢCᵢ line")?,
        ratio,
    })
}

/// Every check on one `msched <file>` run's stdout.
pub fn check_cli(instance: &Instance, policy: &str, stdout: &str) -> Result<(), String> {
    let out = parse_cli_output(stdout)?;
    if out.completions.len() != instance.n() {
        return Err(format!(
            "{} completion lines for {} tasks",
            out.completions.len(),
            instance.n()
        ));
    }
    feasible(instance, &out.completions)?;
    let cost = weighted_cost(instance, &out.completions);
    if format!("{cost:.6}") != out.cost_text {
        return Err(format!(
            "printed Σ wᵢCᵢ = {} but the completions give {cost:.6}",
            out.cost_text
        ));
    }
    let bound = combined_lower_bound(instance);
    if cost < bound * (1.0 - 1e-9) {
        return Err(format!("cost {cost} is below the lower bound {bound}"));
    }
    if policy == "wdeq" {
        match out.ratio {
            Some(r) if r <= 2.0 => {}
            Some(r) => return Err(format!("WDEQ certified ratio {r} exceeds 2")),
            None => return Err("WDEQ printed no certified ratio".into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::bounds::{height_bound, squashed_area_bound};
    use malleable_core::policy;
    use malleable_workloads::{generate, Spec};

    /// What `msched` prints for `instance` under `name`, in its format.
    fn msched_like_output(instance: &Instance, name: &str, completions: &[f64]) -> String {
        let p = policy::by_name::<f64>(name).expect("registered policy");
        let run = p.run(instance).expect("policy runs");
        let cost = weighted_cost(instance, completions);
        let mut s = format!("{instance}\npolicy: {}", p.name());
        if let Some(cert) = &run.certificate {
            s.push_str(&format!(" (ratio {:.4})", cert.ratio(cost)));
        }
        s.push_str(&format!("\nΣ wᵢCᵢ = {cost:.6}   makespan = 0\n"));
        s.push_str(&format!(
            "lower bounds: A(I) = {:.6}, H(I) = {:.6}\n",
            squashed_area_bound(instance),
            height_bound(instance)
        ));
        for (i, c) in completions.iter().enumerate() {
            s.push_str(&format!("  T{i} completes at {c:?}\n"));
        }
        s
    }

    fn small_identical() -> Instance {
        generate(&Spec::IntegerUniform { n: 40, p: 8 }, 7)
    }

    #[test]
    fn known_good_instance_passes_every_check() {
        let inst = small_identical();
        for name in ["wdeq", "greedy-smith", "wf-fast"] {
            let run = policy::by_name::<f64>(name).unwrap().run(&inst).unwrap();
            let out = msched_like_output(&inst, name, &run.schedule.completions);
            check_cli(&inst, name, &out).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn shrinking_one_completion_by_one_percent_is_caught() {
        let inst = small_identical();
        let run = policy::by_name::<f64>("wdeq").unwrap().run(&inst).unwrap();
        for i in [0, 17, 39] {
            let mut c = run.schedule.completions.clone();
            let good = msched_like_output(&inst, "wdeq", &c);
            c[i] *= 0.99;
            // The printed cost still belongs to the unperturbed schedule.
            let cost_line = good.lines().find(|l| l.starts_with("Σ")).unwrap();
            let bad = msched_like_output(&inst, "wdeq", &c)
                .lines()
                .map(|l| if l.starts_with("Σ") { cost_line } else { l })
                .collect::<Vec<_>>()
                .join("\n");
            assert!(check_cli(&inst, "wdeq", &bad).is_err(), "task {i}");
        }
    }

    #[test]
    fn feasibility_oracles_reject_a_shrunk_makespan() {
        // Every task may use the whole machine, so any schedule ends at
        // ΣV / capacity at the earliest: shrinking the last completion by
        // 1% is infeasible whatever the other completions are.
        let identical = Instance::builder(4.0)
            .task(8.0, 1.0, 4.0)
            .task(4.0, 2.0, 4.0)
            .task(6.0, 1.0, 4.0)
            .build()
            .unwrap();
        let related = Instance::on_machine(MachineModel::related(vec![2.0, 1.0, 1.0]).unwrap())
            .task(8.0, 1.0, 3.0)
            .task(4.0, 2.0, 3.0)
            .task(6.0, 1.0, 3.0)
            .build()
            .unwrap();
        for (inst, name) in [(identical, "wdeq"), (related, "wdeq-related")] {
            let run = policy::by_name::<f64>(name).unwrap().run(&inst).unwrap();
            let mut c = run.schedule.completions.clone();
            feasible(&inst, &c).unwrap();
            let last = (0..c.len()).max_by(|&a, &b| c[a].total_cmp(&c[b])).unwrap();
            c[last] *= 0.99;
            assert!(feasible(&inst, &c).is_err(), "{name}");
        }
    }

    #[test]
    fn related_instance_passes_the_flow_witness() {
        let inst = generate(
            &Spec::PowerLawSpeeds {
                n: 24,
                machines: 4,
                alpha: 1.0,
            },
            3,
        );
        let name = "lmax-parametric-related";
        let run = policy::by_name::<f64>(name).unwrap().run(&inst).unwrap();
        let out = msched_like_output(&inst, name, &run.schedule.completions);
        check_cli(&inst, name, &out).unwrap();
    }
}
