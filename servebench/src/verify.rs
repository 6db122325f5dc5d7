//! Verification of the kept raw responses, after the clock stops.
//!
//! The first answer to each cycle position is checked against in-process
//! recomputation; every repeat of that request must equal it byte for byte.
//! The in-process anytime solves run before the check, on every CPU.

use std::collections::HashMap;

use mf_core::prelude::{IncrementalEvaluator, MachineId, Mapping, MappingKind, TaskId};
use mf_experiments::anytime::{solve_anytime, AnytimeConfig, AnytimeOutcome};
use mf_server::{response_from_text, GapReport, Probe, Response};

use crate::workload::{Inputs, OpKind, Site, ANYTIME_BUDGET};

/// What verification found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Ops answered `ok` and passing verification.
    pub passed: u64,
    /// Ops that did not.
    pub failed: u64,
    /// Sum of returned period / H4w period over passing ops.
    pub period_ratio_sum: f64,
    /// Anytime solves among the passing ops, and how many ended proven.
    pub anytime: u64,
    /// See `anytime`.
    pub proven: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Verdict {
    /// Passing share of attempted ops.
    pub fn success_rate(&self) -> f64 {
        let attempted = self.passed + self.failed;
        if attempted == 0 {
            0.0
        } else {
            self.passed as f64 / attempted as f64
        }
    }

    /// Mean returned period over H4w's on the same instance.
    pub fn period_ratio(&self) -> f64 {
        self.period_ratio_sum / self.passed.max(1) as f64
    }

    /// Share of anytime solves proven optimal; vacuously 1 when the
    /// workload sends none.
    pub fn proven_rate(&self) -> f64 {
        if self.anytime == 0 {
            1.0
        } else {
            self.proven as f64 / self.anytime as f64
        }
    }
}

/// A check of one first answer: its period ratio and whether an anytime
/// solve ended proven.
#[derive(Clone, Copy)]
struct Checked {
    period_ratio: f64,
    proven: Option<bool>,
}

/// Verifies `responses`, where response `k` answers `inputs.cycle[k %
/// cycle.len()]`.
pub fn verify(inputs: &Inputs, responses: &[String]) -> Verdict {
    let mut verdict = Verdict::default();
    let references = anytime_references(inputs);
    let mut first: Vec<Option<Checked>> = Vec::with_capacity(inputs.cycle.len());
    for (k, raw) in responses.iter().enumerate() {
        let position = k % inputs.cycle.len();
        let outcome = if k < inputs.cycle.len() {
            let checked = check(inputs, position, raw, &references);
            first.push(checked.as_ref().ok().copied());
            checked
        } else if *raw != responses[position] {
            Err("differs from the first answer to the same request".to_string())
        } else {
            first[position].ok_or_else(|| "repeat of a failed answer".to_string())
        };
        match outcome {
            Ok(checked) => {
                verdict.passed += 1;
                verdict.period_ratio_sum += checked.period_ratio;
                if let Some(proven) = checked.proven {
                    verdict.anytime += 1;
                    verdict.proven += u64::from(proven);
                }
            }
            Err(reason) => {
                verdict.failed += 1;
                if verdict.first_failure.is_none() {
                    verdict.first_failure = Some(format!("op {k}: {reason}"));
                }
            }
        }
    }
    verdict
}

fn check(
    inputs: &Inputs,
    position: usize,
    raw: &str,
    references: &HashMap<(usize, u64), AnytimeOutcome>,
) -> Result<Checked, String> {
    let op = &inputs.cycle[position];
    let site = &inputs.sites[op.site()];
    let response = response_from_text(raw).map_err(|e| format!("unparsable answer: {e}"))?;
    let plain = |period: f64| Checked {
        period_ratio: period / site.h4w_period,
        proven: None,
    };
    match (&op.kind, response) {
        (OpKind::Read { probes, .. }, Response::Batch(items)) => {
            let (evaluated, whatifs) = items.split_first().ok_or("empty batch")?;
            let period = check_evaluation(site, evaluated)?;
            check_probes(site, probes, whatifs)?;
            Ok(plain(period))
        }
        (OpKind::Write { .. }, Response::Batch(items)) => {
            let [loaded, evaluated] = items.as_slice() else {
                return Err(format!("write batch answered {} items", items.len()));
            };
            let expected = Response::Loaded {
                name: site.name.clone(),
                tasks: site.instance.task_count(),
                machines: site.instance.machine_count(),
                types: site.instance.type_count(),
            };
            if *loaded != expected {
                return Err(format!("load answered {loaded:?}"));
            }
            Ok(plain(check_evaluation(site, evaluated)?))
        }
        (
            OpKind::Portfolio { .. },
            Response::Solved {
                period,
                machines,
                assignment,
                ..
            },
        ) => {
            check_solution(site, period, machines, &assignment)?;
            Ok(plain(period))
        }
        (
            OpKind::Anytime { site: index, seed },
            Response::SolvedAnytime {
                reports,
                period,
                machines,
                assignment,
            },
        ) => {
            check_solution(site, period, machines, &assignment)?;
            let proven = check_gap_lines(&reports, period)?;
            let reference = &references[&(*index, *seed)];
            if reference.period.value().to_bits() != period.to_bits() {
                return Err(format!(
                    "anytime period {period} but in-process solve_anytime gives {}",
                    reference.period.value()
                ));
            }
            let same_mapping = reference.mapping.machine_count() == machines
                && reference
                    .mapping
                    .as_slice()
                    .iter()
                    .map(|machine| machine.index())
                    .eq(assignment.iter().copied());
            if !same_mapping {
                return Err("anytime mapping differs from in-process solve_anytime".to_string());
            }
            Ok(Checked {
                period_ratio: period / site.h4w_period,
                proven: Some(proven),
            })
        }
        (_, other) => Err(format!("unexpected answer {other:?}")),
    }
}

/// In-process `solve_anytime` of every distinct anytime request of the
/// cycle, spread over the CPUs this process may use.
fn anytime_references(inputs: &Inputs) -> HashMap<(usize, u64), AnytimeOutcome> {
    let mut requests: Vec<(usize, u64)> = inputs
        .cycle
        .iter()
        .filter_map(|op| match op.kind {
            OpKind::Anytime { site, seed } => Some((site, seed)),
            _ => None,
        })
        .collect();
    requests.sort_unstable();
    requests.dedup();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let share = requests.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = requests
            .chunks(share)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&(site, seed)| {
                            let outcome =
                                solve_anytime(&inputs.sites[site].instance, &anytime_config(seed))
                                    .expect("the benchmark's anytime solves are feasible");
                            ((site, seed), outcome)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("reference solves do not panic"))
            .collect()
    })
}

/// The configuration a `solve … anytime budget ANYTIME_BUDGET seed S`
/// request runs with.
pub fn anytime_config(seed: u64) -> AnytimeConfig {
    AnytimeConfig {
        step_budget: ANYTIME_BUDGET,
        seed,
        ..AnytimeConfig::default()
    }
}

/// An `evaluate` answer must equal a fresh in-process evaluator bit for bit.
fn check_evaluation(site: &Site, answer: &Response) -> Result<f64, String> {
    let Response::Evaluated {
        period,
        critical,
        loads,
    } = answer
    else {
        return Err(format!("evaluate answered {answer:?}"));
    };
    let evaluator = IncrementalEvaluator::new(&site.instance, &site.incumbent)
        .map_err(|e| format!("in-process evaluator: {e}"))?;
    let same_loads = loads.len() == evaluator.loads().len()
        && loads
            .iter()
            .zip(evaluator.loads())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if period.to_bits() != evaluator.period().value().to_bits()
        || *critical != evaluator.critical_machine().index()
        || !same_loads
    {
        return Err(format!("evaluate of {} differs from in-process", site.name));
    }
    Ok(*period)
}

/// `whatif` answers must equal in-process probes of the incumbent.
fn check_probes(site: &Site, probes: &[Probe], answers: &[Response]) -> Result<(), String> {
    if probes.len() != answers.len() {
        return Err(format!(
            "{} probes, {} answers",
            probes.len(),
            answers.len()
        ));
    }
    let mut evaluator = IncrementalEvaluator::new(&site.instance, &site.incumbent)
        .map_err(|e| format!("in-process evaluator: {e}"))?;
    for (probe, answer) in probes.iter().zip(answers) {
        let expected = match *probe {
            Probe::Move { task, machine } => {
                evaluator.evaluate_move(TaskId(task), MachineId(machine))
            }
            Probe::Swap { a, b } => evaluator.evaluate_swap(TaskId(a), TaskId(b)),
        }
        .map_err(|e| format!("in-process probe {probe:?}: {e}"))?;
        let Response::WhatIf { period, critical } = answer else {
            return Err(format!("whatif answered {answer:?}"));
        };
        if period.to_bits() != expected.period.value().to_bits()
            || *critical != expected.critical_machine.index()
        {
            return Err(format!("whatif {probe:?} on {} differs", site.name));
        }
    }
    Ok(())
}

/// A solved mapping must be a valid specialized mapping whose recomputed
/// period equals the reported one bit for bit.
fn check_solution(
    site: &Site,
    period: f64,
    machines: usize,
    assignment: &[usize],
) -> Result<(), String> {
    let mapping = Mapping::from_indices(assignment, machines)
        .map_err(|e| format!("unbuildable mapping: {e}"))?;
    site.instance
        .validate_mapping(&mapping, MappingKind::Specialized)
        .map_err(|e| format!("invalid mapping: {e}"))?;
    let recomputed = site
        .instance
        .period(&mapping)
        .map_err(|e| format!("period: {e}"))?
        .value();
    if recomputed.to_bits() != period.to_bits() {
        return Err(format!("reported period {period}, recomputed {recomputed}"));
    }
    Ok(())
}

/// `gap` lines must be monotone, only the last may be proven, and the last
/// incumbent is the final period. Returns whether the solve ended proven.
fn check_gap_lines(reports: &[GapReport], period: f64) -> Result<bool, String> {
    let last = reports.last().ok_or("no gap lines")?;
    for pair in reports.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if b.steps < a.steps || b.period > a.period || b.bound < a.bound || a.proven {
            return Err(format!("gap lines not monotone: {a:?} then {b:?}"));
        }
    }
    if last.period.to_bits() != period.to_bits() || last.bound > last.period {
        return Err(format!(
            "last gap line {last:?} disagrees with period {period}"
        ));
    }
    Ok(last.proven)
}
