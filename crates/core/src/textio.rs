//! A plain-text interchange format for problem instances and mappings.
//!
//! The format is deliberately simple — one record per line, `#` comments —
//! so that instances can be written by hand, versioned, and fed to the
//! command-line tool (`mf-cli`) without pulling a serialisation framework:
//!
//! ```text
//! # microfactory instance
//! tasks 4
//! machines 3
//! types 2
//! # task <index> <type> [successor <index>]
//! task 0 0 successor 1
//! task 1 1 successor 2
//! task 2 0 successor 3
//! task 3 1
//! # time <type> <machine> <milliseconds>
//! time 0 0 120.0
//! ...
//! # failure <task> <machine> <probability>
//! failure 0 0 0.01
//! ...
//! ```
//!
//! Every `time` and `failure` entry must be present (the format is explicit
//! rather than defaulted, so a missing number is an error, not a silent 0).

use crate::application::{Application, ApplicationBuilder};
use crate::error::{ModelError, Result};
use crate::failure::FailureModel;
use crate::ids::{MachineId, TaskId, TaskTypeId};
use crate::instance::Instance;
use crate::mapping::Mapping;
use crate::platform::Platform;
use std::fmt::Write as _;

/// Serialises an instance to the text format.
pub fn instance_to_text(instance: &Instance) -> String {
    let app = instance.application();
    let mut out = String::new();
    let _ = writeln!(out, "# microfactory instance");
    let _ = writeln!(out, "tasks {}", app.task_count());
    let _ = writeln!(out, "machines {}", instance.machine_count());
    let _ = writeln!(out, "types {}", app.type_count());
    for task in app.tasks() {
        match app.successor(task.id) {
            Some(succ) => {
                let _ = writeln!(
                    out,
                    "task {} {} successor {}",
                    task.id.index(),
                    task.ty.index(),
                    succ.index()
                );
            }
            None => {
                let _ = writeln!(out, "task {} {}", task.id.index(), task.ty.index());
            }
        }
    }
    for ty in 0..app.type_count() {
        for u in 0..instance.machine_count() {
            let _ = writeln!(
                out,
                "time {} {} {}",
                ty,
                u,
                instance.platform().time(TaskTypeId(ty), MachineId(u))
            );
        }
    }
    for task in app.tasks() {
        for u in 0..instance.machine_count() {
            let _ = writeln!(
                out,
                "failure {} {} {}",
                task.id.index(),
                u,
                instance.failure(task.id, MachineId(u)).value()
            );
        }
    }
    out
}

/// Serialises a mapping to the text format (`assign <task> <machine>` lines).
pub fn mapping_to_text(mapping: &Mapping) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# microfactory mapping");
    let _ = writeln!(out, "machines {}", mapping.machine_count());
    for (i, machine) in mapping.as_slice().iter().enumerate() {
        let _ = writeln!(out, "assign {} {}", i, machine.index());
    }
    out
}

fn parse_error(line_number: usize, detail: impl Into<String>) -> ModelError {
    ModelError::RuleViolation {
        kind: crate::mapping::MappingKind::General,
        detail: format!("line {line_number}: {}", detail.into()),
    }
}

fn parse_usize(token: Option<&str>, line: usize, what: &str) -> Result<usize> {
    token
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| parse_error(line, format!("expected {what} (unsigned integer)")))
}

/// Rejects a declared size that no input of `text`'s length can complete.
/// A complete instance spends at least one line per task, type and machine,
/// and per `time` (`p × m`) and `failure` (`n × m`) table entry, so a larger
/// size cannot be satisfied; checking it before allocating keeps a hostile
/// header from sizing the parser's tables.
fn check_size(entries: usize, line: usize, what: &str, text: &str) -> Result<()> {
    if entries > text.len() {
        return Err(parse_error(
            line,
            format!("{what} {entries} exceeds the {}-byte input", text.len()),
        ));
    }
    Ok(())
}

fn parse_f64(token: Option<&str>, line: usize, what: &str) -> Result<f64> {
    token
        .and_then(|t| t.parse::<f64>().ok())
        .ok_or_else(|| parse_error(line, format!("expected {what} (number)")))
}

/// Parses an instance from the text format.
pub fn instance_from_text(text: &str) -> Result<Instance> {
    let mut task_count: Option<usize> = None;
    let mut machine_count: Option<usize> = None;
    let mut type_count: Option<usize> = None;
    let mut task_types: Vec<Option<usize>> = Vec::new();
    let mut successors: Vec<Option<usize>> = Vec::new();
    let mut times: Vec<Vec<Option<f64>>> = Vec::new();
    let mut failures: Vec<Vec<Option<f64>>> = Vec::new();

    for (index, raw_line) in text.lines().enumerate() {
        let line_number = index + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let keyword = tokens.next().expect("non-empty line has a first token");
        let declared = match keyword {
            "tasks" => task_count.is_some(),
            "machines" => machine_count.is_some(),
            "types" => type_count.is_some(),
            _ => false,
        };
        if declared {
            // A repeated header would re-size the tables once per line.
            return Err(parse_error(
                line_number,
                format!("duplicate `{keyword}` header"),
            ));
        }
        match keyword {
            "tasks" => {
                let n = parse_usize(tokens.next(), line_number, "task count")?;
                check_size(n, line_number, "task count", text)?;
                task_count = Some(n);
                task_types = vec![None; n];
                successors = vec![None; n];
                failures = vec![Vec::new(); n];
            }
            "machines" => {
                let m = parse_usize(tokens.next(), line_number, "machine count")?;
                check_size(m, line_number, "machine count", text)?;
                machine_count = Some(m);
            }
            "types" => {
                let p = parse_usize(tokens.next(), line_number, "type count")?;
                check_size(p, line_number, "type count", text)?;
                type_count = Some(p);
                times = vec![Vec::new(); p];
            }
            "task" => {
                let n = task_count
                    .ok_or_else(|| parse_error(line_number, "`tasks` must come first"))?;
                let id = parse_usize(tokens.next(), line_number, "task index")?;
                if id >= n {
                    return Err(parse_error(
                        line_number,
                        format!("task index {id} out of range"),
                    ));
                }
                let ty = parse_usize(tokens.next(), line_number, "task type")?;
                task_types[id] = Some(ty);
                match tokens.next() {
                    None => {}
                    Some("successor") => {
                        let succ = parse_usize(tokens.next(), line_number, "successor index")?;
                        successors[id] = Some(succ);
                    }
                    Some(other) => {
                        return Err(parse_error(
                            line_number,
                            format!("unexpected token `{other}`"),
                        ))
                    }
                }
            }
            "time" => {
                let p = type_count
                    .ok_or_else(|| parse_error(line_number, "`types` must come first"))?;
                let m = machine_count
                    .ok_or_else(|| parse_error(line_number, "`machines` must come first"))?;
                let ty = parse_usize(tokens.next(), line_number, "type index")?;
                let machine = parse_usize(tokens.next(), line_number, "machine index")?;
                let value = parse_f64(tokens.next(), line_number, "processing time")?;
                if ty >= p || machine >= m {
                    return Err(parse_error(line_number, "time entry out of range"));
                }
                if times[ty].is_empty() {
                    check_size(p.saturating_mul(m), line_number, "types × machines", text)?;
                    times[ty] = vec![None; m];
                }
                times[ty][machine] = Some(value);
            }
            "failure" => {
                let n = task_count
                    .ok_or_else(|| parse_error(line_number, "`tasks` must come first"))?;
                let m = machine_count
                    .ok_or_else(|| parse_error(line_number, "`machines` must come first"))?;
                let task = parse_usize(tokens.next(), line_number, "task index")?;
                let machine = parse_usize(tokens.next(), line_number, "machine index")?;
                let value = parse_f64(tokens.next(), line_number, "failure probability")?;
                if task >= n || machine >= m {
                    return Err(parse_error(line_number, "failure entry out of range"));
                }
                if failures[task].is_empty() {
                    check_size(n.saturating_mul(m), line_number, "tasks × machines", text)?;
                    failures[task] = vec![None; m];
                }
                failures[task][machine] = Some(value);
            }
            other => {
                return Err(parse_error(
                    line_number,
                    format!("unknown keyword `{other}`"),
                ))
            }
        }
    }

    let n = task_count.ok_or_else(|| parse_error(0, "missing `tasks` header"))?;
    let m = machine_count.ok_or_else(|| parse_error(0, "missing `machines` header"))?;
    let p = type_count.ok_or_else(|| parse_error(0, "missing `types` header"))?;

    // Application.
    let mut builder = ApplicationBuilder::new();
    for (i, ty) in task_types.iter().enumerate() {
        let ty = ty.ok_or_else(|| parse_error(0, format!("task {i} is not declared")))?;
        if ty >= p {
            return Err(ModelError::UnknownType { ty, type_count: p });
        }
        builder.add_task(ty);
    }
    for (i, succ) in successors.iter().enumerate() {
        if let Some(succ) = succ {
            builder.add_dependency(TaskId(i), TaskId(*succ))?;
        }
    }
    let app = build_with_declared_types(builder, p)?;

    // Platform.
    let mut type_times = Vec::with_capacity(p);
    for (ty, row) in times.into_iter().enumerate() {
        if row.len() != m {
            return Err(parse_error(
                0,
                format!("missing `time` entries for type {ty}"),
            ));
        }
        let mut values = Vec::with_capacity(m);
        for (u, value) in row.into_iter().enumerate() {
            values.push(
                value.ok_or_else(|| parse_error(0, format!("missing `time {ty} {u}` entry")))?,
            );
        }
        type_times.push(values);
    }
    let platform = Platform::from_type_times(m, type_times)?;

    // Failures.
    let mut failure_rows = Vec::with_capacity(n);
    for (task, row) in failures.into_iter().enumerate() {
        if row.len() != m {
            return Err(parse_error(
                0,
                format!("missing `failure` entries for task {task}"),
            ));
        }
        let mut values = Vec::with_capacity(m);
        for (u, value) in row.into_iter().enumerate() {
            values
                .push(value.ok_or_else(|| {
                    parse_error(0, format!("missing `failure {task} {u}` entry"))
                })?);
        }
        failure_rows.push(values);
    }
    let failure_model = FailureModel::from_matrix(failure_rows, m)?;

    Instance::new(app, platform, failure_model)
}

/// Parses a mapping from the text format.
pub fn mapping_from_text(text: &str) -> Result<Mapping> {
    let mut machine_count: Option<usize> = None;
    let mut assignments: Vec<(usize, usize)> = Vec::new();
    for (index, raw_line) in text.lines().enumerate() {
        let line_number = index + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        match tokens.next().expect("non-empty line") {
            "machines" => {
                machine_count = Some(parse_usize(tokens.next(), line_number, "machine count")?);
            }
            "assign" => {
                let task = parse_usize(tokens.next(), line_number, "task index")?;
                let machine = parse_usize(tokens.next(), line_number, "machine index")?;
                assignments.push((task, machine));
            }
            other => {
                return Err(parse_error(
                    line_number,
                    format!("unknown keyword `{other}`"),
                ))
            }
        }
    }
    let m = machine_count.ok_or_else(|| parse_error(0, "missing `machines` header"))?;
    assignments.sort_by_key(|&(task, _)| task);
    for (expected, &(task, _)) in assignments.iter().enumerate() {
        if task != expected {
            return Err(parse_error(
                0,
                format!("missing `assign` entry for task {expected}"),
            ));
        }
    }
    Mapping::from_indices(&assignments.iter().map(|&(_, u)| u).collect::<Vec<_>>(), m)
}

/// Finalises an application while honouring the declared number of types even
/// when the highest types are unused.
fn build_with_declared_types(builder: ApplicationBuilder, declared: usize) -> Result<Application> {
    let app = builder.build()?;
    if app.type_count() > declared {
        return Err(ModelError::UnknownType {
            ty: app.type_count() - 1,
            type_count: declared,
        });
    }
    Ok(app)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instance() -> Instance {
        let app = Application::from_successors(&[0, 1, 0], &[Some(1), Some(2), None]).unwrap();
        let platform =
            Platform::from_type_times(2, vec![vec![100.0, 200.0], vec![300.0, 150.0]]).unwrap();
        let failures =
            FailureModel::from_matrix(vec![vec![0.01, 0.02], vec![0.03, 0.04], vec![0.0, 0.05]], 2)
                .unwrap();
        Instance::new(app, platform, failures).unwrap()
    }

    #[test]
    fn instance_round_trip() {
        let original = sample_instance();
        let text = instance_to_text(&original);
        let parsed = instance_from_text(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn mapping_round_trip() {
        let mapping = Mapping::from_indices(&[0, 1, 0], 2).unwrap();
        let text = mapping_to_text(&mapping);
        let parsed = mapping_from_text(&text).unwrap();
        assert_eq!(parsed, mapping);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let original = sample_instance();
        let mut text = String::from("\n# leading comment\n\n");
        text.push_str(&instance_to_text(&original));
        text.push_str("\n# trailing comment\n");
        assert_eq!(instance_from_text(&text).unwrap(), original);
    }

    #[test]
    fn missing_entries_are_rejected() {
        let original = sample_instance();
        let text = instance_to_text(&original);
        // Drop the last failure line.
        let truncated: Vec<&str> = text.lines().take(text.lines().count() - 1).collect();
        assert!(instance_from_text(&truncated.join("\n")).is_err());
        // Drop the headers entirely.
        assert!(instance_from_text("task 0 0\n").is_err());
        assert!(instance_from_text("").is_err());
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        let err = instance_from_text("tasks two\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let err = instance_from_text("tasks 1\nmachines 1\ntypes 1\nbogus 1 2\n").unwrap_err();
        assert!(err.to_string().contains("bogus"));
        let err = mapping_from_text("machines 2\nassign 1 0\n").unwrap_err();
        assert!(err.to_string().contains("task 0"));
    }

    #[test]
    fn oversized_header_counts_are_rejected_without_allocating() {
        for header in ["tasks", "machines", "types"] {
            let err = instance_from_text(&format!("{header} 18446744073709551615\n")).unwrap_err();
            assert!(err.to_string().contains("exceeds"), "{header}: {err}");
        }
        // Small enough to allocate, far too large for its one-line payload.
        let err = instance_from_text("tasks 99999999").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        // Counts that pass one by one but whose table cannot fit.
        let text = "tasks 40\nmachines 40\ntypes 1\nfailure 0 0 0.1\n";
        let err = instance_from_text(text).unwrap_err();
        assert!(err.to_string().contains("tasks × machines"), "{err}");
        let err = instance_from_text("tasks 1\ntasks 1\n").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        // A header exactly at the byte length is only rejected later, as
        // an incomplete instance.
        assert!(instance_from_text("tasks 8\n").is_err());
    }

    #[test]
    fn out_of_range_entries_are_rejected() {
        assert!(instance_from_text("tasks 1\nmachines 1\ntypes 1\ntask 5 0\n").is_err());
        assert!(
            instance_from_text("tasks 1\nmachines 1\ntypes 1\ntask 0 0\ntime 3 0 10\n").is_err()
        );
        assert!(instance_from_text(
            "tasks 1\nmachines 1\ntypes 1\ntask 0 0\ntime 0 0 10\nfailure 0 4 0.1\n"
        )
        .is_err());
        // Task declared with a type beyond the declared count.
        assert!(instance_from_text(
            "tasks 1\nmachines 1\ntypes 1\ntask 0 3\ntime 0 0 10\nfailure 0 0 0.0\n"
        )
        .is_err());
    }
}
