//! `servebench` — the serving benchmark of `microfactory serve`.
//!
//! ```text
//! servebench --server BIN --workload whatif|plan|prove --seed N --seconds S --trace 0|1
//! servebench --server BIN --self-test
//! ```
//!
//! `--trace 0` spawns the release server, sets it up several times, replays
//! the workload's op cycle closed-loop over one TCP-loopback connection for
//! `S` seconds, verifies every kept response after the clock stops, and
//! prints the end-to-end metrics. `--trace 1` makes the same TCP run, then
//! replays the same ops in-process with spans around each layer's public
//! calls and prints the per-layer metrics. The last stdout line is the JSON result. Run it
//! through `servebench/run.sh`, which builds both programs first.

mod report;
mod server;
mod trace;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{median, percentile, result_line, Metrics};
use server::{run_timed, server_latencies, set_up, CpuSet, Ready, ServerLatency, Timed};
use verify::Verdict;
use workload::{Inputs, Scale, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Passes of the host calibration; the median is reported.
const CALIBRATION_PASSES: usize = 15;

/// Where runs write their result records, spans and server data dirs.
const OUT_DIR: &str = "servebench/out";

struct Args {
    server: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        server: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} `{value}` (expected {what})");
        match flag.as_str() {
            "--server" => args.server = PathBuf::from(&value),
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad("whatif, plan or prove"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.server.is_file() {
        return Err(format!(
            "--server `{}` is not a server binary",
            args.server.display()
        ));
    }
    if args.workload.is_none() && !args.self_test {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("servebench: {error}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create output dir: {e}"))?;
    if args.self_test {
        return self_test(&args);
    }
    let workload = args.workload.expect("checked by parse_args");
    let fingerprint = report::fingerprint();
    let inputs = Inputs::generate(workload, args.seed, Scale::full());
    let calibration_before = host_calibration_ms();
    let tcp = measure(&args, &inputs)?;
    let calibration_after = host_calibration_ms();
    let mut outcome = if args.trace {
        trace::run(Path::new(OUT_DIR), &inputs, args.seed, args.seconds, &tcp)?
    } else {
        end_to_end(&inputs, &tcp)
    };
    outcome.notes.push(match tcp.cpu {
        Some(cpu) => format!("client and server pinned to CPU {cpu}"),
        None => "client and server unpinned".to_string(),
    });
    outcome.notes.push(format!(
        "host calibration (ms per pass, median of {CALIBRATION_PASSES}): {calibration_before:.3} before the run, {calibration_after:.3} after"
    ));
    outcome.notes.extend(cross_check(&inputs, &tcp));
    for line in outcome.metrics.lines() {
        println!("{line}");
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    println!("host {fingerprint}");
    let result = result_line(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    let record = Path::new(OUT_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        &record,
        format!(
            "{{\"host\": {fingerprint}, \"calibration_ms\": [{calibration_before}, {calibration_after}], \"result\": {result}}}\n"
        ),
    )
    .map_err(|e| format!("cannot write {}: {e}", record.display()))?;
    println!("{result}");
    Ok(())
}

/// What one run reports.
pub struct Outcome {
    /// Whether every op verified (and, traced, every coverage assertion held).
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Metrics,
    /// Extra report lines (cross-checks, failures).
    pub notes: Vec<String>,
}

/// The host's speed now: the median time of one pass of a fixed loop of
/// integer mixing and scattered writes to a 4 MiB table, in ms. It uses no
/// code of the program, so a change to the program leaves it alone, while
/// a host that slows down (CPU contention that steal time does not show)
/// slows it too. Reported beside the metrics, never as one.
fn host_calibration_ms() -> f64 {
    let passes: Vec<f64> = (0..CALIBRATION_PASSES)
        .map(|_| {
            let start = std::time::Instant::now();
            let mut table = vec![0u64; 1 << 19];
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for i in 0..1u64 << 22 {
                x ^= x >> 31;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(i);
                let slot = (x >> 40) as usize & (table.len() - 1);
                table[slot] = table[slot].wrapping_add(x);
            }
            std::hint::black_box(&table);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&passes)
}

fn data_dir(tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("data-{}-{tag}", std::process::id()))
}

/// Sets up `SETUPS` fresh servers, keeping the last one running.
fn set_up_repeatedly(args: &Args, inputs: &Inputs) -> Result<(Ready, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let ready = set_up(&args.server, &data_dir(&k.to_string()), inputs)
            .map_err(|e| format!("set-up: {e}"))?;
        setups.push(ready.setup.as_secs_f64());
        if k + 1 == SETUPS {
            return Ok((ready, setups));
        }
        ready
            .server
            .stop(ready.conn)
            .map_err(|e| format!("stopping a set-up server: {e}"))?;
    }
    unreachable!("SETUPS > 0")
}

/// One untraced TCP run: its set-ups, its timed phase and what it read
/// back from the served process afterwards.
pub struct TcpRun {
    /// Spawn-to-ready time of each set-up, in s.
    pub setups: Vec<f64>,
    /// The timed phase.
    pub timed: Timed,
    /// The served process's own per-command latencies (`status-export`).
    pub server_side: Vec<(String, ServerLatency)>,
    /// The served process's `VmHWM`, in MiB.
    pub rss_mib: f64,
    /// Verification of the timed phase's responses.
    pub verdict: Verdict,
    /// The CPU the client and the served process shared, if pinned.
    pub cpu: Option<usize>,
}

/// Sets up `SETUPS` servers, replays the op cycle on the last one for
/// `--seconds`, reads its telemetry back, stops it, and verifies. Where the
/// workload asks for it, everything before verification runs on one CPU.
fn measure(args: &Args, inputs: &Inputs) -> Result<TcpRun, String> {
    let all = CpuSet::current().map_err(|e| format!("reading the CPU set: {e}"))?;
    let cpu = if inputs.workload.shares_one_cpu() {
        let cpu = all.last().ok_or("empty CPU set")?;
        CpuSet::only(cpu)
            .apply()
            .map_err(|e| format!("pinning to CPU {cpu}: {e}"))?;
        Some(cpu)
    } else {
        None
    };
    let served = (|| {
        let (ready, setups) = set_up_repeatedly(args, inputs)?;
        let Ready {
            server, mut conn, ..
        } = ready;
        let timed =
            run_timed(&mut conn, inputs, args.seconds, 1).map_err(|e| format!("timed: {e}"))?;
        let server_side = server_latencies(&mut conn).map_err(|e| format!("status-export: {e}"))?;
        let rss_mib = server.peak_rss_mib().map_err(|e| format!("VmHWM: {e}"))?;
        server
            .stop(conn)
            .map_err(|e| format!("stopping the server: {e}"))?;
        Ok::<_, String>((setups, timed, server_side, rss_mib))
    })();
    // Verification (and a traced replay) may use every CPU again.
    all.apply()
        .map_err(|e| format!("restoring the CPU set: {e}"))?;
    let (setups, timed, server_side, rss_mib) = served?;
    let verdict = verify::verify(inputs, &timed.responses);
    Ok(TcpRun {
        setups,
        timed,
        server_side,
        rss_mib,
        verdict,
        cpu,
    })
}

/// The end-to-end metrics of a TCP run.
fn end_to_end(inputs: &Inputs, tcp: &TcpRun) -> Outcome {
    let TcpRun {
        setups,
        timed,
        verdict,
        ..
    } = tcp;
    let samples = timed.latency_ns.len();
    let tail = inputs.workload.tail_percentile();
    let mut metrics = Metrics::default();
    metrics.push_noted(
        "setup_s",
        median(setups),
        "s",
        format!("median of {SETUPS} set-ups"),
    );
    metrics.push_noted(
        "throughput_ops_s",
        verdict.passed as f64 / timed.elapsed.as_secs_f64(),
        "1/s",
        format!(
            "{} verified ops in {:.3} s",
            verdict.passed,
            timed.elapsed.as_secs_f64()
        ),
    );
    metrics.push("success_rate", verdict.success_rate(), "ratio");
    metrics.push_noted(
        "op_p50_us",
        micros(percentile(&timed.latency_ns, 50.0)),
        "us",
        format!("{samples} samples"),
    );
    metrics.push_noted(
        "op_tail_us",
        micros(percentile(&timed.latency_ns, tail)),
        "us",
        format!("p{tail} of {samples} samples"),
    );
    metrics.push("server_rss_mb", tcp.rss_mib, "MiB");
    metrics.push("period_ratio", verdict.period_ratio(), "ratio");
    metrics.push_noted(
        "proven_rate",
        verdict.proven_rate(),
        "ratio",
        format!("{} anytime solves", verdict.anytime),
    );
    Outcome {
        correct: verdict.failed == 0,
        attempted: verdict.passed + verdict.failed,
        failed: verdict.failed,
        metrics,
        notes: Vec::new(),
    }
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The server's own per-command p50/p99 beside the client's round trip,
/// and the first verification failure, if any.
fn cross_check(inputs: &Inputs, tcp: &TcpRun) -> Vec<String> {
    let latency = &tcp.timed.latency_ns;
    let tail = inputs.workload.tail_percentile();
    let mut notes = vec![format!(
        "cross-check (client round trip vs server dispatch, us): client p50 {:.1} p{tail} {:.1}",
        micros(percentile(latency, 50.0)),
        micros(percentile(latency, tail))
    )];
    for (command, server) in &tcp.server_side {
        notes.push(format!(
            "  server {command:<14} count {:>8}  p50 {:>12.1}  p99 {:>12.1}",
            server.count,
            micros(server.p50_ns),
            micros(server.p99_ns)
        ));
    }
    if let Some(failure) = &tcp.verdict.first_failure {
        notes.push(format!("verification failure: {failure}"));
    }
    notes
}

/// Rewrites one raw response, or `None` when it does not apply.
type Corruption = fn(&str) -> Option<String>;

/// Tiny runs of every workload: each must verify fully, and a corrupted
/// response must be caught.
fn self_test(args: &Args) -> Result<(), String> {
    for workload in Workload::ALL {
        let inputs = Inputs::generate(workload, 7, Scale::tiny());
        let ready = set_up(&args.server, &data_dir("self-test"), &inputs)
            .map_err(|e| format!("{}: set-up: {e}", workload.name()))?;
        let Ready {
            server, mut conn, ..
        } = ready;
        let timed = run_timed(&mut conn, &inputs, 0.0, 2).map_err(|e| format!("timed: {e}"))?;
        server
            .stop(conn)
            .map_err(|e| format!("stopping the server: {e}"))?;
        let verdict = verify::verify(&inputs, &timed.responses);
        if verdict.success_rate() != 1.0 {
            return Err(format!(
                "{}: success_rate {} on unmodified responses: {:?}",
                workload.name(),
                verdict.success_rate(),
                verdict.first_failure
            ));
        }
        let corruptions: [(&str, Corruption); 2] = [
            ("one flipped period bit", flip_period_bit),
            ("one wrong assign", wrong_assign),
        ];
        let cycle = inputs.cycle.len();
        for (what, corrupt) in corruptions {
            // Corrupt every answer to one cycle position alike, so repeats
            // still match their first answer and only the in-depth check of
            // that first answer can catch the corruption.
            for position in 0..cycle {
                if corrupt(&timed.responses[position]).is_none() {
                    continue;
                }
                let mut responses = timed.responses.clone();
                for response in responses.iter_mut().skip(position).step_by(cycle) {
                    *response = corrupt(response).expect("repeats are identical");
                }
                let rate = verify::verify(&inputs, &responses).success_rate();
                if rate >= 1.0 {
                    return Err(format!(
                        "{}: {what} in the answers to op {position} was not caught",
                        workload.name()
                    ));
                }
                println!(
                    "self-test {:<7} {what:<22} in the answers to op {position:>3}: success_rate {rate:.4}",
                    workload.name()
                );
            }
        }
        println!(
            "self-test {:<7} unmodified: success_rate 1 over {} ops",
            workload.name(),
            timed.responses.len()
        );
    }
    println!("self-test passed");
    Ok(())
}

/// Flips the lowest mantissa bit of the first period in a response.
fn flip_period_bit(raw: &str) -> Option<String> {
    let mut lines: Vec<String> = raw.lines().map(str::to_string).collect();
    for line in &mut lines {
        let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
        let index = match tokens.get(1).map(String::as_str) {
            Some("evaluate") if tokens[0] == "ok" => 2,
            Some("solve" | "solve-anytime") if tokens[0] == "ok" => 3,
            _ => continue,
        };
        let period: f64 = tokens.get(index)?.parse().ok()?;
        tokens[index] = f64::from_bits(period.to_bits() ^ 1).to_string();
        *line = tokens.join(" ");
        return Some(lines.join("\n") + "\n");
    }
    None
}

/// Moves the first `assign`ed task to another machine.
fn wrong_assign(raw: &str) -> Option<String> {
    let mut lines: Vec<String> = raw.lines().map(str::to_string).collect();
    let line = lines.iter_mut().find(|l| l.starts_with("assign "))?;
    let mut tokens: Vec<&str> = line.split(' ').collect();
    let machine: usize = tokens.get(2)?.parse().ok()?;
    let moved = (machine ^ 1).to_string();
    tokens[2] = &moved;
    *line = tokens.join(" ");
    Some(lines.join("\n") + "\n")
}
