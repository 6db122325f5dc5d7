//! The traced run: per-layer metrics.
//!
//! The untraced TCP run of the same inputs supplies the client round trip
//! and the served process's own latency histograms. The workload's set-up
//! and op cycle are then replayed in-process: each op goes through
//! `Engine::dispatch` on a fresh durable engine, and — separately — through
//! the public calls of each layer the engine would make, each wrapped in a
//! span (name, start, end, parent, op id). Spans stay in memory and are
//! written out as JSON lines at the end; a layer's self time is its span
//! minus its child spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mf_core::prelude::{EvalCounters, IncrementalEvaluator, Instance, MachineId, Mapping, TaskId};
use mf_core::textio;
use mf_exact::{branch_and_bound_seeded, lp_root_bound, BnbConfig};
use mf_experiments::portfolio::{run_portfolio, PortfolioConfig};
use mf_experiments::runner::BatchRunner;
use mf_heuristics::search::{
    polish_with_telemetry, LnsConfig, SearchTelemetry, SubtreeMoveLns, SWEEP_CACHE_MIN_MACHINES,
};
use mf_heuristics::{paper_heuristic, H4wFastestMachine, Heuristic};
use mf_server::engine::SESSION_SNAPSHOT_CAP;
use mf_server::{
    response_to_text, Engine, Journal, JournalRecord, Probe, ProtoReader, ProtoVersion, Request,
    Response, Session, EVALUATE_CACHE_CAP,
};

use crate::report::{percentile, Metrics};
use crate::server::ServerLatency;
use crate::verify::anytime_config;
use crate::workload::{Inputs, OpKind, Site, Workload, WHATIF_BLOCK};
use crate::{Outcome, TcpRun};

/// Search strategies polished on every `plan` instance.
const STRATEGIES: [&str; 4] = ["SD", "TS", "H6", "LNS"];

/// Commands whose dispatch time and server-side latency are reported.
const COMMANDS: [&str; 5] = ["batch", "evaluate", "whatif", "load", "solve"];

/// Span name of a dispatched command.
fn dispatch_span(keyword: &str) -> &'static str {
    match keyword {
        "evaluate" => "engine.dispatch.evaluate",
        "whatif" => "engine.dispatch.whatif",
        "load" => "engine.dispatch.load",
        "solve" => "engine.dispatch.solve",
        _ => "engine.dispatch.other",
    }
}

/// One recorded span. Op 0 is the set-up; cycle position `j` is op `j + 1`.
struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span recorder.
struct Spans {
    clock: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            clock: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, op: usize) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in stack order");
    }

    /// Runs `work` inside a span.
    fn time<T>(&mut self, name: &'static str, op: usize, work: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let value = work();
        self.end(id);
        value
    }

    /// Each span's duration minus the durations of its direct children.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Self times grouped by span name, restricted to ops `ops`.
    fn by_name(&self, ops: impl Fn(usize) -> bool) -> BTreeMap<&'static str, Vec<u64>> {
        let mut grouped: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            if ops(span.op) {
                grouped.entry(span.name).or_default().push(own);
            }
        }
        grouped
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}\n",
                span.name, span.op, span.start_ns, span.end_ns
            ));
        }
        std::fs::write(path, text)
    }
}

/// Counters the replay accumulates beside the spans.
#[derive(Default)]
struct Tally {
    ops: u64,
    bytes: u64,
    journal_records: u64,
    journal_bytes: u64,
    evaluations: u64,
    evaluator_calls: u64,
    sweep_probes: u64,
    sweep_skips: u64,
    portfolio_rounds: u64,
    portfolio_cells: u64,
    portfolio_runs: u64,
    anytime_runs: u64,
    anytime_steps: u64,
    bnb_nodes: u64,
    lp_solves: u64,
    lp_reuses: u64,
    anytime_mismatches: u64,
    /// Engine counter deltas over the cycle's dispatches.
    cache_hits: u64,
    cache_misses: u64,
    snapshot_evictions: u64,
    dispatch_ns_per_op: Vec<u64>,
}

/// The in-process side of the replay.
struct Replay<'a> {
    inputs: &'a Inputs,
    engine: Engine,
    session: Session,
    journal: Journal,
    runner: BatchRunner,
    spans: Spans,
    tally: Tally,
}

fn engine_counter(engine: &Engine, key: &str) -> u64 {
    engine
        .stats_for(ProtoVersion::V3)
        .into_iter()
        .find(|(k, _)| k == key)
        .map_or(0, |(_, v)| v)
}

fn parse(text: &[u8]) -> Request {
    ProtoReader::new(text)
        .read_request()
        .expect("generated requests parse")
        .expect("generated requests are not empty")
}

impl Replay<'_> {
    /// Dispatches `request` on the engine (items of a batch one by one),
    /// counting the cache and snapshot counters it moves.
    fn dispatch(&mut self, op: usize, request: Request) -> (Response, u64) {
        let hits = self.engine.cache().hits();
        let misses = self.engine.cache().misses();
        let evictions = engine_counter(&self.engine, "snapshot-evictions");
        let batched = matches!(request, Request::Batch(_));
        let items = match request {
            Request::Batch(items) => items,
            single => vec![single],
        };
        let mut answers = Vec::with_capacity(items.len());
        let mut busy = 0;
        for item in items {
            let name = dispatch_span(item.keyword());
            let id = self.spans.begin(name, op);
            let answer = self.engine.dispatch(&mut self.session, item);
            self.spans.end(id);
            let span = &self.spans.spans[id];
            busy += span.end_ns - span.start_ns;
            answers.push(answer);
        }
        if op > 0 {
            let t = &mut self.tally;
            t.cache_hits += self.engine.cache().hits() - hits;
            t.cache_misses += self.engine.cache().misses() - misses;
            t.snapshot_evictions += engine_counter(&self.engine, "snapshot-evictions") - evictions;
        }
        let response = if batched {
            Response::Batch(answers)
        } else {
            answers.pop().expect("one answer")
        };
        (response, busy)
    }

    fn journal_load(&mut self, op: usize, site: &Site) {
        let generation = self.tally.journal_records;
        let record = JournalRecord::Load {
            name: site.name.clone(),
            generation,
            payload: site.payload.clone(),
        };
        self.tally.journal_bytes += record.to_text().map_or(0, |t| t.len() as u64);
        self.tally.journal_records += 1;
        let journal = &self.journal;
        self.spans.time("journal.append", op, || {
            journal
                .record_load(&site.name, generation, &site.payload)
                .expect("side journal appends")
        });
    }

    /// Set-up (op 0): every site loaded and first-evaluated through the
    /// engine, and through the layers a load and a first evaluate use.
    fn set_up(&mut self) {
        let sites = &self.inputs.sites;
        for site in sites {
            self.spans.time("textio.instance_parse", 0, || {
                textio::instance_from_text(&site.payload.join("\n")).expect("payload parses")
            });
            self.journal_load(0, site);
            let load = Request::Load {
                name: site.name.clone(),
                payload: site.payload.clone(),
            };
            self.dispatch(0, load);
        }
        for site in sites {
            let mapping = self.spans.time("textio.mapping_parse", 0, || {
                textio::mapping_from_text(&site.incumbent_payload.join("\n"))
                    .expect("payload parses")
            });
            let evaluator = self.spans.time("incremental.build", 0, || {
                IncrementalEvaluator::new(&site.instance, &mapping).expect("incumbent fits")
            });
            self.spans
                .time("incremental.snapshot", 0, || evaluator.into_snapshot());
            let evaluate = Request::Evaluate {
                name: site.name.clone(),
                payload: site.incumbent_payload.clone(),
            };
            self.dispatch(0, evaluate);
        }
    }

    /// Replays cycle position `position` as op `position + 1`.
    fn op(&mut self, position: usize) {
        let inputs = self.inputs;
        let op = &inputs.cycle[position];
        let id = position + 1;
        let root = self.spans.begin("op", id);
        let request = self.spans.time("proto.parse", id, || parse(&op.text));
        let (response, busy) = self.dispatch(id, request);
        let text = self.spans.time("proto.write", id, || {
            response_to_text(&response).expect("responses encode")
        });
        self.tally.ops += 1;
        self.tally.bytes += (op.text.len() + text.len()) as u64;
        self.tally.dispatch_ns_per_op.push(busy);
        let site = &inputs.sites[op.site()];
        match &op.kind {
            OpKind::Read { probes, .. } => self.read_layers(id, site, probes),
            OpKind::Write { .. } => self.write_layers(id, site),
            OpKind::Portfolio { seed, .. } => self.plan_layers(id, site, *seed),
            OpKind::Anytime { seed, .. } => self.prove_layers(id, site, *seed, &response),
        }
        self.spans.end(root);
    }

    fn read_layers(&mut self, op: usize, site: &Site, probes: &[Probe]) {
        let engine = &self.engine;
        let spans = &mut self.spans;
        let stored = spans
            .time("store.get", op, || engine.store().get(&site.name))
            .expect("site is loaded");
        let mapping = spans.time("textio.mapping_parse", op, || {
            textio::mapping_from_text(&site.incumbent_payload.join("\n")).expect("payload parses")
        });
        let fingerprint = mapping.fingerprint();
        let cached = spans.time("cache.lookup", op, || {
            engine
                .cache()
                .lookup(&site.name, stored.generation, fingerprint)
        });
        let mut evaluator = match cached {
            Some(hit) => spans.time("incremental.resume", op, || {
                IncrementalEvaluator::resume(&stored.instance, hit.snapshot).expect("resumes")
            }),
            None => spans.time("incremental.build", op, || {
                IncrementalEvaluator::new(&stored.instance, &mapping).expect("incumbent fits")
            }),
        };
        let before = evaluator.counters();
        for &probe in probes {
            spans
                .time("incremental.probe", op, || match probe {
                    Probe::Move { task, machine } => {
                        evaluator.evaluate_move(TaskId(task), MachineId(machine))
                    }
                    Probe::Swap { a, b } => evaluator.evaluate_swap(TaskId(a), TaskId(b)),
                })
                .expect("probes are in range");
        }
        self.tally.evaluations += calls(evaluator.counters(), before);
        spans.time("incremental.snapshot", op, || evaluator.into_snapshot());
    }

    fn write_layers(&mut self, op: usize, site: &Site) {
        let instance = self.spans.time("textio.instance_parse", op, || {
            textio::instance_from_text(&site.payload.join("\n")).expect("payload parses")
        });
        self.journal_load(op, site);
        let evaluator = self.spans.time("incremental.build", op, || {
            IncrementalEvaluator::new(&instance, &site.incumbent).expect("incumbent fits")
        });
        self.spans
            .time("incremental.snapshot", op, || evaluator.into_snapshot());
    }

    fn plan_layers(&mut self, op: usize, site: &Site, seed: u64) {
        let config = PortfolioConfig {
            base_seed: seed,
            ..PortfolioConfig::default()
        };
        let runner = &self.runner;
        let outcome = self.spans.time("portfolio.run", op, || {
            run_portfolio(&site.instance, &config, runner)
        });
        self.tally.portfolio_runs += 1;
        self.tally.portfolio_rounds += outcome.rounds as u64;
        self.tally.portfolio_cells += outcome.cells.len() as u64;
        for name in STRATEGIES {
            let heuristic = paper_heuristic(name, seed).expect("registry name");
            let span = match name {
                "SD" => "search.polish.SD",
                "TS" => "search.polish.TS",
                "H6" => "search.polish.H6",
                _ => "search.polish.LNS",
            };
            let (_, telemetry) = self
                .spans
                .time(span, op, || heuristic.map_traced(&site.instance))
                .expect("plan instances are feasible");
            self.search_telemetry(telemetry);
        }
    }

    fn search_telemetry(&mut self, telemetry: Option<SearchTelemetry>) {
        if let Some(t) = telemetry {
            self.tally.evaluator_calls += calls(t.eval, EvalCounters::default());
            self.tally.sweep_probes += t.sweep.probes;
            self.tally.sweep_skips += t.sweep.skips;
        }
    }

    /// `solve_anytime`'s three phases as separate calls; the result must
    /// reproduce the engine's answer, else only the dispatch total counts.
    fn prove_layers(&mut self, op: usize, site: &Site, seed: u64, response: &Response) {
        let config = anytime_config(seed);
        let instance = &site.instance;
        let seed_span = self.spans.begin("anytime.seed", op);
        let mut mapping = H4wFastestMachine.map(instance).expect("H4w maps");
        let mut incumbent = period_of(instance, &mapping);
        let root = self
            .spans
            .time("exact.root_bound", op, || root_lower_bound(instance));
        self.spans.end(seed_span);
        let bound = root.min(incumbent);
        let mut proven = incumbent <= bound * (1.0 + config.tolerance);
        let mut steps = 0;
        if !proven {
            let slice = (config.step_budget as f64 * config.heuristic_fraction).floor() as usize;
            let lns = SubtreeMoveLns::new(LnsConfig {
                seed: config.seed,
                ..LnsConfig::default()
            });
            let (polished, telemetry) = self
                .spans
                .time("anytime.lns", op, || {
                    polish_with_telemetry(instance, &mapping, &lns, slice)
                })
                .expect("LNS polishes");
            steps += telemetry.map_or(0, |t| calls(t.eval, EvalCounters::default()));
            self.search_telemetry(telemetry);
            let polished_period = period_of(instance, &polished);
            if polished_period < incumbent {
                mapping = polished;
                incumbent = polished_period;
                proven = incumbent <= bound * (1.0 + config.tolerance);
            }
        }
        let remaining = config.step_budget.saturating_sub(steps);
        if !proven && remaining > 0 {
            let bnb = BnbConfig {
                max_nodes: remaining,
                tolerance: config.tolerance,
                lp_bounds: config.lp_bounds,
                ..BnbConfig::default()
            };
            let outcome = self
                .spans
                .time("anytime.bnb", op, || {
                    branch_and_bound_seeded(instance, bnb, &mapping)
                })
                .expect("branch and bound runs");
            steps += outcome.nodes;
            let t = &mut self.tally;
            t.bnb_nodes += outcome.nodes;
            t.lp_solves += outcome.lp_solves;
            t.lp_reuses += outcome.lp_reuses;
            if outcome.period.value() < incumbent {
                incumbent = outcome.period.value();
            }
            proven = outcome.proven_optimal;
        }
        self.tally.anytime_runs += 1;
        self.tally.anytime_steps += steps;
        let reproduced = match response {
            Response::SolvedAnytime {
                period, reports, ..
            } => {
                period.to_bits() == incumbent.to_bits()
                    && reports
                        .last()
                        .is_some_and(|r| r.proven == proven && (!proven || r.steps == steps))
            }
            _ => false,
        };
        if !reproduced {
            self.tally.anytime_mismatches += 1;
        }
    }
}

fn calls(after: EvalCounters, before: EvalCounters) -> u64 {
    let d = after.since(&before);
    d.dense_what_ifs + d.exact_what_ifs
}

fn period_of(instance: &Instance, mapping: &Mapping) -> f64 {
    instance.period(mapping).expect("mapping fits").value()
}

/// The anytime solver's root bound: the LP relaxation when the simplex
/// converges, never below the packing bound.
fn root_lower_bound(instance: &Instance) -> f64 {
    let lower_demand = instance.demand_lower_bounds().expect("demand bounds");
    let app = instance.application();
    let (mut total, mut largest) = (0.0_f64, 0.0_f64);
    for task in app.tasks() {
        let d = app
            .successor(task.id)
            .map_or(1.0, |s| lower_demand[s.index()]);
        let best = instance
            .platform()
            .machines()
            .map(|u| instance.effective_time(task.id, u))
            .fold(f64::INFINITY, f64::min);
        total += d * best;
        largest = largest.max(d * best);
    }
    let packing = (total / instance.machine_count() as f64).max(largest);
    lp_root_bound(instance).map_or(packing, |lp| lp.max(packing))
}

/// Runs the traced replay of `inputs`. The client round trip and the
/// served process's own latencies come from the untraced TCP run `tcp` of
/// the same inputs.
pub fn run(
    out: &Path,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    tcp: &TcpRun,
) -> Result<Outcome, String> {
    let workload = inputs.workload;
    let pid = std::process::id();

    // In-process replay.
    let engine_dir = out.join(format!("trace-engine-{pid}"));
    let journal_dir = out.join(format!("trace-journal-{pid}"));
    for dir in [&engine_dir, &journal_dir] {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let engine = Engine::open(2, &engine_dir).map_err(|e| format!("engine: {e}"))?;
    let mut session = engine.begin_session();
    engine.dispatch(&mut session, Request::Hello { requested: 3 });
    let mut replay = Replay {
        inputs,
        engine,
        session,
        journal: Journal::open(&journal_dir).map_err(|e| format!("journal: {e}"))?,
        runner: BatchRunner::new(2),
        spans: Spans::new(),
        tally: Tally::default(),
    };
    replay.set_up();
    let start = Instant::now();
    // Whole `whatif` blocks, so the cache hit ratio is exactly the read
    // share; solve workloads stop once the time is spent.
    for position in 0..inputs.cycle.len() {
        let block_done = position % WHATIF_BLOCK == 0;
        if block_done && position > 0 && start.elapsed().as_secs_f64() >= seconds / 2.0 {
            break;
        }
        replay.op(position);
    }
    let spans_path = out.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    replay
        .spans
        .write_jsonl(&spans_path)
        .map_err(|e| format!("writing spans: {e}"))?;
    drop(replay.engine);
    drop(replay.journal);
    for dir in [&engine_dir, &journal_dir] {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }

    let replayed = replay.tally.ops as usize;
    let client_p50 = percentile(&tcp.timed.latency_ns[..replayed], 50.0);
    let metrics = layer_metrics(&replay.spans, &replay.tally, client_p50, &tcp.server_side);
    let (failures, mut notes) = coverage(inputs, &metrics, &replay.tally);
    notes.insert(
        0,
        format!(
            "replayed {replayed} ops in-process; {} spans written to {}",
            replay.spans.spans.len(),
            spans_path.display()
        ),
    );
    let verdict = &tcp.verdict;
    Ok(Outcome {
        correct: verdict.failed == 0 && failures == 0,
        attempted: verdict.passed + verdict.failed,
        failed: verdict.failed,
        metrics,
        notes,
    })
}

fn layer_metrics(
    spans: &Spans,
    tally: &Tally,
    client_p50_ns: u64,
    server_side: &[(String, ServerLatency)],
) -> Metrics {
    let all = spans.by_name(|_| true);
    let cycle = spans.by_name(|op| op > 0);
    let mean = |group: &BTreeMap<&str, Vec<u64>>, name: &str| {
        group
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / v.len() as f64)
    };
    let total = |name: &str| all.get(name).map_or(0, |v| v.iter().sum::<u64>()) as f64;
    let per = |count: u64, of: u64| count as f64 / of.max(1) as f64;
    let ops = tally.ops;
    let mut m = Metrics::default();

    m.push("proto.parse_ns_per_req", mean(&cycle, "proto.parse"), "ns");
    m.push("proto.write_ns_per_resp", mean(&cycle, "proto.write"), "ns");
    m.push("proto.bytes_per_op", per(tally.bytes, ops), "bytes");

    for command in ["evaluate", "whatif", "load", "solve"] {
        let p50 = all
            .get(dispatch_span(command))
            .map_or(0, |v| percentile(v, 50.0));
        m.push(
            format!("engine.dispatch_us_p50.{command}"),
            p50 as f64 / 1e3,
            "us",
        );
    }
    let dispatch_p50 = percentile(&tally.dispatch_ns_per_op, 50.0) as f64;
    let transport = if client_p50_ns == 0 {
        0.0
    } else {
        (1.0 - dispatch_p50 / client_p50_ns as f64).max(0.0)
    };
    m.push("engine.transport_share", transport, "ratio");

    m.push("store.get_ns", mean(&cycle, "store.get"), "ns");
    m.push("cache.lookup_ns", mean(&cycle, "cache.lookup"), "ns");
    m.push(
        "cache.hit_ratio",
        per(tally.cache_hits, tally.cache_hits + tally.cache_misses),
        "ratio",
    );
    m.push(
        "cache.snapshot_evictions_per_op",
        per(tally.snapshot_evictions, ops),
        "count",
    );

    m.push(
        "journal.append_us",
        mean(&all, "journal.append") / 1e3,
        "us",
    );
    m.push(
        "journal.bytes_per_record",
        per(tally.journal_bytes, tally.journal_records),
        "bytes",
    );
    m.push(
        "textio.instance_parse_us",
        mean(&all, "textio.instance_parse") / 1e3,
        "us",
    );
    m.push(
        "textio.mapping_parse_us",
        mean(&all, "textio.mapping_parse") / 1e3,
        "us",
    );

    m.push(
        "incremental.build_us",
        mean(&all, "incremental.build") / 1e3,
        "us",
    );
    m.push(
        "incremental.resume_ns",
        mean(&all, "incremental.resume"),
        "ns",
    );
    m.push(
        "incremental.probe_ns",
        mean(&all, "incremental.probe"),
        "ns",
    );
    m.push(
        "incremental.snapshot_ns",
        mean(&all, "incremental.snapshot"),
        "ns",
    );
    m.push(
        "incremental.evals_per_op",
        per(tally.evaluations, ops),
        "count",
    );

    let mut polish_ns = 0.0;
    for name in STRATEGIES {
        let span = format!("search.polish.{name}");
        let value = mean(&all, &span);
        polish_ns += total(&span);
        m.push(format!("search.polish_us.{name}"), value / 1e3, "us");
    }
    m.push(
        "search.evaluator_calls",
        per(tally.evaluator_calls, ops),
        "count",
    );
    m.push("search.sweep_probes", per(tally.sweep_probes, ops), "count");
    m.push(
        "search.sweep_skip_ratio",
        per(tally.sweep_skips, tally.sweep_probes),
        "ratio",
    );
    let ns_per_probe = if tally.evaluator_calls == 0 {
        0.0
    } else {
        polish_ns / tally.evaluator_calls as f64
    };
    m.push("search.ns_per_probe", ns_per_probe, "ns");

    m.push("portfolio.run_us", mean(&all, "portfolio.run") / 1e3, "us");
    m.push(
        "portfolio.rounds",
        per(tally.portfolio_rounds, tally.portfolio_runs),
        "count",
    );
    m.push(
        "portfolio.cells",
        per(tally.portfolio_cells, tally.portfolio_runs),
        "count",
    );

    // A decomposition that does not reproduce the engine's answer reports
    // only the single call's total (the dispatch).
    let decomposed = tally.anytime_mismatches == 0;
    let phase = |name: &str| {
        if decomposed {
            mean(&all, name) / 1e3
        } else {
            0.0
        }
    };
    m.push(
        "anytime.total_us",
        if tally.anytime_runs == 0 {
            0.0
        } else {
            mean(&cycle, "engine.dispatch.solve") / 1e3
        },
        "us",
    );
    m.push("anytime.seed_us", phase("anytime.seed"), "us");
    m.push("anytime.lns_us", phase("anytime.lns"), "us");
    m.push("anytime.bnb_us", phase("anytime.bnb"), "us");
    m.push(
        "anytime.steps",
        per(tally.anytime_steps, tally.anytime_runs),
        "count",
    );
    m.push(
        "exact.nodes",
        per(tally.bnb_nodes, tally.anytime_runs),
        "count",
    );
    let ns_per_node = if tally.bnb_nodes == 0 || !decomposed {
        0.0
    } else {
        total("anytime.bnb") / tally.bnb_nodes as f64
    };
    m.push("exact.ns_per_node", ns_per_node, "ns");
    m.push("exact.root_bound_us", phase("exact.root_bound"), "us");
    m.push(
        "lp.solves",
        per(tally.lp_solves, tally.anytime_runs),
        "count",
    );
    m.push(
        "lp.reuse_ratio",
        per(tally.lp_reuses, tally.lp_solves + tally.lp_reuses),
        "ratio",
    );

    for command in COMMANDS {
        let latency = server_side
            .iter()
            .find(|(name, _)| name == command)
            .map(|(_, l)| *l)
            .unwrap_or_default();
        m.push(
            format!("obs.server_p50_us.{command}"),
            latency.p50_ns as f64 / 1e3,
            "us",
        );
        m.push(
            format!("obs.server_p99_us.{command}"),
            latency.p99_ns as f64 / 1e3,
            "us",
        );
    }
    m.push("trace.replayed_ops", ops as f64, "count");
    m
}

/// Mechanism-coverage assertions, with limits read from the public
/// constants. Returns the failure count and one note per assertion.
fn coverage(inputs: &Inputs, m: &Metrics, tally: &Tally) -> (usize, Vec<String>) {
    let get = |name: &str| m.get(name).unwrap_or(f64::NAN);
    let own = &inputs.sites[inputs.catalog_len..];
    let mut checks: Vec<(String, bool)> = vec![
        (
            format!(
                "catalog ({}) exceeds SESSION_SNAPSHOT_CAP ({SESSION_SNAPSHOT_CAP})",
                inputs.catalog_len
            ),
            inputs.catalog_len > SESSION_SNAPSHOT_CAP,
        ),
        (
            format!(
                "catalog ({}) fits EVALUATE_CACHE_CAP ({EVALUATE_CACHE_CAP})",
                inputs.catalog_len
            ),
            inputs.catalog_len < EVALUATE_CACHE_CAP,
        ),
    ];
    match inputs.workload {
        Workload::Whatif => {
            let reads = (WHATIF_BLOCK - 1) as f64 / WHATIF_BLOCK as f64;
            checks.push((
                format!(
                    "cache.hit_ratio {} == read share {reads}",
                    get("cache.hit_ratio")
                ),
                get("cache.hit_ratio") == reads,
            ));
            checks.push((
                format!(
                    "cache.snapshot_evictions_per_op {} > 0",
                    get("cache.snapshot_evictions_per_op")
                ),
                get("cache.snapshot_evictions_per_op") > 0.0,
            ));
        }
        Workload::Plan => {
            checks.push((
                format!("every plan instance has m >= SWEEP_CACHE_MIN_MACHINES ({SWEEP_CACHE_MIN_MACHINES})"),
                own.iter()
                    .all(|s| s.instance.machine_count() >= SWEEP_CACHE_MIN_MACHINES),
            ));
            checks.push((
                format!(
                    "search.sweep_skip_ratio {} > 0",
                    get("search.sweep_skip_ratio")
                ),
                get("search.sweep_skip_ratio") > 0.0,
            ));
        }
        Workload::Prove => {
            checks.push((
                format!("lp.solves {} > 0", get("lp.solves")),
                get("lp.solves") > 0.0,
            ));
            checks.push((
                format!(
                    "anytime decomposition reproduces the engine ({} mismatches)",
                    tally.anytime_mismatches
                ),
                tally.anytime_mismatches == 0,
            ));
        }
    }
    if inputs.workload != Workload::Plan {
        checks.push((
            format!("no instance reaches SWEEP_CACHE_MIN_MACHINES ({SWEEP_CACHE_MIN_MACHINES})"),
            inputs
                .sites
                .iter()
                .all(|s| s.instance.machine_count() < SWEEP_CACHE_MIN_MACHINES),
        ));
        checks.push((
            format!("search.sweep_probes {} == 0", get("search.sweep_probes")),
            get("search.sweep_probes") == 0.0,
        ));
    }
    let failures = checks.iter().filter(|(_, ok)| !ok).count();
    let notes = checks
        .into_iter()
        .map(|(what, ok)| format!("coverage {}: {what}", if ok { "ok  " } else { "FAIL" }))
        .collect();
    (failures, notes)
}
