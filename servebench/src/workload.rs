//! Workload inputs: the site catalog, each workload's own instances, and the
//! op cycle replayed against them — all a pure function of the seed.
//!
//! Every workload's set-up loads the same catalog (64 instances at full
//! scale, half chains and half in-forests, n≈150, m=20) and then its own
//! instances. The timed phase replays one fixed op cycle, whole cycles at a
//! time, so every run sends the same multiset of requests in the same order.

use mf_core::prelude::{Instance, Mapping};
use mf_core::seed::splitmix64;
use mf_core::textio;
use mf_heuristics::{H4wFastestMachine, Heuristic};
use mf_server::{request_to_text, Probe, Request, SolveMethod};
use mf_sim::{GeneratorConfig, InstanceGenerator};

/// Step budget of every `prove` solve (`solve … anytime budget B`).
pub const ANYTIME_BUDGET: u64 = 200_000;

/// Ops per `whatif` block: all but the last are reads.
pub const WHATIF_BLOCK: usize = 16;

/// Swap probes appended to each `whatif` read after the per-machine moves.
const SWAPS_PER_READ: usize = 4;

/// Largest batch of set-up loads or evaluates sent in one round trip.
const SETUP_BATCH: usize = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Interactive what-if exploration on the request path; no search.
    Whatif,
    /// Portfolio solves on instances large enough for the sweep cache.
    Plan,
    /// Anytime solves to proof on small instances.
    Prove,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 3] = [Workload::Whatif, Workload::Plan, Workload::Prove];

    /// Parses a `--workload` argument.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Whatif => "whatif",
            Workload::Plan => "plan",
            Workload::Prove => "prove",
        }
    }

    /// The percentile reported as `op_tail_us`. Each has about 30 (`plan`)
    /// to hundreds of samples beyond it at a 25 s run. The higher
    /// percentiles that would still have ten land on a handful of slow
    /// requests, so on host hiccups (`whatif`) or on the few costliest
    /// instances of the seed's set (`plan`, `prove`), and they moved by
    /// more than the bound between seeds.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::Whatif => 99.0,
            Workload::Plan => 80.0,
            Workload::Prove => 90.0,
        }
    }

    /// Whether the client and the served process share one CPU during
    /// set-up and the timed phase. `whatif` and `prove` requests are served
    /// by one thread. On `whatif` they are short, and a hand-off between
    /// two virtual CPUs (a hypervisor wake-up) would be a large and erratic
    /// share of each round trip. On `prove` the two virtual CPUs of a
    /// 2-vCPU VM ran the same solve up to 25 % apart, so a run would depend
    /// on where the scheduler put the serving thread. `plan` keeps every CPU
    /// for the served process's portfolio pool.
    pub fn shares_one_cpu(self) -> bool {
        self != Workload::Plan
    }
}

/// Instance counts and sizes; `full` is the benchmark, `tiny` the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    catalog: usize,
    catalog_tasks: (usize, usize),
    catalog_machines: usize,
    catalog_types: usize,
    plan_sites: usize,
    plan_tasks: (usize, usize),
    plan_machines: (usize, usize),
    plan_types: usize,
    prove_sites: usize,
    prove_tasks: (usize, usize),
    prove_machines: (usize, usize),
    prove_types: usize,
    whatif_blocks: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub fn full() -> Scale {
        Scale {
            catalog: 64,
            catalog_tasks: (140, 160),
            catalog_machines: 20,
            catalog_types: 6,
            plan_sites: 48,
            plan_tasks: (60, 80),
            plan_machines: (48, 64),
            plan_types: 8,
            prove_sites: 960,
            prove_tasks: (12, 12),
            prove_machines: (4, 4),
            prove_types: 3,
            whatif_blocks: 256,
        }
    }

    /// A scale small enough for the self-test to finish in seconds.
    pub fn tiny() -> Scale {
        Scale {
            catalog: 4,
            catalog_tasks: (30, 40),
            catalog_machines: 6,
            plan_sites: 2,
            plan_tasks: (20, 24),
            plan_machines: (48, 50),
            prove_sites: 2,
            prove_tasks: (8, 10),
            prove_machines: (4, 5),
            whatif_blocks: 2,
            ..Scale::full()
        }
    }
}

/// One named instance the server holds.
pub struct Site {
    /// Store name.
    pub name: String,
    /// The instance.
    pub instance: Instance,
    /// Its `textio` text, one payload line per entry.
    pub payload: Vec<String>,
    /// The mapping `whatif` reads evaluate (H4w's).
    pub incumbent: Mapping,
    /// The incumbent's `textio` text.
    pub incumbent_payload: Vec<String>,
    /// H4w's period on the instance, the base of `period_ratio`.
    pub h4w_period: f64,
}

/// What one op asks, for verification.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// `batch`: `evaluate` of the incumbent, then what-if probes.
    Read {
        /// Site index.
        site: usize,
        /// The probes, in request order.
        probes: Vec<Probe>,
    },
    /// `batch`: `load` replacing the instance, then `evaluate`.
    Write {
        /// Site index.
        site: usize,
    },
    /// `solve <site> portfolio seed <seed>`.
    Portfolio {
        /// Site index.
        site: usize,
        /// Request seed.
        seed: u64,
    },
    /// `solve <site> anytime budget ANYTIME_BUDGET seed <seed>`.
    Anytime {
        /// Site index.
        site: usize,
        /// Request seed.
        seed: u64,
    },
}

/// One request of the op cycle, with its wire text built ahead of timing.
pub struct Op {
    /// What the op asks.
    pub kind: OpKind,
    /// Its canonical wire text.
    pub text: Vec<u8>,
}

impl Op {
    fn new(kind: OpKind, request: Request) -> Op {
        let text = request_to_text(&request)
            .expect("generated requests are encodable")
            .into_bytes();
        Op { kind, text }
    }

    /// The site the op targets.
    pub fn site(&self) -> usize {
        match self.kind {
            OpKind::Read { site, .. }
            | OpKind::Write { site }
            | OpKind::Portfolio { site, .. }
            | OpKind::Anytime { site, .. } => site,
        }
    }
}

/// Everything one run sends: sites, set-up requests and the op cycle.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The catalog followed by the workload's own sites.
    pub sites: Vec<Site>,
    /// How many leading sites are the shared catalog.
    pub catalog_len: usize,
    /// Set-up requests: `load` batches, then `evaluate` batches.
    pub setup: Vec<Vec<u8>>,
    /// The op cycle of the timed phase.
    pub cycle: Vec<Op>,
}

/// A SplitMix64 stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn within(&mut self, (low, high): (usize, usize)) -> usize {
        low + self.below(high - low + 1)
    }
}

/// Mixes a role tag into the run seed, so each input family draws from
/// its own stream.
fn substream(seed: u64, role: u64) -> Stream {
    Stream(splitmix64(seed ^ splitmix64(role)))
}

fn payload_lines(text: &str) -> Vec<String> {
    text.lines().map(str::to_string).collect()
}

/// Generates one site; even indices are chains, odd ones in-forests.
fn site(name: String, index: usize, generator_seed: u64, n: usize, m: usize, p: usize) -> Site {
    let config = if index.is_multiple_of(2) {
        GeneratorConfig::paper_standard(n, m, p)
    } else {
        GeneratorConfig::standard_in_forest(n, m, p)
    };
    let instance = InstanceGenerator::new(config)
        .generate(generator_seed)
        .expect("generator configurations are valid");
    let incumbent = H4wFastestMachine
        .map(&instance)
        .expect("p <= m, so H4w finds a specialized mapping");
    let h4w_period = instance
        .period(&incumbent)
        .expect("H4w mappings fit their instance")
        .value();
    Site {
        name,
        payload: payload_lines(&textio::instance_to_text(&instance)),
        incumbent_payload: payload_lines(&textio::mapping_to_text(&incumbent)),
        instance,
        incumbent,
        h4w_period,
    }
}

/// Draws `count` sites named `<prefix>NN` from the role's stream.
fn sites(
    seed: u64,
    role: u64,
    prefix: &str,
    count: usize,
    tasks: (usize, usize),
    machines: (usize, usize),
    types: usize,
) -> Vec<Site> {
    let mut stream = substream(seed, role);
    (0..count)
        .map(|index| {
            let n = stream.within(tasks);
            let m = stream.within(machines);
            site(
                format!("{prefix}{index:02}"),
                index,
                stream.next(),
                n,
                m,
                types,
            )
        })
        .collect()
}

fn evaluate_request(site: &Site) -> Request {
    Request::Evaluate {
        name: site.name.clone(),
        payload: site.incumbent_payload.clone(),
    }
}

fn load_request(site: &Site) -> Request {
    Request::Load {
        name: site.name.clone(),
        payload: site.payload.clone(),
    }
}

fn batch_text(items: Vec<Request>) -> Vec<u8> {
    request_to_text(&Request::Batch(items))
        .expect("generated requests are encodable")
        .into_bytes()
}

impl Inputs {
    /// Generates the inputs of `workload` at `scale` from `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let s = scale;
        let mut all = sites(
            seed,
            1,
            "c",
            s.catalog,
            s.catalog_tasks,
            (s.catalog_machines, s.catalog_machines),
            s.catalog_types,
        );
        let catalog_len = all.len();
        match workload {
            Workload::Whatif => {}
            Workload::Plan => all.extend(sites(
                seed,
                2,
                "p",
                s.plan_sites,
                s.plan_tasks,
                s.plan_machines,
                s.plan_types,
            )),
            Workload::Prove => all.extend(sites(
                seed,
                3,
                "v",
                s.prove_sites,
                s.prove_tasks,
                s.prove_machines,
                s.prove_types,
            )),
        }
        let mut setup: Vec<Vec<u8>> = all
            .chunks(SETUP_BATCH)
            .map(|chunk| batch_text(chunk.iter().map(load_request).collect()))
            .collect();
        setup.extend(
            all.chunks(SETUP_BATCH)
                .map(|chunk| batch_text(chunk.iter().map(evaluate_request).collect())),
        );
        let mut stream = substream(seed, 4);
        let cycle = match workload {
            Workload::Whatif => whatif_cycle(&all, s.whatif_blocks, &mut stream),
            Workload::Plan | Workload::Prove => {
                let mut own: Vec<usize> = (catalog_len..all.len()).collect();
                for i in (1..own.len()).rev() {
                    own.swap(i, stream.below(i + 1));
                }
                own.into_iter()
                    .map(|site| solve_op(workload, &all[site], site, stream.next() % 1000))
                    .collect()
            }
        };
        Inputs {
            workload,
            sites: all,
            catalog_len,
            setup,
            cycle,
        }
    }
}

fn whatif_cycle(sites: &[Site], blocks: usize, stream: &mut Stream) -> Vec<Op> {
    let mut cycle = Vec::with_capacity(blocks * WHATIF_BLOCK);
    for _ in 0..blocks {
        for slot in 0..WHATIF_BLOCK {
            let index = stream.below(sites.len());
            let site = &sites[index];
            if slot + 1 == WHATIF_BLOCK {
                let request = Request::Batch(vec![load_request(site), evaluate_request(site)]);
                cycle.push(Op::new(OpKind::Write { site: index }, request));
                continue;
            }
            let n = site.instance.task_count();
            let task = stream.below(n);
            let mut probes: Vec<Probe> = (0..site.instance.machine_count())
                .map(|machine| Probe::Move { task, machine })
                .collect();
            probes.extend((0..SWAPS_PER_READ).map(|_| Probe::Swap {
                a: task,
                b: stream.below(n),
            }));
            let mut items = vec![evaluate_request(site)];
            items.extend(probes.iter().map(|&probe| Request::WhatIf {
                name: site.name.clone(),
                probe,
            }));
            cycle.push(Op::new(
                OpKind::Read {
                    site: index,
                    probes,
                },
                Request::Batch(items),
            ));
        }
    }
    cycle
}

fn solve_op(workload: Workload, site: &Site, index: usize, seed: u64) -> Op {
    let (kind, method) = match workload {
        Workload::Plan => (
            OpKind::Portfolio { site: index, seed },
            SolveMethod::Portfolio,
        ),
        _ => (
            OpKind::Anytime { site: index, seed },
            SolveMethod::Anytime {
                budget: Some(ANYTIME_BUDGET),
            },
        ),
    };
    let request = Request::Solve {
        name: site.name.clone(),
        method,
        seed: Some(seed),
    };
    Op::new(kind, request)
}
