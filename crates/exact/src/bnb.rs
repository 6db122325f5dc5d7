//! Combinatorial branch-and-bound for the specialized-mapping problem.
//!
//! This solver plays the role of ILOG CPLEX in the paper's experiments
//! (Figures 10–12): it computes the **optimal specialized mapping** of small
//! instances, and degrades gracefully (reporting a non-proven incumbent) when
//! its node budget is exhausted — mirroring the paper's observation that the
//! MIP "is not able to find solutions anymore" beyond ~15 tasks.
//!
//! The search walks the application backwards (so every task's product demand
//! is exact at placement time, just like the heuristics), branches on the
//! admissible machines of the current task and prunes with two bounds:
//!
//! * the current maximum machine load (a valid lower bound on any completion);
//! * a packing bound: the final total load is at least the current total plus,
//!   for every remaining task, its smallest possible contribution on any
//!   machine; dividing by `m` bounds the final makespan from below.
//!
//! With [`BnbConfig::lp_bounds`], nodes both bounds fail to prune consult a
//! third, stronger one: a certified Lagrangian dual bound of the filtered
//! load-splitting LP relaxation (see [`DualBound`]), solver-free and
//! warm-started down the search path.
//!
//! Node scoring goes through a per-search-path
//! [`PartialAssignmentEvaluator`]: placements and backtracks update the
//! staged machine loads in `O(log m)` and the load-maximum bound is read in
//! `O(1)` from its tournament tree, instead of the `O(m)` from-scratch scan
//! every node used to pay. The staged evaluator performs the bit-identical
//! float operations the scan-based bookkeeping did, so the explored tree —
//! and therefore the returned optimum — is unchanged
//! ([`BnbConfig::legacy_bounds`] keeps the scan alive for the
//! `search_strategies` bench to quantify the difference).
//!
//! The incumbent is seeded with the H4w heuristic so that pruning is effective
//! from the first node.

use mf_core::prelude::*;
use mf_heuristics::{H4wFastestMachine, Heuristic};
use mf_lp::{ConstraintSense, LpProblem, Objective, VariableId};

/// Configuration of the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BnbConfig {
    /// Maximum number of search nodes (task placements explored).
    pub max_nodes: u64,
    /// Relative optimality tolerance: a node is pruned when its bound is not
    /// better than `incumbent · (1 − tolerance)`.
    pub tolerance: f64,
    /// Score nodes with the legacy `O(m)` max-load scan instead of the
    /// staged evaluator's `O(1)` tournament-tree root. Both paths explore
    /// the bit-identical tree; this hook exists so the `search_strategies`
    /// bench (and any regression hunt) can compare per-node cost.
    pub legacy_bounds: bool,
    /// Prune with the Lagrangian dual of the filtered load-splitting LP
    /// relaxation on top of the packing bound (see [`DualBound`]): each node
    /// that the cheap bounds fail to prune evaluates a certified dual bound
    /// in `O(n·m)` per step, warm-started from its parent's multipliers. The
    /// explored tree shrinks (dramatically on `m ≫ p` instances); the
    /// optimum found is unchanged. Off by default — on small trees the
    /// packing bound alone is cheaper.
    pub lp_bounds: bool,
}

impl Default for BnbConfig {
    fn default() -> Self {
        BnbConfig {
            max_nodes: 20_000_000,
            tolerance: 1e-9,
            legacy_bounds: false,
            lp_bounds: false,
        }
    }
}

impl BnbConfig {
    /// A configuration with a custom node budget.
    pub fn with_node_budget(max_nodes: u64) -> Self {
        BnbConfig {
            max_nodes,
            ..Default::default()
        }
    }
}

/// Result of the branch-and-bound search.
#[derive(Debug, Clone, PartialEq)]
pub struct BnbOutcome {
    /// The best specialized mapping found.
    pub mapping: Mapping,
    /// Its period.
    pub period: Period,
    /// `true` if the search finished and the mapping is proven optimal.
    pub proven_optimal: bool,
    /// Number of nodes explored.
    pub nodes: u64,
    /// Nodes where the dual bound tier ran (0 unless
    /// [`BnbConfig::lp_bounds`]).
    pub lp_solves: u64,
    /// Of those, nodes pruned by the multipliers inherited from the parent,
    /// before any gradient step.
    pub lp_reuses: u64,
}

/// Exponentiated-gradient steps the dual tier takes per node after
/// evaluating the inherited multipliers. Each step costs one `O(n·m)`
/// evaluation; deeper nodes start from their parent's best multipliers, so
/// a couple per node track the dual optimum down the search path (more
/// steps shrink the tree a little but cost more than they save).
const DUAL_STEPS: usize = 2;

/// Exponentiated-gradient step size, applied to the subgradient normalised
/// by its largest entry (so one step scales a multiplier by at most
/// `e^DUAL_STEP_SIZE`).
const DUAL_STEP_SIZE: f64 = 4.0;

/// The Lagrangian dual bound driving [`BnbConfig::lp_bounds`].
///
/// The node relaxation is the load-splitting LP: fractional shares of every
/// free task `i` over the machines, each share costing `c[i][u]` (task
/// `i`'s mapping-independent demand lower bound times its effective time on
/// `u`), minimising the makespan `K` over `load_u + Σ_i c[i][u]·x[i][u] ≤ K`.
/// Relaxing the machine rows with multipliers `λ` on the probability simplex
/// gives, by weak duality, a lower bound for **every** `λ` with no solver
/// involved:
///
/// `L(λ) = Σ_u λ_u·load_u + Σ_{free i} min_{u allowed} λ_u·c[i][u]`
///
/// (`λ = e_u` is the max-staged-load bound, uniform `λ` the average-work
/// bound). The relaxation is *filtered* Lenstra–Shmoys–Tardos style against
/// the incumbent threshold `θ = incumbent·(1−tolerance)`: a placement
/// `(i, u)` with `load_u + c[i][u] ≥ θ`, or on a machine dedicated to
/// another type, cannot appear in any specialized completion beating the
/// incumbent, so it is not *allowed*. `L(λ)` then lower-bounds every
/// completion better than `θ`, so `L(λ) ≥ θ` — or a free task with no
/// allowed machine at all — proves no such completion exists and prunes the
/// node.
///
/// Each node starts from its parent's best multipliers (one row per depth;
/// the root starts uniform) and climbs `L` with [`DUAL_STEPS`]
/// exponentiated-gradient steps along the subgradient
/// `g_u = load_u + Σ_{i→u} c[i][u]` (`i→u`: the machine attaining task
/// `i`'s minimum), stopping as soon as the bound reaches `θ`. Its best value
/// is inherited by the children exactly like the packing bound: `θ` only
/// drops and loads only grow down the path, so it stays valid there.
///
/// Certification: every term of `L` is nonnegative (no cancellation) and
/// the value is divided by the float sum of the multipliers, so the float
/// evaluation is within a relative `(n+2m+1)·ε` (to first order) of the
/// exact `L(λ/Σλ)`. Shrinking it by `4·(n+m+2)·ε`, more than twice that,
/// makes the bound valid under rounding, not merely at tolerance.
struct DualBound {
    /// Lower-bound contribution `c[i][u]`, row-major `task · m + machine`.
    costs: Vec<f64>,
    machines: usize,
    /// Warm-start multipliers, one row of `m` per depth: row `d` is what a
    /// node at depth `d` starts from (its parent's best).
    rows: Vec<f64>,
    /// The current iterate.
    lambda: Vec<f64>,
    /// The node's staged machine loads, clamped at zero.
    loads: Vec<f64>,
    /// The subgradient at the last evaluated iterate.
    gradient: Vec<f64>,
    /// The placements `(u, c[i][u])` surviving the node's filters, free
    /// task after free task.
    allowed: Vec<(usize, f64)>,
    /// Per free task, the end of its run in `allowed`.
    ends: Vec<usize>,
    /// `1 − 4·(n+m+2)·ε`: the certification shrink factor.
    shrink: f64,
    /// Nodes where the tier ran.
    runs: u64,
    /// Nodes pruned by the inherited multipliers before any gradient step.
    inherited_prunes: u64,
}

impl DualBound {
    fn new(instance: &Instance, depths: usize) -> Result<Self> {
        let n = instance.task_count();
        let m = instance.machine_count();
        let mut rows = vec![0.0; (depths + 1) * m];
        rows[..m].fill(1.0 / m as f64);
        Ok(DualBound {
            costs: lower_bound_costs(instance)?,
            machines: m,
            rows,
            lambda: vec![0.0; m],
            loads: vec![0.0; m],
            gradient: vec![0.0; m],
            allowed: Vec::with_capacity(n * m),
            ends: Vec::with_capacity(n),
            shrink: 1.0 - 4.0 * (n + m + 2) as f64 * f64::EPSILON,
            runs: 0,
            inherited_prunes: 0,
        })
    }

    /// Runs the tier at a node at `depth`: filters against `threshold`,
    /// then climbs from the inherited multipliers. Returns the best
    /// certified bound found (`∞` when a free task has no allowed machine),
    /// and leaves the multipliers that attained it as row `depth + 1`.
    fn bound(
        &mut self,
        instance: &Instance,
        state: &PartialState,
        depth: usize,
        threshold: f64,
    ) -> f64 {
        self.runs += 1;
        if !self.filter(instance, state, threshold) {
            return f64::INFINITY;
        }
        let m = self.machines;
        let (parent, child) = self.rows[depth * m..(depth + 2) * m].split_at_mut(m);
        self.lambda.copy_from_slice(parent);
        child.copy_from_slice(parent);
        let mut best = self.evaluate();
        if best >= threshold {
            self.inherited_prunes += 1;
            return best;
        }
        for _ in 0..DUAL_STEPS {
            self.ascend();
            let value = self.evaluate();
            if value > best {
                best = value;
                self.rows[(depth + 1) * m..(depth + 2) * m].copy_from_slice(&self.lambda);
                if best >= threshold {
                    break;
                }
            }
        }
        best
    }

    /// Recomputes the free tasks and their allowed machines. Returns `false`
    /// when some free task has none left.
    fn filter(&mut self, instance: &Instance, state: &PartialState, threshold: f64) -> bool {
        let app = instance.application();
        let m = self.machines;
        self.allowed.clear();
        self.ends.clear();
        for (u, load) in self.loads.iter_mut().enumerate() {
            // Place/unplace churn can leave a ±ulp residue on an empty
            // machine; clamping keeps every term of `L` nonnegative.
            *load = state.loads.load_of(MachineId(u)).max(0.0);
        }
        for (i, placed) in state.assignment.iter().enumerate() {
            if placed.is_some() {
                continue;
            }
            let ty = app.task_type(TaskId(i));
            let start = self.allowed.len();
            for (u, &cost) in self.costs[i * m..(i + 1) * m].iter().enumerate() {
                let dedicated_elsewhere =
                    matches!(state.machine_type[u], Some(existing) if existing != ty);
                if !dedicated_elsewhere && self.loads[u] + cost < threshold {
                    self.allowed.push((u, cost));
                }
            }
            if self.allowed.len() == start {
                return false;
            }
            self.ends.push(self.allowed.len());
        }
        true
    }

    /// The certified value of `L` at the current iterate; leaves the
    /// subgradient `g_u = load_u + Σ_{i→u} c[i][u]` there (`i→u`: the
    /// machine attaining task `i`'s minimum) in `gradient`.
    fn evaluate(&mut self) -> f64 {
        let mut value = 0.0;
        let mut weight = 0.0;
        for (&l, &load) in self.lambda.iter().zip(&self.loads) {
            value += l * load;
            weight += l;
        }
        self.gradient.copy_from_slice(&self.loads);
        let mut start = 0;
        for &end in &self.ends {
            let (mut cheapest, mut pick) = (f64::INFINITY, self.allowed[start]);
            for &(u, cost) in &self.allowed[start..end] {
                let term = self.lambda[u] * cost;
                if term < cheapest {
                    (cheapest, pick) = (term, (u, cost));
                }
            }
            value += cheapest;
            self.gradient[pick.0] += pick.1;
            start = end;
        }
        value / weight * self.shrink
    }

    /// One exponentiated-gradient step along the last evaluated
    /// subgradient.
    fn ascend(&mut self) {
        let scale = self.gradient.iter().copied().fold(0.0, f64::max);
        if scale <= 0.0 {
            return;
        }
        let mut sum = 0.0;
        for (l, &g) in self.lambda.iter_mut().zip(&self.gradient) {
            *l *= (DUAL_STEP_SIZE * (g / scale - 1.0)).exp();
            sum += *l;
        }
        self.lambda.iter_mut().for_each(|l| *l /= sum);
    }
}

/// Every task's lower-bound contribution `c[i][u]` on every machine,
/// row-major: its output-demand lower bound (mapping-independent) times its
/// effective time on `u`.
fn lower_bound_costs(instance: &Instance) -> Result<Vec<f64>> {
    let n = instance.task_count();
    let m = instance.machine_count();
    let lower_demand = instance.demand_lower_bounds()?;
    let app = instance.application();
    let mut costs = vec![0.0; n * m];
    for i in 0..n {
        let task = TaskId(i);
        let d = match app.successor(task) {
            None => 1.0,
            Some(succ) => lower_demand[succ.index()],
        };
        for u in 0..m {
            costs[i * m + u] = d * instance.effective_time(task, MachineId(u));
        }
    }
    Ok(costs)
}

struct SearchContext<'a> {
    instance: &'a Instance,
    /// Tasks in placement (reverse topological) order.
    order: Vec<TaskId>,
    /// Per task, the smallest possible contribution `d_min · w/(1−f)` over all
    /// machines, where `d_min` uses the most reliable downstream machines.
    min_contribution: Vec<f64>,
    /// One reusable candidate buffer per depth — the recursion at depth `d`
    /// only ever touches buffer `d`, so nodes allocate nothing.
    candidate_scratch: Vec<Vec<(MachineId, f64)>>,
    config: BnbConfig,
    best_period: f64,
    best_mapping: Option<Vec<MachineId>>,
    nodes: u64,
    aborted: bool,
    /// The Lagrangian dual bound tier (when [`BnbConfig::lp_bounds`] is on).
    dual: Option<DualBound>,
}

struct PartialState {
    assignment: Vec<Option<MachineId>>,
    machine_type: Vec<Option<TaskTypeId>>,
    /// Staged per-machine loads, running total and load maximum — the
    /// per-search-path incremental evaluator.
    loads: PartialAssignmentEvaluator,
    demand: Vec<f64>,
    free_machines: usize,
    remaining_per_type: Vec<usize>,
    seated: Vec<bool>,
}

impl PartialState {
    fn new(instance: &Instance) -> Self {
        let n = instance.task_count();
        let m = instance.machine_count();
        let p = instance.type_count();
        let mut remaining_per_type = vec![0usize; p];
        for task in instance.application().tasks() {
            remaining_per_type[task.ty.index()] += 1;
        }
        PartialState {
            assignment: vec![None; n],
            machine_type: vec![None; m],
            loads: PartialAssignmentEvaluator::new(m),
            demand: vec![0.0; n],
            free_machines: m,
            remaining_per_type,
            seated: vec![false; p],
        }
    }

    fn output_demand(&self, instance: &Instance, task: TaskId) -> f64 {
        match instance.application().successor(task) {
            None => 1.0,
            Some(succ) => self.demand[succ.index()],
        }
    }

    fn unseated_count(&self) -> usize {
        self.remaining_per_type
            .iter()
            .zip(&self.seated)
            .filter(|(&r, &s)| r > 0 && !s)
            .count()
    }

    fn admissible(&self, instance: &Instance, task: TaskId, machine: MachineId) -> bool {
        let ty = instance.application().task_type(task);
        match self.machine_type[machine.index()] {
            Some(existing) => existing == ty,
            None => {
                if self.seated[ty.index()] {
                    self.free_machines > self.unseated_count()
                } else {
                    true
                }
            }
        }
    }

    /// The maximum staged machine load: `O(1)` from the evaluator's
    /// tournament tree, or the legacy `O(m)` scan when asked to (both yield
    /// the identical `f64`, so pruning decisions cannot differ).
    #[inline]
    fn max_load(&self, legacy: bool) -> f64 {
        if legacy {
            (0..self.loads_len())
                .map(|u| self.loads.load_of(MachineId(u)))
                .fold(0.0, f64::max)
        } else {
            self.loads.period().value()
        }
    }

    #[inline]
    fn loads_len(&self) -> usize {
        self.machine_type.len()
    }
}

impl<'a> SearchContext<'a> {
    fn search(
        &mut self,
        depth: usize,
        state: &mut PartialState,
        remaining_min: f64,
        dual_inherited: f64,
    ) {
        if self.aborted {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.config.max_nodes {
            self.aborted = true;
            return;
        }
        let legacy = self.config.legacy_bounds;

        if depth == self.order.len() {
            let period = state.max_load(legacy);
            if period < self.best_period {
                self.best_period = period;
                self.best_mapping = Some(
                    state
                        .assignment
                        .iter()
                        .map(|a| a.expect("complete"))
                        .collect(),
                );
            }
            return;
        }

        // Cheap bounds first: max load, packing, and the dual bound
        // inherited from an ancestor. The ancestor's bound holds for every
        // completion beating the threshold it was filtered at (≥ the current
        // one), so comparing it against the current threshold is a sound
        // prune.
        let m = self.instance.machine_count() as f64;
        let threshold = self.best_period * (1.0 - self.config.tolerance);
        let packing_bound = (state.loads.total_load() + remaining_min) / m;
        let bound = state
            .max_load(legacy)
            .max(packing_bound)
            .max(dual_inherited);
        if bound >= threshold {
            return;
        }

        // Dual tier, only consulted when the cheap bounds failed to prune.
        let mut dual_bound = dual_inherited;
        if let Some(dual) = self.dual.as_mut() {
            dual_bound = dual_bound.max(dual.bound(self.instance, state, depth, threshold));
            if dual_bound >= threshold {
                return;
            }
        }

        let task = self.order[depth];
        let ty = self.instance.application().task_type(task);
        let demand = state.output_demand(self.instance, task);
        let next_remaining_min = remaining_min - self.min_contribution[depth];

        // Candidate machines, cheapest incremental load first so that good
        // incumbents appear early in the depth-first search.
        let mut candidates = std::mem::take(&mut self.candidate_scratch[depth]);
        candidates.clear();
        candidates.extend(
            self.instance
                .platform()
                .machines()
                .filter(|&u| state.admissible(self.instance, task, u))
                .map(|u| (u, demand * self.instance.effective_time(task, u))),
        );
        candidates.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

        for &(machine, increment) in &candidates {
            let u = machine.index();
            // Apply.
            let was_free = state.machine_type[u].is_none();
            if was_free {
                state.machine_type[u] = Some(ty);
                state.free_machines -= 1;
            }
            let was_seated = state.seated[ty.index()];
            state.seated[ty.index()] = true;
            state.remaining_per_type[ty.index()] -= 1;
            let x = demand * self.instance.factor(task, machine);
            state.demand[task.index()] = x;
            state.loads.place(machine, increment);
            state.assignment[task.index()] = Some(machine);

            self.search(depth + 1, state, next_remaining_min, dual_bound);

            // Undo.
            state.assignment[task.index()] = None;
            state.loads.unplace();
            state.demand[task.index()] = 0.0;
            state.remaining_per_type[ty.index()] += 1;
            state.seated[ty.index()] = was_seated;
            if was_free {
                state.machine_type[u] = None;
                state.free_machines += 1;
            }
            if self.aborted {
                break;
            }
        }
        self.candidate_scratch[depth] = candidates;
    }
}

/// Finds the optimal specialized mapping of an instance by branch-and-bound.
///
/// Returns an error if the instance admits no specialized mapping at all
/// (more task types than machines).
pub fn branch_and_bound(instance: &Instance, config: BnbConfig) -> Result<BnbOutcome> {
    // Seed the incumbent with H4w (the paper's best heuristic); fall back to
    // any greedy placement if it fails, and bail out if nothing is feasible.
    let seed = H4wFastestMachine
        .map(instance)
        .map_err(|_| ModelError::NotEnoughMachines {
            machines: instance.machine_count(),
            required: instance.type_count(),
        })?;
    branch_and_bound_seeded(instance, config, &seed)
}

/// [`branch_and_bound`] with a caller-supplied incumbent instead of the H4w
/// seed. The anytime solver uses this to hand the exact phase whatever its
/// heuristic phase found: a tighter incumbent prunes more of the tree, and
/// the search can only return a mapping at least as good as `seed`.
///
/// `seed` must be a **specialized** mapping of `instance` (one type per
/// machine) — branch-and-bound enumerates specialized mappings only, so a
/// general seed could undercut every specialized completion and make the
/// search return the seed itself as a false "proven optimum".
pub fn branch_and_bound_seeded(
    instance: &Instance,
    config: BnbConfig,
    seed: &Mapping,
) -> Result<BnbOutcome> {
    let seed_period = instance.period(seed)?.value();

    // Smallest possible contribution of every task, paired with the placement
    // order. Demand lower bounds are mapping-independent.
    let order = instance.application().reverse_topological_order();
    let lower_demand = instance.demand_lower_bounds()?;
    let min_contribution: Vec<f64> = order
        .iter()
        .map(|&task| {
            let d = match instance.application().successor(task) {
                None => 1.0,
                Some(succ) => lower_demand[succ.index()],
            };
            let best_eff = instance
                .platform()
                .machines()
                .map(|u| instance.effective_time(task, u))
                .fold(f64::INFINITY, f64::min);
            d * best_eff
        })
        .collect();
    let total_min: f64 = min_contribution.iter().sum();

    let depths = order.len();
    let mut context = SearchContext {
        instance,
        order,
        min_contribution,
        candidate_scratch: vec![Vec::with_capacity(instance.machine_count()); depths],
        config,
        best_period: seed_period,
        best_mapping: Some(seed.as_slice().to_vec()),
        nodes: 0,
        aborted: false,
        dual: if config.lp_bounds {
            Some(DualBound::new(instance, depths)?)
        } else {
            None
        },
    };
    let mut state = PartialState::new(instance);
    context.search(0, &mut state, total_min, 0.0);

    let assignment = context
        .best_mapping
        .expect("seeded with a feasible mapping");
    let mapping = Mapping::new(assignment, instance.machine_count())?;
    let period = instance.period(&mapping)?;
    let (lp_solves, lp_reuses) = context
        .dual
        .as_ref()
        .map_or((0, 0), |dual| (dual.runs, dual.inherited_prunes));
    Ok(BnbOutcome {
        mapping,
        period,
        proven_optimal: !context.aborted,
        nodes: context.nodes,
        lp_solves,
        lp_reuses,
    })
}

/// The root load-splitting LP relaxation's optimum: a certified lower bound
/// on the period of **every** mapping of the instance (the relaxation does
/// not encode the specialized rule, so the bound holds for general mappings
/// too). `None` when the simplex fails or the instance has no demand lower
/// bounds; callers fall back to the packing bound.
///
/// Variables: `x[i][u] ≥ 0`, the fraction of task `i` carried by machine
/// `u`, and the makespan `K`; rows `Σ_i c[i][u]·x[i][u] ≤ K` per machine and
/// `Σ_u x[i][u] = 1` per task. This is the bound the anytime solver streams
/// before branch-and-bound tightens it; its Lagrangian dual is what
/// [`BnbConfig::lp_bounds`] climbs at every node, solver-free.
pub fn lp_root_bound(instance: &Instance) -> Option<f64> {
    let costs = lower_bound_costs(instance).ok()?;
    let (n, m) = (instance.task_count(), instance.machine_count());
    let mut problem = LpProblem::new(Objective::Minimize);
    let x: Vec<VariableId> = (0..n * m)
        .map(|j| problem.add_variable(format!("x{}_{}", j / m, j % m)))
        .collect();
    let k = problem.add_variable("K");
    problem.set_objective_coefficient(k, 1.0);
    for u in 0..m {
        let mut terms: Vec<(VariableId, f64)> =
            (0..n).map(|i| (x[i * m + u], costs[i * m + u])).collect();
        terms.push((k, -1.0));
        problem.add_constraint(terms, ConstraintSense::LessEqual, 0.0);
    }
    for i in 0..n {
        let terms: Vec<(VariableId, f64)> = (0..m).map(|u| (x[i * m + u], 1.0)).collect();
        problem.add_constraint(terms, ConstraintSense::Equal, 1.0);
    }
    mf_lp::solve(&problem)
        .ok()
        .map(|solution| solution.objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::brute_force_specialized;

    fn random_instance(n: usize, m: usize, p: usize, seed: u64) -> Instance {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let types: Vec<usize> = (0..n).map(|i| i % p).collect();
        let app = Application::linear_chain(&types).unwrap();
        let times = (0..p)
            .map(|_| (0..m).map(|_| 100.0 + 900.0 * next()).collect())
            .collect();
        let platform = Platform::from_type_times(m, times).unwrap();
        let failures = FailureModel::from_matrix(
            (0..n)
                .map(|_| (0..m).map(|_| 0.005 + 0.015 * next()).collect())
                .collect(),
            m,
        )
        .unwrap();
        Instance::new(app, platform, failures).unwrap()
    }

    /// A random in-tree: every task but the last feeds a later one, so
    /// joins (tasks with several predecessors) are common.
    fn random_tree_instance(n: usize, m: usize, p: usize, seed: u64) -> Instance {
        let chain = random_instance(n, m, p, seed);
        let mut s = seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1;
        let successors: Vec<Option<usize>> = (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (i + 1 < n).then(|| i + 1 + (s % (n - 1 - i) as u64) as usize)
            })
            .collect();
        let types: Vec<usize> = (0..n).map(|i| i % p).collect();
        let app = Application::from_successors(&types, &successors).unwrap();
        Instance::new(app, chain.platform().clone(), chain.failures().clone()).unwrap()
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        for seed in 0..8 {
            let inst = random_instance(6, 3, 2, seed);
            let exact = brute_force_specialized(&inst).unwrap();
            let bnb = branch_and_bound(&inst, BnbConfig::default()).unwrap();
            assert!(bnb.proven_optimal);
            assert!(
                (bnb.period.value() - exact.period.value()).abs() < 1e-6,
                "seed {seed}: bnb {} != brute force {}",
                bnb.period.value(),
                exact.period.value()
            );
            assert!(inst.is_specialized(&bnb.mapping));
        }
    }

    #[test]
    fn evaluator_backed_and_legacy_bounds_explore_the_identical_tree() {
        // The staged evaluator must not change a single pruning decision:
        // node counts, mappings and period bits all agree with the legacy
        // O(m)-scan scoring on every instance.
        for seed in 0..6 {
            let inst = random_instance(9, 4, 2, 1000 + seed);
            let fast = branch_and_bound(&inst, BnbConfig::default()).unwrap();
            let legacy = branch_and_bound(
                &inst,
                BnbConfig {
                    legacy_bounds: true,
                    ..BnbConfig::default()
                },
            )
            .unwrap();
            assert_eq!(fast.nodes, legacy.nodes, "seed {seed}: tree diverged");
            assert_eq!(fast.mapping, legacy.mapping, "seed {seed}");
            assert_eq!(
                fast.period.value().to_bits(),
                legacy.period.value().to_bits(),
                "seed {seed}: period bits diverged"
            );
            assert_eq!(fast.proven_optimal, legacy.proven_optimal);
        }
    }

    #[test]
    fn never_worse_than_the_seeding_heuristic() {
        for seed in 0..5 {
            let inst = random_instance(12, 5, 3, seed);
            let h4w = H4wFastestMachine.period(&inst).unwrap().value();
            let bnb = branch_and_bound(&inst, BnbConfig::default()).unwrap();
            assert!(bnb.period.value() <= h4w + 1e-9);
        }
    }

    #[test]
    fn node_budget_degrades_gracefully() {
        let inst = random_instance(14, 5, 3, 99);
        let outcome = branch_and_bound(&inst, BnbConfig::with_node_budget(50)).unwrap();
        assert!(!outcome.proven_optimal);
        // The incumbent is still a valid specialized mapping.
        assert!(inst.is_specialized(&outcome.mapping));
        assert!(outcome.nodes <= 51);
    }

    #[test]
    fn lp_bounds_find_the_same_optimum() {
        for seed in 0..8 {
            for (shape, inst) in [
                ("chain", random_instance(8, 4, 2, 400 + seed)),
                ("chain", random_instance(10, 5, 3, 900 + seed)),
                ("in-tree", random_tree_instance(10, 5, 3, 900 + seed)),
            ] {
                let packing = branch_and_bound(&inst, BnbConfig::default()).unwrap();
                let lp = branch_and_bound(
                    &inst,
                    BnbConfig {
                        lp_bounds: true,
                        ..BnbConfig::default()
                    },
                )
                .unwrap();
                assert!(lp.proven_optimal && packing.proven_optimal);
                assert_eq!(
                    lp.period.value().to_bits(),
                    packing.period.value().to_bits(),
                    "{shape} seed {seed}: dual-bound optimum {} != packing optimum {}",
                    lp.period.value(),
                    packing.period.value()
                );
                assert!(inst.is_specialized(&lp.mapping));
                assert!(
                    lp.nodes <= packing.nodes,
                    "{shape} seed {seed}: the dual tier only adds prunes, so \
                     its tree cannot be larger ({} vs {})",
                    lp.nodes,
                    packing.nodes
                );
                assert!(
                    lp.lp_solves > 0,
                    "{shape} seed {seed}: the dual tier never ran"
                );
                assert_eq!((packing.lp_solves, packing.lp_reuses), (0, 0));
            }
        }
    }

    /// The blocking CI floor of the LP bound: on an `m ≫ p` instance —
    /// where the packing bound is weakest, because dividing by the many
    /// machines washes out the load concentration — the LP tree must be at
    /// most half the packing tree, at the same proven optimum.
    #[test]
    fn lp_bounds_halve_the_tree_on_many_machine_instances() {
        let inst = random_instance(12, 10, 3, 7);
        let packing = branch_and_bound(&inst, BnbConfig::default()).unwrap();
        let lp = branch_and_bound(
            &inst,
            BnbConfig {
                lp_bounds: true,
                ..BnbConfig::default()
            },
        )
        .unwrap();
        assert!(packing.proven_optimal && lp.proven_optimal);
        assert!((lp.period.value() - packing.period.value()).abs() <= 1e-9);
        assert!(
            lp.nodes * 2 <= packing.nodes,
            "LP bound visited {} nodes, packing bound {} — the ≤ 50% floor \
             regressed",
            lp.nodes,
            packing.nodes
        );
        assert!(
            lp.lp_solves > 0 && lp.lp_reuses <= lp.lp_solves,
            "dual tier counters: {} runs, {} inherited prunes",
            lp.lp_solves,
            lp.lp_reuses
        );
    }

    /// The unfiltered root dual value: one node's worth of steps from
    /// uniform multipliers.
    fn root_dual_value(inst: &Instance) -> f64 {
        let mut dual = DualBound::new(inst, inst.task_count()).unwrap();
        dual.bound(inst, &PartialState::new(inst), 0, f64::INFINITY)
    }

    #[test]
    fn root_dual_bound_is_certified_below_the_lp_and_the_optimum() {
        for seed in 0..6 {
            for inst in [
                random_instance(8, 5, 2, 700 + seed),
                random_tree_instance(8, 5, 2, 700 + seed),
            ] {
                let lp = lp_root_bound(&inst).expect("feasible relaxation");
                let exact = brute_force_specialized(&inst).unwrap().period.value();
                let value = root_dual_value(&inst);
                assert!(value > 0.0, "seed {seed}: vacuous dual bound");
                assert!(
                    value <= lp,
                    "seed {seed}: dual bound {value} above the LP optimum {lp}"
                );
                assert!(
                    value <= exact,
                    "seed {seed}: dual bound {value} above the optimum {exact}"
                );
            }
        }
        // Four identical failure-free tasks on two identical machines: at
        // uniform multipliers `L` is the optimum 600 exactly, so only the
        // certification shrink keeps the float value below it — by a few
        // ulps, not a tolerance.
        let app = Application::linear_chain(&[0, 0, 0, 0]).unwrap();
        let platform = Platform::from_type_times(2, vec![vec![300.0, 300.0]]).unwrap();
        let failures = FailureModel::uniform(4, 2, FailureRate::new(0.0).unwrap());
        let inst = Instance::new(app, platform, failures).unwrap();
        let exact = brute_force_specialized(&inst).unwrap().period.value();
        assert_eq!(exact, 600.0);
        let value = root_dual_value(&inst);
        assert!(value < exact && value >= exact * (1.0 - 1e-12), "{value}");
    }

    #[test]
    fn a_free_task_without_an_allowed_machine_prunes_the_node() {
        // Machine 0 is dedicated to type 0 but too loaded to take another
        // task under the threshold; machine 1 is idle but dedicated to type
        // 1. A free type-0 task has nowhere to go.
        let inst = random_instance(4, 2, 2, 3);
        let threshold = 10_000.0;
        let mut state = PartialState::new(&inst);
        state.machine_type = vec![Some(TaskTypeId(0)), Some(TaskTypeId(1))];
        state.loads.place(MachineId(0), threshold);
        let mut dual = DualBound::new(&inst, inst.task_count()).unwrap();
        assert_eq!(dual.bound(&inst, &state, 0, threshold), f64::INFINITY);
        assert_eq!((dual.runs, dual.inherited_prunes), (1, 0));

        // Freeing machine 1 gives every task an allowed machine again (the
        // four tasks' costs there sum far below the threshold): the bound is
        // finite and does not prune.
        state.machine_type[1] = None;
        let value = dual.bound(&inst, &state, 0, threshold);
        assert!(value.is_finite() && value < threshold, "bound {value}");
    }

    #[test]
    fn root_lp_bound_is_a_valid_lower_bound_dominating_packing() {
        for seed in 0..6 {
            let inst = random_instance(8, 5, 2, 700 + seed);
            let bound = lp_root_bound(&inst).expect("feasible relaxation");
            let exact = brute_force_specialized(&inst).unwrap();
            assert!(
                bound <= exact.period.value() + 1e-6,
                "seed {seed}: root LP bound {bound} exceeds the optimum {}",
                exact.period.value()
            );
            // Dominates the root packing bound: Σ min-contributions / m.
            let lower_demand = inst.demand_lower_bounds().unwrap();
            let packing: f64 = inst
                .application()
                .tasks()
                .map(|task| {
                    let d = match inst.application().successor(task.id) {
                        None => 1.0,
                        Some(succ) => lower_demand[succ.index()],
                    };
                    let best = inst
                        .platform()
                        .machines()
                        .map(|u| inst.effective_time(task.id, u))
                        .fold(f64::INFINITY, f64::min);
                    d * best
                })
                .sum::<f64>()
                / inst.machine_count() as f64;
            assert!(
                bound >= packing - 1e-6,
                "seed {seed}: root LP bound {bound} below the packing bound {packing}"
            );
        }
    }

    #[test]
    fn infeasible_instances_are_rejected() {
        let inst = random_instance(4, 2, 3, 1); // p=3 > m=2
        assert!(branch_and_bound(&inst, BnbConfig::default()).is_err());
    }

    #[test]
    fn handles_in_tree_applications() {
        // The Figure 1 application (a join) with 3 machines.
        let app = Application::paper_figure1();
        let p = app.type_count();
        let n = app.task_count();
        let platform = Platform::from_type_times(
            3,
            (0..p)
                .map(|t| vec![100.0 + 50.0 * t as f64, 200.0, 150.0])
                .collect(),
        )
        .unwrap();
        let failures = FailureModel::uniform(n, 3, FailureRate::new(0.02).unwrap());
        let inst = Instance::new(app, platform, failures).unwrap();
        let exact = brute_force_specialized(&inst).unwrap();
        let bnb = branch_and_bound(&inst, BnbConfig::default()).unwrap();
        assert!((bnb.period.value() - exact.period.value()).abs() < 1e-6);
    }
}
