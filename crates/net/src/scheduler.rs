//! Schedulers executing networks of services.
//!
//! Two orthogonal switches reproduce the paper's discussion:
//!
//! * [`MonitorMode`] — whether the validity premise `⊨ η` is *enforced*
//!   at run time (the paper's semantics), merely *audited* after the run
//!   (the observation mode of the experiments), or fully *off* (§5:
//!   verified plans make any monitoring unnecessary);
//! * [`ChoiceMode`] — *angelic* (the paper's operational semantics: a
//!   transition exists only if both parties agree, so an unreceivable
//!   output is silently avoided) or *committed* (the realistic reading
//!   the paper appeals to when it calls plan `π₂` invalid: "the service
//!   can decide what to send on its own"; a committed unreceivable send
//!   deadlocks the session).
//!
//! The unfailing-services experiment (E8) runs verified plans with the
//! monitor off and committed choices, and checks that no run aborts or
//! deadlocks.

use std::collections::HashSet;

use sufs_rng::Rng;

use crate::faults::{FaultEvent, FaultInjector, FaultKind, FaultPlan, RecoveryTable};
use crate::monitor::{MonitorMode, ValidityMonitor};
use crate::network::Network;
use crate::plan::Plan;
use crate::repository::Repository;
use crate::semantics::{active_services, sess_steps_with_load, SessStep, StepAction};
use crate::session::Sess;
use sufs_hexpr::semantics::successors;
use sufs_hexpr::{Channel, Dir, HistLts, Label, Location, PolicyRef};
use sufs_policy::{HistoryItem, PolicyError, PolicyRegistry};

/// How internal choices are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceMode {
    /// The paper's angelic semantics: only mutually agreeable
    /// communications are enabled.
    Angelic,
    /// Senders commit to an output regardless of the partner's ability
    /// to receive it; an unreceivable committed send deadlocks.
    Committed,
}

/// Why a component could not proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockReason {
    /// No rule applies: typically two parties waiting on each other.
    NoTransitions,
    /// A committed send found no receiver (non-compliance made visible).
    UnmatchedSend {
        /// The channel the sender committed to.
        chan: Channel,
        /// The committed sender.
        sender: Location,
    },
}

/// The terminal status of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every component terminated successfully.
    Completed,
    /// The enforcing monitor blocked every transition of a component:
    /// the execution aborts on a security violation.
    SecurityAbort {
        /// The blocked component.
        component: usize,
        /// The policy whose violation blocked it.
        policy: PolicyRef,
    },
    /// A component is stuck with no applicable transition.
    Deadlock {
        /// The stuck component.
        component: usize,
        /// Why it is stuck.
        reason: DeadlockReason,
    },
    /// The step budget ran out (e.g. a compliant infinite conversation).
    OutOfFuel,
    /// A blocked component exhausted its retries and no fallback plan
    /// could revive it: an injected fault killed the run.
    FaultAbort {
        /// The component that could not be recovered.
        component: usize,
    },
    /// A blocked component exhausted its retries with no recovery
    /// configured.
    TimedOut {
        /// The component that timed out.
        component: usize,
    },
    /// Every component terminated, but only after at least one plan
    /// failover: the run succeeded *via* recovery.
    RecoveredVia {
        /// The (last) recovered component.
        component: usize,
        /// The fallback plan it completed under.
        plan: Plan,
    },
}

impl Outcome {
    /// Returns `true` when every component terminated —
    /// [`Outcome::Completed`], or [`Outcome::RecoveredVia`] when
    /// termination needed a plan failover.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Completed | Outcome::RecoveredVia { .. })
    }
}

/// One scheduled step, for traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The component that moved.
    pub component: usize,
    /// What it did.
    pub action: StepAction,
}

/// The result of running a network.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: Outcome,
    /// The scheduled steps, in order.
    pub trace: Vec<TraceStep>,
    /// The final network configuration.
    pub network: Network,
    /// With the monitor off: policies whose violation the run *would*
    /// have incurred, detected post hoc per component.
    pub violations: Vec<(usize, PolicyRef)>,
    /// Faults injected (and recovery actions taken) during the run, in
    /// order; empty when no fault plan is installed.
    pub faults: Vec<FaultEvent>,
}

/// A scheduler configuration.
#[derive(Debug, Clone)]
pub struct Scheduler<'a> {
    repo: &'a Repository,
    registry: &'a PolicyRegistry,
    monitor: MonitorMode,
    choice: ChoiceMode,
    faults: Option<FaultPlan>,
    recovery: Option<RecoveryTable>,
}

/// Per-run fault-handling state: the injector plus the timeout/retry
/// and failover bookkeeping of each component.
struct FaultState {
    injector: FaultInjector,
    /// Consecutive steps each component spent with no enabled
    /// transition.
    blocked: Vec<usize>,
    /// Retries burnt so far per component (backoff doubles the budget).
    retries: Vec<u32>,
    /// Next untried entry in each component's fallback chain.
    chain_pos: Vec<usize>,
    /// Failovers performed: `(component, plan)` in order.
    recovered: Vec<(usize, Plan)>,
}

impl FaultState {
    fn new(plan: FaultPlan, components: usize) -> Self {
        FaultState {
            injector: FaultInjector::new(plan),
            blocked: vec![0; components],
            retries: vec![0; components],
            chain_pos: vec![0; components],
            recovered: vec![],
        }
    }
}

enum Candidate {
    Step {
        component: usize,
        step: SessStep,
        /// The advanced monitor; `None` when the monitor is off (nothing
        /// is tracked at all — the §5 point).
        monitor: Option<ValidityMonitor>,
    },
    /// Committed choice: a sender inside a session commits to one of its
    /// outputs "regardless of the environment"; the leaf is rewritten to
    /// the single chosen branch. The rewrite is silent (no trace entry)
    /// and may subsequently deadlock the session.
    Commit { component: usize, next_sess: Sess },
}

impl<'a> Scheduler<'a> {
    /// A scheduler over the given repository and policy registry.
    pub fn new(
        repo: &'a Repository,
        registry: &'a PolicyRegistry,
        monitor: MonitorMode,
        choice: ChoiceMode,
    ) -> Self {
        Scheduler {
            repo,
            registry,
            monitor,
            choice,
            faults: None,
            recovery: None,
        }
    }

    /// Installs a fault plan: every run injects the deterministic fault
    /// schedule drawn from `faults.seed` (batch runs derive one seed per
    /// run) and arms the timeout/retry machinery. Without this, the
    /// execution path is byte-identical to the faultless semantics.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Installs fallback chains: a component whose retries are
    /// exhausted fails over to the next chain entry that binds no
    /// crashed or revoked location, restarting its client from scratch
    /// with its history Φ-closed.
    pub fn with_recovery(mut self, recovery: RecoveryTable) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Runs the network under a uniformly random scheduler for at most
    /// `fuel` steps.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] if a policy mentioned by the network
    /// cannot be resolved.
    pub fn run<R: Rng>(
        &self,
        network: Network,
        rng: &mut R,
        fuel: usize,
    ) -> Result<RunResult, PolicyError> {
        self.run_inner(network, rng, fuel, self.faults.clone())
    }

    fn run_inner<R: Rng>(
        &self,
        mut network: Network,
        rng: &mut R,
        fuel: usize,
        faults: Option<FaultPlan>,
    ) -> Result<RunResult, PolicyError> {
        let mut monitors: Vec<ValidityMonitor> = vec![ValidityMonitor::new(); network.len()];
        let mut trace = Vec::new();
        let mut fault_log: Vec<FaultEvent> = Vec::new();
        let mut fstate = faults.map(|fp| FaultState::new(fp, network.len()));
        for tick in 0..fuel {
            if network.is_terminated() {
                let outcome = match fstate.as_ref().and_then(|fs| fs.recovered.last()) {
                    Some((component, plan)) => Outcome::RecoveredVia {
                        component: *component,
                        plan: plan.clone(),
                    },
                    None => Outcome::Completed,
                };
                return self.finish(outcome, trace, network, fault_log);
            }
            let mut candidates = Vec::new();
            let mut aborted: Option<(usize, PolicyRef)> = None;
            // Network-wide per-service load: capacities of bounded
            // services are shared across components.
            let mut total_load = std::collections::BTreeMap::new();
            for comp in network.components() {
                for (loc, n) in active_services(&comp.sess, self.repo) {
                    *total_load.entry(loc).or_insert(0) += n;
                }
            }
            // Fault injection draws happen before candidate collection,
            // on this step's set of engaged services.
            if let Some(fs) = &mut fstate {
                let active: Vec<Location> = total_load.keys().cloned().collect();
                let published: Vec<Location> = self.repo.locations().cloned().collect();
                fs.injector
                    .begin_step(&active, &published, tick, &mut fault_log);
            }
            let mut enabled = vec![false; network.len()];
            for (i, comp) in network.components().iter().enumerate() {
                if comp.is_terminated() {
                    continue;
                }
                let raw = sess_steps_with_load(&comp.sess, &comp.plan, self.repo, &total_load);
                for step in raw {
                    if let Some(fs) = &fstate {
                        if fs.injector.blocks(&step.action) {
                            continue;
                        }
                    }
                    match self.monitor {
                        MonitorMode::Enforcing => {
                            let mut m = monitors[i].clone();
                            let violation = m.observe_all(&step.delta, self.registry)?;
                            if let Some(p) = violation {
                                // Pruned by the monitor; remember the
                                // policy for the abort diagnosis.
                                if aborted.is_none() {
                                    aborted = Some((i, p));
                                }
                            } else {
                                enabled[i] = true;
                                candidates.push(Candidate::Step {
                                    component: i,
                                    step,
                                    monitor: Some(m),
                                });
                            }
                        }
                        MonitorMode::Audit | MonitorMode::Off => {
                            // §5: nothing is observed, nothing is checked
                            // during the run.
                            enabled[i] = true;
                            candidates.push(Candidate::Step {
                                component: i,
                                step,
                                monitor: None,
                            });
                        }
                    }
                }
                if self.choice == ChoiceMode::Committed {
                    for next_sess in commitments(&comp.sess) {
                        enabled[i] = true;
                        candidates.push(Candidate::Commit {
                            component: i,
                            next_sess,
                        });
                    }
                }
            }
            // Timeout/retry/failover: with faults armed, a blocked
            // component waits with exponential backoff instead of
            // deadlocking the run immediately.
            if let Some(fs) = &mut fstate {
                for (i, &live) in enabled.iter().enumerate() {
                    if network.components()[i].is_terminated() || live {
                        fs.blocked[i] = 0;
                        continue;
                    }
                    fs.blocked[i] += 1;
                    if fs.blocked[i] <= fs.injector.plan().budget(fs.retries[i]) {
                        continue;
                    }
                    if fs.retries[i] < fs.injector.plan().max_retries {
                        fs.retries[i] += 1;
                        fs.blocked[i] = 0;
                        fault_log.push(FaultEvent {
                            step: tick,
                            kind: FaultKind::Timeout {
                                component: i,
                                retry: fs.retries[i],
                            },
                        });
                        continue;
                    }
                    // Retries exhausted: escalate to plan failover.
                    if self.try_failover(
                        i,
                        &mut network,
                        fs,
                        &mut monitors,
                        &mut fault_log,
                        tick,
                    )? {
                        continue;
                    }
                    let outcome = if self.recovery.is_some() {
                        Outcome::FaultAbort { component: i }
                    } else {
                        Outcome::TimedOut { component: i }
                    };
                    return self.finish(outcome, trace, network, fault_log);
                }
                if candidates.is_empty() {
                    // Everyone is blocked: let the timeout clocks tick.
                    continue;
                }
            } else if candidates.is_empty() {
                let outcome = match aborted {
                    Some((component, policy)) => Outcome::SecurityAbort { component, policy },
                    None => {
                        let component = network
                            .components()
                            .iter()
                            .position(|c| !c.is_terminated())
                            .unwrap_or(0);
                        let reason = diagnose_deadlock(&network.components()[component].sess);
                        Outcome::Deadlock { component, reason }
                    }
                };
                return self.finish(outcome, trace, network, fault_log);
            }
            let pick = rng.gen_range(0..candidates.len());
            match candidates.swap_remove(pick) {
                Candidate::Step {
                    component,
                    step,
                    monitor,
                } => {
                    if let StepAction::Synch {
                        chan,
                        sender,
                        receiver,
                    } = &step.action
                    {
                        if let Some(fs) = &mut fstate {
                            if fs.injector.drop_synch() {
                                // Message lost: neither party advances;
                                // the synch stays enabled and will be
                                // retransmitted on a later pick.
                                fault_log.push(FaultEvent {
                                    step: tick,
                                    kind: FaultKind::DropSynch {
                                        chan: chan.clone(),
                                        sender: sender.clone(),
                                        receiver: receiver.clone(),
                                    },
                                });
                                continue;
                            }
                        }
                    }
                    trace.push(TraceStep {
                        component,
                        action: step.action.clone(),
                    });
                    let comp = network.component_mut(component);
                    comp.history.extend(step.delta);
                    comp.sess = step.next;
                    if let Some(m) = monitor {
                        monitors[component] = m;
                    }
                }
                Candidate::Commit {
                    component,
                    next_sess,
                } => {
                    network.component_mut(component).sess = next_sess;
                }
            }
        }
        self.finish(Outcome::OutOfFuel, trace, network, fault_log)
    }

    /// Fails component `i` over to the next usable fallback plan, if
    /// any: the chain entry must differ from the current plan and bind
    /// no crashed, revoked or unpublished location. On success the
    /// component's history is Φ-closed (every dangling frame gets its
    /// `⌟φ`, so each policy window is checked separately and the restart
    /// cannot create cross-window violations), its session tree resets
    /// to the original client leaf, and the timeout clock restarts.
    fn try_failover(
        &self,
        i: usize,
        network: &mut Network,
        fs: &mut FaultState,
        monitors: &mut [ValidityMonitor],
        fault_log: &mut Vec<FaultEvent>,
        tick: usize,
    ) -> Result<bool, PolicyError> {
        let Some(table) = &self.recovery else {
            return Ok(false);
        };
        let chain = table.chain(i);
        let current = network.components()[i].plan.clone();
        while fs.chain_pos[i] < chain.len() {
            let candidate = chain[fs.chain_pos[i]].clone();
            fs.chain_pos[i] += 1;
            if candidate == current {
                continue;
            }
            let usable = candidate
                .iter()
                .all(|(_, loc)| !fs.injector.is_dead(loc) && self.repo.get(loc).is_some());
            if !usable {
                continue;
            }
            let comp = network.component_mut(i);
            let closes: Vec<HistoryItem> = comp
                .history
                .pending_opens()
                .into_iter()
                .rev()
                .map(HistoryItem::Close)
                .collect();
            if self.monitor == MonitorMode::Enforcing {
                // Keep the incremental monitor in sync with the Φ-closed
                // history (closings cannot introduce a violation).
                monitors[i].observe_all(&closes, self.registry)?;
            }
            comp.history.extend(closes);
            comp.sess = Sess::leaf(comp.origin_loc.clone(), comp.origin_client.clone());
            comp.plan = candidate.clone();
            fs.blocked[i] = 0;
            fs.retries[i] = 0;
            fs.recovered.push((i, candidate.clone()));
            fault_log.push(FaultEvent {
                step: tick,
                kind: FaultKind::Failover {
                    component: i,
                    plan: candidate,
                },
            });
            return Ok(true);
        }
        Ok(false)
    }

    fn finish(
        &self,
        outcome: Outcome,
        trace: Vec<TraceStep>,
        network: Network,
        faults: Vec<FaultEvent>,
    ) -> Result<RunResult, PolicyError> {
        let mut violations = Vec::new();
        if self.monitor == MonitorMode::Audit {
            for (i, comp) in network.components().iter().enumerate() {
                if let Some((_, p)) = comp.history.first_violation(self.registry)? {
                    violations.push((i, p));
                }
            }
        }
        Ok(RunResult {
            outcome,
            trace,
            network,
            violations,
            faults,
        })
    }
}

/// Aggregate statistics over repeated runs of the same network: the
/// empirical counterpart of the §5 guarantee ("how often did anything
/// bad happen?").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Number of runs performed.
    pub runs: usize,
    /// Runs in which every component terminated.
    pub completed: usize,
    /// Runs ending in a deadlock.
    pub deadlocks: usize,
    /// Runs aborted by the enforcing monitor.
    pub aborts: usize,
    /// Runs that exhausted their step budget.
    pub out_of_fuel: usize,
    /// Runs that (with the monitor off) incurred at least one policy
    /// violation.
    pub violating_runs: usize,
    /// Total scheduled steps across all runs.
    pub total_steps: usize,
    /// Runs ending with a component out of retries and no recovery
    /// configured.
    pub timed_out: usize,
    /// Runs ending with a component out of retries and its fallback
    /// chain exhausted.
    pub fault_aborts: usize,
    /// Runs that completed only after at least one plan failover.
    pub recovered: usize,
    /// Total injected fault events across all runs.
    pub faults_injected: usize,
}

impl BatchSummary {
    /// Returns `true` if no run failed in any way: the §5 prediction for
    /// a verified plan. Runs that completed via failover count as
    /// successes — unfailing means the service was always delivered, not
    /// that nothing ever broke.
    pub fn is_unfailing(&self) -> bool {
        self.deadlocks == 0
            && self.aborts == 0
            && self.violating_runs == 0
            && self.timed_out == 0
            && self.fault_aborts == 0
    }

    /// Returns `true` if no run violated a policy — monitor aborts and
    /// audited violations both count against it, liveness failures
    /// (deadlock, timeout, fuel) do not. Faults may stop a statically
    /// valid plan from finishing; they must never make it misbehave.
    pub fn is_secure(&self) -> bool {
        self.aborts == 0 && self.violating_runs == 0
    }
}

impl std::fmt::Display for BatchSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} runs: {} completed, {} deadlocked, {} aborted, {} out of fuel, {} violating ({} steps total)",
            self.runs,
            self.completed,
            self.deadlocks,
            self.aborts,
            self.out_of_fuel,
            self.violating_runs,
            self.total_steps
        )?;
        if self.timed_out + self.fault_aborts + self.recovered + self.faults_injected > 0 {
            write!(
                f,
                "; faults: {} injected, {} recovered, {} timed out, {} fault-aborted",
                self.faults_injected, self.recovered, self.timed_out, self.fault_aborts
            )?;
        }
        Ok(())
    }
}

impl<'a> Scheduler<'a> {
    /// Runs fresh copies of `network` `runs` times and aggregates the
    /// outcomes.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] if a policy cannot be resolved.
    pub fn run_batch<R: Rng>(
        &self,
        network: &Network,
        runs: usize,
        rng: &mut R,
        fuel: usize,
    ) -> Result<BatchSummary, PolicyError> {
        let mut summary = BatchSummary {
            runs,
            ..BatchSummary::default()
        };
        for i in 0..runs {
            // Each batch run gets its own derived fault seed, so the
            // whole batch stays a pure function of the plan seed.
            let faults = self.faults.clone().map(|f| {
                let seed = f.seed.wrapping_add(i as u64);
                f.with_seed(seed)
            });
            let result = self.run_inner(network.clone(), rng, fuel, faults)?;
            match result.outcome {
                Outcome::Completed => summary.completed += 1,
                Outcome::Deadlock { .. } => summary.deadlocks += 1,
                Outcome::SecurityAbort { .. } => summary.aborts += 1,
                Outcome::OutOfFuel => summary.out_of_fuel += 1,
                Outcome::TimedOut { .. } => summary.timed_out += 1,
                Outcome::FaultAbort { .. } => summary.fault_aborts += 1,
                Outcome::RecoveredVia { .. } => {
                    summary.completed += 1;
                    summary.recovered += 1;
                }
            }
            if !result.violations.is_empty() {
                summary.violating_runs += 1;
            }
            summary.total_steps += result.trace.len();
            summary.faults_injected += result.faults.len();
        }
        Ok(summary)
    }
}

/// All single-branch commitments available in a session tree: for every
/// leaf *inside a session* whose enabled actions are two or more
/// outputs, one rewritten tree per output the sender could commit to.
fn commitments(sess: &Sess) -> Vec<Sess> {
    let mut out = Vec::new();
    collect_commitments(sess, false, &mut out);
    out
}

fn collect_commitments(sess: &Sess, in_session: bool, out: &mut Vec<Sess>) {
    match sess {
        Sess::Leaf(loc, h) => {
            if !in_session {
                return; // a top-level leaf has no partner to send to
            }
            let outputs: Vec<(Channel, sufs_hexpr::Hist)> = successors(h)
                .into_iter()
                .filter_map(|(l, cont)| match l {
                    Label::Chan(c, Dir::Out) => Some((c, cont)),
                    _ => None,
                })
                .collect();
            if outputs.len() < 2 {
                return; // nothing to decide
            }
            for (c, cont) in outputs {
                let committed = sufs_hexpr::Hist::int_([(c, cont)]);
                out.push(Sess::leaf(loc.clone(), committed));
            }
        }
        Sess::Pair(s1, s2) => {
            let mut left = Vec::new();
            collect_commitments(s1, true, &mut left);
            for l in left {
                out.push(Sess::pair(l, (**s2).clone()));
            }
            let mut right = Vec::new();
            collect_commitments(s2, true, &mut right);
            for r in right {
                out.push(Sess::pair((**s1).clone(), r));
            }
        }
    }
}

/// Classifies a deadlocked session tree: if some innermost pair has a
/// sender whose enabled output the partner can never receive (no
/// matching input anywhere in the partner's own reachable behaviour),
/// the deadlock is an unmatched send; otherwise it is a generic
/// circular/missing-transition deadlock.
fn diagnose_deadlock(sess: &Sess) -> DeadlockReason {
    if let Some((chan, sender)) = find_unmatched_send(sess) {
        DeadlockReason::UnmatchedSend { chan, sender }
    } else {
        DeadlockReason::NoTransitions
    }
}

fn find_unmatched_send(sess: &Sess) -> Option<(Channel, Location)> {
    let Sess::Pair(s1, s2) = sess else {
        return None;
    };
    if let Some(found) = find_unmatched_send(s1) {
        return Some(found);
    }
    if let Some(found) = find_unmatched_send(s2) {
        return Some(found);
    }
    let (Sess::Leaf(l1, h1), Sess::Leaf(l2, h2)) = (&**s1, &**s2) else {
        return None;
    };
    for (loc, h, partner) in [(l1, h1, h2), (l2, h2, h1)] {
        // The partner's LTS is built at most once per pair, on the
        // sender's first enabled output.
        let mut inputs = None;
        for (label, _) in successors(h) {
            if let Label::Chan(c, Dir::Out) = &label {
                let inputs = inputs.get_or_insert_with(|| receivable_inputs(partner));
                if inputs.as_ref().is_some_and(|set| !set.contains(c)) {
                    return Some((c.clone(), loc.clone()));
                }
            }
        }
    }
    None
}

/// Every input some state of the partner's stand-alone LTS offers.
/// `None` when the LTS exceeds the default bound (only an ill-formed
/// partner's can): such a partner is not blamed.
fn receivable_inputs(h: &sufs_hexpr::Hist) -> Option<HashSet<Channel>> {
    let lts = HistLts::build(h).ok()?;
    let inputs = lts.iter_edges().filter_map(|(_, label, _)| match label {
        Label::Chan(c, Dir::In) => Some(c.clone()),
        _ => None,
    });
    Some(inputs.collect())
}

/// Convenience: builds a single-client network and runs it.
///
/// # Errors
///
/// Returns a [`PolicyError`] if a policy cannot be resolved.
#[allow(clippy::too_many_arguments)]
pub fn run_client<R: Rng>(
    loc: impl Into<Location>,
    client: sufs_hexpr::Hist,
    plan: Plan,
    repo: &Repository,
    registry: &PolicyRegistry,
    monitor: MonitorMode,
    choice: ChoiceMode,
    rng: &mut R,
) -> Result<RunResult, PolicyError> {
    let mut network = Network::new();
    network.add_client(loc, client, plan);
    Scheduler::new(repo, registry, monitor, choice).run(network, rng, 10_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::builder::*;
    use sufs_hexpr::parse_hist;
    use sufs_policy::catalog;
    use sufs_rng::SeedableRng;
    use sufs_rng::StdRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn simple_repo() -> Repository {
        let mut repo = Repository::new();
        repo.publish(
            "ok_srv",
            parse_hist("ext[req -> int[ok -> eps | no -> eps]]").unwrap(),
        );
        repo.publish(
            "flaky_srv",
            parse_hist("ext[req -> int[ok -> eps | no -> eps | del -> eps]]").unwrap(),
        );
        repo
    }

    fn simple_client() -> sufs_hexpr::Hist {
        request(
            1,
            None,
            seq([send("req", eps()), offer([("ok", eps()), ("no", eps())])]),
        )
    }

    #[test]
    fn compliant_plan_completes() {
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        let r = run_client(
            "c1",
            simple_client(),
            Plan::new().with(1u32, "ok_srv"),
            &repo,
            &reg,
            MonitorMode::Off,
            ChoiceMode::Committed,
            &mut rng(),
        )
        .unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.violations.is_empty());
        assert!(r.network.is_terminated());
        // open, synch req, synch answer, close = 4 steps
        assert_eq!(r.trace.len(), 4);
    }

    #[test]
    fn non_compliant_plan_deadlocks_under_committed_choice() {
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        // Run many times: the flaky service eventually commits to `del`.
        let mut saw_unmatched = false;
        let mut r = rng();
        for _ in 0..50 {
            let res = run_client(
                "c1",
                simple_client(),
                Plan::new().with(1u32, "flaky_srv"),
                &repo,
                &reg,
                MonitorMode::Off,
                ChoiceMode::Committed,
                &mut r,
            )
            .unwrap();
            if let Outcome::Deadlock {
                reason: DeadlockReason::UnmatchedSend { chan, .. },
                ..
            } = &res.outcome
            {
                assert_eq!(chan, &Channel::new("del"));
                saw_unmatched = true;
            }
        }
        assert!(saw_unmatched, "the committed del-send never materialised");
    }

    #[test]
    fn angelic_mode_avoids_the_bad_send() {
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        let mut r = rng();
        for _ in 0..20 {
            let res = run_client(
                "c1",
                simple_client(),
                Plan::new().with(1u32, "flaky_srv"),
                &repo,
                &reg,
                MonitorMode::Off,
                ChoiceMode::Angelic,
                &mut r,
            )
            .unwrap();
            assert_eq!(res.outcome, Outcome::Completed);
        }
    }

    #[test]
    fn enforcing_monitor_aborts_on_violation() {
        let mut reg = PolicyRegistry::new();
        reg.register(catalog::no_after("read", "write"));
        let phi = sufs_hexpr::PolicyRef::nullary("no_write_after_read");
        let client = framed(phi.clone(), seq([ev0("read"), ev0("write")]));
        let r = run_client(
            "c1",
            client,
            Plan::new(),
            &Repository::new(),
            &reg,
            MonitorMode::Enforcing,
            ChoiceMode::Angelic,
            &mut rng(),
        )
        .unwrap();
        assert_eq!(
            r.outcome,
            Outcome::SecurityAbort {
                component: 0,
                policy: phi
            }
        );
    }

    #[test]
    fn monitor_off_records_violation_post_hoc() {
        let mut reg = PolicyRegistry::new();
        reg.register(catalog::no_after("read", "write"));
        let phi = sufs_hexpr::PolicyRef::nullary("no_write_after_read");
        let client = framed(phi.clone(), seq([ev0("read"), ev0("write")]));
        let r = run_client(
            "c1",
            client,
            Plan::new(),
            &Repository::new(),
            &reg,
            MonitorMode::Audit,
            ChoiceMode::Angelic,
            &mut rng(),
        )
        .unwrap();
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.violations, vec![(0, phi)]);
    }

    #[test]
    fn angelic_monitor_picks_safe_branch() {
        // One branch violates, the other does not: angelic
        // non-determinism proceeds through the safe one.
        let mut reg = PolicyRegistry::new();
        reg.register(catalog::no_after("read", "write"));
        let phi = sufs_hexpr::PolicyRef::nullary("no_write_after_read");
        let client = framed(
            phi,
            seq([
                ev0("read"),
                offer([("risky", ev0("write")), ("safe", ev0("noop"))]),
            ]),
        );
        // The client waits on an external choice served by a service that
        // could send either; pair it with a service sending both options.
        let client = request(1, None, client);
        let mut repo = Repository::new();
        repo.publish(
            "srv",
            parse_hist("int[risky -> eps | safe -> eps]").unwrap(),
        );
        let mut completed = 0;
        let mut aborted = 0;
        let mut r = rng();
        for _ in 0..40 {
            let res = run_client(
                "c1",
                client.clone(),
                Plan::new().with(1u32, "srv"),
                &Repository::clone(&repo),
                &reg,
                MonitorMode::Enforcing,
                ChoiceMode::Angelic,
                &mut r,
            )
            .unwrap();
            match res.outcome {
                Outcome::Completed => completed += 1,
                Outcome::SecurityAbort { .. } => aborted += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        // The synchronisation itself appends no history, so the monitor
        // cannot steer the choice: runs through the safe branch complete,
        // runs through the risky branch abort at the blocked #write.
        assert!(completed > 0, "safe branch never scheduled");
        assert!(aborted > 0, "risky branch never scheduled");
        assert_eq!(completed + aborted, 40);
    }

    #[test]
    fn out_of_fuel_on_infinite_conversation() {
        let client = request(
            1,
            None,
            loop_("h", choose([("ping", recv("pong", jump("h")))])),
        );
        let mut repo = Repository::new();
        repo.publish(
            "srv",
            parse_hist("mu k. ext[ping -> int[pong -> k]]").unwrap(),
        );
        let reg = PolicyRegistry::new();
        let mut network = Network::new();
        network.add_client("c1", client, Plan::new().with(1u32, "srv"));
        let res = Scheduler::new(&repo, &reg, MonitorMode::Off, ChoiceMode::Angelic)
            .run(network, &mut rng(), 500)
            .unwrap();
        assert_eq!(res.outcome, Outcome::OutOfFuel);
        assert_eq!(res.trace.len(), 500);
    }

    #[test]
    fn two_clients_interleave() {
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        let mut network = Network::new();
        network.add_client("c1", simple_client(), Plan::new().with(1u32, "ok_srv"));
        network.add_client("c2", simple_client(), Plan::new().with(1u32, "ok_srv"));
        let res = Scheduler::new(&repo, &reg, MonitorMode::Off, ChoiceMode::Angelic)
            .run(network, &mut rng(), 1000)
            .unwrap();
        assert_eq!(res.outcome, Outcome::Completed);
        let movers: std::collections::BTreeSet<usize> =
            res.trace.iter().map(|t| t.component).collect();
        assert_eq!(movers.len(), 2);
    }

    #[test]
    fn batch_summary_aggregates() {
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        let mut network = Network::new();
        network.add_client("c1", simple_client(), Plan::new().with(1u32, "ok_srv"));
        let summary = Scheduler::new(&repo, &reg, MonitorMode::Off, ChoiceMode::Angelic)
            .run_batch(&network, 25, &mut rng(), 1000)
            .unwrap();
        assert_eq!(summary.runs, 25);
        assert_eq!(summary.completed, 25);
        assert!(summary.is_unfailing());
        assert_eq!(summary.total_steps, 25 * 4);
        assert!(summary.to_string().contains("25 runs"));

        // Against the flaky service, committed choices must show some
        // deadlocks.
        let mut network = Network::new();
        network.add_client("c1", simple_client(), Plan::new().with(1u32, "flaky_srv"));
        let summary = Scheduler::new(&repo, &reg, MonitorMode::Off, ChoiceMode::Committed)
            .run_batch(&network, 100, &mut rng(), 1000)
            .unwrap();
        assert!(summary.deadlocks > 0);
        assert!(!summary.is_unfailing());
        assert_eq!(summary.completed + summary.deadlocks, 100);
    }

    #[test]
    fn empty_batch_is_vacuously_unfailing() {
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        let mut network = Network::new();
        network.add_client("c1", simple_client(), Plan::new().with(1u32, "ok_srv"));
        let summary = Scheduler::new(&repo, &reg, MonitorMode::Off, ChoiceMode::Angelic)
            .run_batch(&network, 0, &mut rng(), 1000)
            .unwrap();
        assert_eq!(summary.runs, 0);
        assert_eq!(summary.total_steps, 0);
        assert!(summary.is_unfailing());
        assert!(summary.is_secure());
        assert!(summary.to_string().starts_with("0 runs"));
    }

    #[test]
    fn all_stuck_batch_is_failing_but_secure() {
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        let mut network = Network::new();
        // Request 1 unbound: every single run deadlocks immediately.
        network.add_client("c1", simple_client(), Plan::new());
        let summary = Scheduler::new(&repo, &reg, MonitorMode::Off, ChoiceMode::Angelic)
            .run_batch(&network, 10, &mut rng(), 1000)
            .unwrap();
        assert_eq!(summary.deadlocks, 10);
        assert_eq!(summary.completed, 0);
        assert!(!summary.is_unfailing());
        // Liveness failed, security did not: nothing was violated.
        assert!(summary.is_secure());
    }

    #[test]
    fn mixed_batch_separates_liveness_from_security() {
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        let mut network = Network::new();
        network.add_client("c1", simple_client(), Plan::new().with(1u32, "flaky_srv"));
        let summary = Scheduler::new(&repo, &reg, MonitorMode::Off, ChoiceMode::Committed)
            .run_batch(&network, 100, &mut rng(), 1000)
            .unwrap();
        assert!(summary.completed > 0, "some schedules avoid `del`");
        assert!(summary.deadlocks > 0, "some schedules commit to `del`");
        assert_eq!(summary.completed + summary.deadlocks, 100);
        assert!(!summary.is_unfailing());
        assert!(summary.is_secure(), "non-compliance is not a violation");
    }

    #[test]
    fn deadlock_reasons_classify_stuck_and_unmatched() {
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        // Unbound request: no rule applies at all.
        let res = run_client(
            "c1",
            simple_client(),
            Plan::new(),
            &repo,
            &reg,
            MonitorMode::Off,
            ChoiceMode::Committed,
            &mut rng(),
        )
        .unwrap();
        assert!(matches!(
            res.outcome,
            Outcome::Deadlock {
                reason: DeadlockReason::NoTransitions,
                ..
            }
        ));
        // The flaky service committed to `del`: an unmatched send, with
        // the offending channel and sender named.
        let mut r = rng();
        let mut seen = None;
        for _ in 0..50 {
            let res = run_client(
                "c1",
                simple_client(),
                Plan::new().with(1u32, "flaky_srv"),
                &repo,
                &reg,
                MonitorMode::Off,
                ChoiceMode::Committed,
                &mut r,
            )
            .unwrap();
            if let Outcome::Deadlock {
                reason: DeadlockReason::UnmatchedSend { chan, sender },
                ..
            } = res.outcome
            {
                seen = Some((chan, sender));
                break;
            }
        }
        let (chan, sender) = seen.expect("an unmatched del-send in 50 committed runs");
        assert_eq!(chan, Channel::new("del"));
        assert_eq!(sender, Location::new("flaky_srv"));
    }

    #[test]
    fn unmatched_send_is_found_among_several_outputs() {
        // A leaf offering three outputs to a partner that receives only
        // two of them: the third is the unmatched send, blamed on the
        // sender, whatever the order of the outputs.
        let partner = parse_hist("ext[a -> eps | b -> eps]").unwrap();
        let pair = |sender: &str| {
            Sess::pair(
                Sess::leaf("c1", parse_hist(sender).unwrap()),
                Sess::leaf("srv", partner.clone()),
            )
        };
        for sender in [
            "int[a -> eps | b -> eps | z -> eps]",
            "int[z -> eps | a -> eps | b -> eps]",
        ] {
            assert_eq!(
                find_unmatched_send(&pair(sender)),
                Some((Channel::new("z"), Location::new("c1"))),
                "{sender}"
            );
        }
        // Every output receivable: nothing to blame.
        assert_eq!(find_unmatched_send(&pair("int[a -> eps | b -> eps]")), None);
    }

    #[test]
    fn fault_free_scheduler_with_armed_injector_keeps_the_trace() {
        // Belt and braces for the zero-fault path: arming a rate-zero
        // injector must not shift the scheduler's random stream.
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        let run = |faulty: bool| {
            let mut network = Network::new();
            network.add_client("c1", simple_client(), Plan::new().with(1u32, "ok_srv"));
            let mut s = Scheduler::new(&repo, &reg, MonitorMode::Off, ChoiceMode::Committed);
            if faulty {
                s = s.with_faults(FaultPlan::default().with_seed(99));
            }
            s.run(network, &mut rng(), 1000).unwrap()
        };
        let plain = run(false);
        let armed = run(true);
        assert_eq!(plain.trace, armed.trace);
        assert_eq!(plain.outcome, armed.outcome);
        assert!(armed.faults.is_empty());
    }

    #[test]
    fn timeout_escalates_without_recovery() {
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        let mut network = Network::new();
        // Unbound request + armed faults: instead of an instant deadlock
        // the component burns its retries, then times out.
        network.add_client("c1", simple_client(), Plan::new());
        let scheduler = Scheduler::new(&repo, &reg, MonitorMode::Off, ChoiceMode::Angelic)
            .with_faults(FaultPlan::default().with_seed(1).with_timeout(4, 2));
        let res = scheduler.run(network, &mut rng(), 1000).unwrap();
        assert_eq!(res.outcome, Outcome::TimedOut { component: 0 });
        let retries = res
            .faults
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Timeout { .. }))
            .count();
        assert_eq!(retries, 2, "both retries must be logged: {:?}", res.faults);
    }

    #[test]
    fn missing_plan_binding_deadlocks() {
        let repo = simple_repo();
        let reg = PolicyRegistry::new();
        let res = run_client(
            "c1",
            simple_client(),
            Plan::new(), // request 1 unbound
            &repo,
            &reg,
            MonitorMode::Off,
            ChoiceMode::Angelic,
            &mut rng(),
        )
        .unwrap();
        assert_eq!(
            res.outcome,
            Outcome::Deadlock {
                component: 0,
                reason: DeadlockReason::NoTransitions
            }
        );
    }
}
