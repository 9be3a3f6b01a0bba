//! The lint passes, one module per diagnostic code, behind the common
//! [`Pass`] trait.

use crate::context::LintContext;
use crate::diag::{Code, Diagnostic};

mod capacity_deadlock_cycle;
mod dead_service;
mod empty_plan_space;
mod plan_contention;
mod policy_subsumption;
mod single_point_of_failure;
mod unbalanced_framing;
mod unreachable_event;
mod unresolved_policy;
mod vacuous_policy;

pub use capacity_deadlock_cycle::CapacityDeadlockCycle;
pub use dead_service::DeadService;
pub use empty_plan_space::EmptyPlanSpace;
pub use plan_contention::PlanContention;
pub use policy_subsumption::PolicySubsumption;
pub use single_point_of_failure::SinglePointOfFailure;
pub use unbalanced_framing::UnbalancedFraming;
pub use unreachable_event::UnreachableEvent;
pub use unresolved_policy::UnresolvedPolicy;
pub use vacuous_policy::VacuousPolicy;

/// One kind of declaration a pass reads. The incremental engine
/// fingerprints each kind over the live state and re-runs a pass only
/// when a kind it depends on changed (see
/// [`crate::engine::LintEngine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dep {
    /// Client behaviours (names and histories).
    Clients,
    /// Published service behaviours.
    Services,
    /// Service capacity annotations.
    Capacities,
    /// Policy definitions.
    Policies,
    /// Quantitative budgets.
    Budgets,
    /// The ground event alphabet together with every policy reference
    /// and its origin (subject and position): what the context derives
    /// from clients and services that the policy-language passes read.
    Vocabulary,
}

/// One lint pass: a self-contained analysis emitting diagnostics of a
/// single code.
pub trait Pass {
    /// The code this pass emits.
    fn code(&self) -> Code;

    /// The pass name (kebab case, same as the code's).
    fn name(&self) -> &'static str {
        self.code().name()
    }

    /// One sentence on what the pass looks for.
    fn description(&self) -> &'static str;

    /// The kinds of declaration the pass's verdict can depend on. The
    /// incremental engine reuses the pass's previous diagnostics
    /// verbatim when none of these changed, so omitting a kind that the
    /// pass actually reads is a soundness bug (caught by the
    /// incremental-equivalence property suite).
    fn deps(&self) -> &'static [Dep];

    /// Runs the pass over the precomputed context.
    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic>;
}

/// Every pass, in diagnostic-code order.
pub fn all() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(UnreachableEvent),
        Box::new(VacuousPolicy),
        Box::new(PolicySubsumption),
        Box::new(UnbalancedFraming),
        Box::new(DeadService),
        Box::new(PlanContention),
        Box::new(EmptyPlanSpace),
        Box::new(UnresolvedPolicy),
        Box::new(CapacityDeadlockCycle),
        Box::new(SinglePointOfFailure),
    ]
}
