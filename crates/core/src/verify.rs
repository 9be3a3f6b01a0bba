//! The verification pipeline (§4–§5): from a client and a repository to
//! the set of **valid plans**.
//!
//! For each candidate plan the verifier checks:
//!
//! 1. **Compliance** (§4): for every request `open_{r,φ} H₁ close_{r,φ}`
//!    of the composed service, `H₁! ⊢ H₂!` where `H₂` is the service the
//!    plan selects for `r` — decided by Theorem 1's product automaton;
//! 2. **Security** (§3.1): the symbolic state space of the client under
//!    the plan is model-checked against every policy it activates;
//! 3. **Progress**: no stuck configuration is reachable (this subsumes
//!    per-request compliance but also covers unbound requests and
//!    cross-session blocking, and produces scheduler-level witnesses).
//!
//! Checks 2 and 3 share one exploration: [`symbolic::explore`] builds
//! the plan's symbolic state space once, with the workspace's one
//! breadth-first explorer, as a graph over integer state ids. One pass
//! over its labels collects the policies to instantiate and the events
//! the plan's runs fire ([`PlanReach`], which lint reads instead of
//! exploring again). Security is [`check_explored`] over the graph's
//! borrowed edges, a product search on the same explorer that stops at
//! the first offending edge, and progress is the graph's first stuck
//! state with its breadth-first path. Both read the same witnesses as
//! two literal walks over [`sufs_net::SymState`]s: the two-phase
//! validity walk kept in `tests/verdict_equiv.rs` and the progress
//! oracle [`sufs_net::find_stuck`], which together are that suite's
//! differential oracle.
//!
//! A plan passing all three is *valid*: "switch off any run-time
//! monitor, and live happily: nothing bad will happen" (§5).
//!
//! # Engines
//!
//! [`synthesize`] answers with one of two engines ([`Engine`]):
//!
//! * the **enumerative reference** — the paper's literal §5 procedure,
//!   transcribed from Defs. 2–5: enumerate every candidate plan, then
//!   run the three checks on each, sequentially and without memoising
//!   anything. It is the differential oracle the product is tested
//!   against, not a production path. With [`SynthesisOptions::prune`]
//!   the same depth-first search cuts a subtree the moment a binding
//!   `r ↦ ℓ` fails its pairwise compliance check. The cut is *sound*:
//!   the failing pair is re-checked in every completion, so every plan
//!   in the subtree would be rejected anyway. Pruning on policy
//!   verdicts would not be, because policies are history-dependent and
//!   a violating session may be unreachable in a larger composition.
//!   Pruning switches itself off when one request identifier occurs
//!   with two structurally different bodies (the composed body would
//!   then be ambiguous at cut time);
//! * the **composed product** ([`crate::product`]) — the production
//!   engine, whose report equals the pruned reference's.
//!
//! Unpruned, the report lists every candidate. Pruned, the *valid* plan
//! set is identical, while compliance-rejected plans may be cut before
//! they reach the report.

use std::collections::{btree_map, BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::{CacheStats, VerifyCache};
use crate::plans::{composed_requests, surviving_plans, PlanSpaceExceeded, DEFAULT_PLAN_CAP};
use crate::product::ProductInfo;
use crate::report::VerifyReport;
use sufs_contract::{compliant, Contract, ContractError, StuckWitness};
use sufs_hexpr::requests::{requests, RequestInfo};
use sufs_hexpr::wf::{self, WfError};
use sufs_hexpr::{Event, Hist, Location, RequestId};
use sufs_net::symbolic::{self, StuckState};
use sufs_net::{Plan, Repository};
use sufs_policy::validity::{
    check_explored, GraphLabels, SecurityViolation, ValidityError, Verdict,
};
use sufs_policy::PolicyRegistry;

/// The bound on symbolic states per plan. It caps the explored graph
/// (a larger one is [`ValidityError::BoundExceeded`], reported before
/// any policy is resolved) and, separately, the security product of
/// graph states and policy-automaton tracks.
pub const DEFAULT_STATE_BOUND: usize = 1 << 18;

/// One reason a plan is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A request has no binding in the plan (the composition is not even
    /// executable).
    UnboundRequest {
        /// The unbound request.
        request: RequestId,
    },
    /// A request is bound to a location the repository does not publish,
    /// so the plan can never be executed against this repository.
    UnknownLocation {
        /// The request bound to a missing service.
        request: RequestId,
        /// The location the plan names but the repository lacks.
        location: Location,
    },
    /// The client side of a request and the selected service are not
    /// compliant (Definition 4 fails, with a Theorem 1 witness).
    NonCompliant {
        /// The request whose session may get stuck.
        request: RequestId,
        /// The selected service.
        service: Location,
        /// The product-automaton counterexample.
        witness: StuckWitness,
    },
    /// A reachable history violates an active security policy.
    Security(SecurityViolation),
    /// A stuck configuration is reachable in the composed execution.
    Stuck(StuckState),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnboundRequest { request } => {
                write!(f, "request {request} is not bound by the plan")
            }
            Violation::UnknownLocation { request, location } => {
                write!(
                    f,
                    "request {request} is bound to {location}, which is not in the repository"
                )
            }
            Violation::NonCompliant {
                request,
                service,
                witness,
            } => write!(f, "request {request} vs {service}: {witness}"),
            Violation::Security(v) => write!(f, "{v}"),
            Violation::Stuck(s) => write!(f, "{s}"),
        }
    }
}

impl Violation {
    /// Returns `true` for the two "the plan does not even name a real
    /// service" violations, which make a reported stuck state redundant.
    fn is_binding_failure(&self) -> bool {
        matches!(
            self,
            Violation::UnboundRequest { .. } | Violation::UnknownLocation { .. }
        )
    }
}

/// The verdict for one candidate plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanVerdict {
    /// The plan.
    pub plan: Plan,
    /// Every violation found (empty ⟺ the plan is valid).
    pub violations: Vec<Violation>,
}

impl PlanVerdict {
    /// Returns `true` if the plan is valid.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

/// An error preventing verification from running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The client is not a well-formed history expression.
    IllFormedClient(WfError),
    /// A projection failed to yield a contract (ill-formed service).
    Contract(ContractError),
    /// Validity checking failed (unknown policy or state explosion).
    Validity(ValidityError),
    /// Too many candidate plans.
    PlanSpace(PlanSpaceExceeded),
    /// A joint multi-client exploration exceeded its state bound
    /// ([`crate::multi`]); a single plan's exploration reports
    /// [`ValidityError::BoundExceeded`] instead.
    BoundExceeded(usize),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::IllFormedClient(e) => write!(f, "ill-formed client: {e}"),
            VerifyError::Contract(e) => write!(f, "{e}"),
            VerifyError::Validity(e) => write!(f, "{e}"),
            VerifyError::PlanSpace(e) => write!(f, "{e}"),
            VerifyError::BoundExceeded(b) => {
                write!(f, "symbolic exploration exceeded {b} states")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<ContractError> for VerifyError {
    fn from(e: ContractError) -> Self {
        VerifyError::Contract(e)
    }
}

impl From<ValidityError> for VerifyError {
    fn from(e: ValidityError) -> Self {
        VerifyError::Validity(e)
    }
}

impl From<PlanSpaceExceeded> for VerifyError {
    fn from(e: PlanSpaceExceeded) -> Self {
        VerifyError::PlanSpace(e)
    }
}

/// Memoized-or-direct contract projection.
fn contract_of(cache: Option<&VerifyCache>, h: &Hist) -> Result<Contract, ContractError> {
    match cache {
        Some(c) => c.contract_of(h),
        None => Contract::from_service(h),
    }
}

/// Memoized-or-direct pairwise compliance witness.
fn witness_of(
    cache: Option<&VerifyCache>,
    client: &Contract,
    server: &Contract,
) -> Option<StuckWitness> {
    match cache {
        Some(c) => c.compliance_witness(client, server),
        None => compliant(client, server).witness().cloned(),
    }
}

/// What the exploration behind a verdict yields besides the verdict:
/// the events some run of the client under the plan fires, and how many
/// symbolic states are reachable. Lint reads the events off the verdict
/// rows, so no plan is explored twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReach {
    /// The distinct event labels of the symbolic state space, sorted.
    pub events: Arc<[Event]>,
    /// The number of reachable symbolic states.
    states: usize,
}

impl PlanReach {
    /// Explores the symbolic state space of `client` under `plan` once
    /// and collects its events; `None` if more than `bound` states are
    /// reachable. For callers that need reachability without a verdict.
    pub fn explore(client: &Hist, plan: &Plan, repo: &Repository, bound: usize) -> Option<Self> {
        let graph = symbolic::explore("client", client.clone(), plan, repo, bound).ok()?;
        Some(PlanReach {
            events: GraphLabels::of(&graph).events.into(),
            states: graph.len(),
        })
    }

    /// Whether exploring the same space under `bound` would have
    /// completed, as [`PlanReach::explore`] with that bound: the explorer
    /// fails once it finds a new state while holding `bound` of them.
    pub fn within(&self, bound: usize) -> bool {
        self.states <= bound.max(1)
    }
}

/// The three per-plan checks, with projection and pairwise compliance
/// optionally served from `cache`, together with the [`PlanReach`] of
/// the one exploration they share. The caller is responsible for the
/// (per-client, not per-plan) well-formedness check.
pub(crate) fn check_plan(
    client: &Hist,
    plan: &Plan,
    repo: &Repository,
    registry: &PolicyRegistry,
    cache: Option<&VerifyCache>,
) -> Result<(PlanVerdict, PlanReach), VerifyError> {
    let mut violations = Vec::new();

    // 1. Per-request compliance (client request bodies and the requests
    //    exposed by selected services alike).
    for (info, bound) in composed_requests(client, plan, repo) {
        let Some(service_loc) = bound else {
            violations.push(Violation::UnboundRequest { request: info.id });
            continue;
        };
        let Some(service) = repo.get(&service_loc) else {
            violations.push(Violation::UnknownLocation {
                request: info.id,
                location: service_loc,
            });
            continue;
        };
        let client_side = contract_of(cache, &info.body)?;
        let server_side = contract_of(cache, service)?;
        if let Some(witness) = witness_of(cache, &client_side, &server_side) {
            violations.push(Violation::NonCompliant {
                request: info.id,
                service: service_loc,
                witness,
            });
        }
    }

    // 2–3. One exploration of the symbolic state space serves both
    //      remaining checks, and one pass over its labels yields the
    //      policies to instantiate and the events it fires.
    let graph = symbolic::explore("client", client.clone(), plan, repo, DEFAULT_STATE_BOUND)
        .map_err(|e| ValidityError::BoundExceeded(e.bound))?;
    let labels = GraphLabels::of(&graph);

    // 2. Security: model-check the explored graph over its state ids.
    let verdict = check_explored(&graph, &labels.policies, registry, DEFAULT_STATE_BOUND)?;
    if let Verdict::Violation(v) = verdict {
        violations.push(Violation::Security(v));
    }

    // 3. Progress: no reachable stuck configuration. Missing bindings
    //    already explain a stuck composition more precisely.
    if let Some(stuck) = symbolic::first_stuck(&graph) {
        if !violations.iter().any(Violation::is_binding_failure) {
            violations.push(Violation::Stuck(stuck));
        }
    }

    let verdict = PlanVerdict {
        plan: plan.clone(),
        violations,
    };
    let reach = PlanReach {
        events: labels.events.into(),
        states: graph.len(),
    };
    Ok((verdict, reach))
}

/// Verifies one candidate plan for `client` (at the implicit location
/// `client`); see the module docs for the three checks performed.
///
/// # Errors
///
/// Returns a [`VerifyError`] if the inputs are ill-formed or a policy
/// cannot be resolved — as opposed to the plan merely being invalid,
/// which is reported in the verdict.
pub fn verify_plan(
    client: &Hist,
    plan: &Plan,
    repo: &Repository,
    registry: &PolicyRegistry,
) -> Result<PlanVerdict, VerifyError> {
    wf::check(client).map_err(VerifyError::IllFormedClient)?;
    Ok(check_plan(client, plan, repo, registry, None)?.0)
}

/// Which synthesis engine answers a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Walk the candidate plan space and verify each plan: the paper's
    /// literal §5 procedure, kept as the sequential reference.
    #[default]
    Enumerative,
    /// Read plans off the composed product ([`crate::product`]),
    /// building or re-deriving it first if the repository
    /// or registry state moved.
    Compositional,
}

impl Engine {
    /// Parses the CLI/wire spelling (`enumerative` / `compositional`).
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "enumerative" => Some(Engine::Enumerative),
            "compositional" => Some(Engine::Compositional),
            _ => None,
        }
    }

    /// The CLI/wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Enumerative => "enumerative",
            Engine::Compositional => "compositional",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Options for [`synthesize`]; the default configuration matches the
/// behaviour of [`verify`] exactly (enumerative, no pruning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesisOptions {
    /// Cap on candidate plans (distinct plans unpruned, surviving
    /// candidates pruned and compositional).
    pub plan_cap: usize,
    /// Cut subtrees on pairwise compliance failures (see module docs for
    /// when this is sound and when it auto-disables).
    pub prune: bool,
    /// The engine answering the query (see [`Engine`]).
    pub engine: Engine,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            plan_cap: DEFAULT_PLAN_CAP,
            prune: false,
            engine: Engine::Enumerative,
        }
    }
}

/// Instrumentation from one [`synthesize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthStats {
    /// Candidate plans actually verified.
    pub candidates: usize,
    /// Subtrees cut by the compliance prune.
    pub pruned_subtrees: usize,
    /// Whether pruning was requested *and* sound for these inputs.
    pub prune_active: bool,
    /// Cache counters of the compositional engine (the reference
    /// memoises nothing).
    pub cache: Option<CacheStats>,
    /// The engine that answered the query.
    pub engine: Engine,
    /// Product instrumentation, when the compositional engine answered.
    pub product: Option<ProductInfo>,
    /// Wall-clock time of the whole synthesis.
    pub elapsed: Duration,
}

impl fmt::Display for SynthStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} candidates in {:?} ({} subtrees pruned",
            self.candidates, self.elapsed, self.pruned_subtrees
        )?;
        match &self.cache {
            Some(stats) => write!(f, ", cache: {stats})"),
            None => write!(f, ", cache off)"),
        }
    }
}

/// A verification report plus the instrumentation of the run.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The per-plan verdicts (sorted by plan).
    pub report: VerifyReport,
    /// Run instrumentation.
    pub stats: SynthStats,
}

/// The per-request body map used by the prune predicate, or `None` when
/// pruning would be unsound: compliance pruning commits to *the* body of
/// request `r` at cut time, so every occurrence of an identifier (in the
/// client or any published service) must carry a structurally identical
/// body.
pub(crate) fn prune_safe_bodies(
    client: &Hist,
    repo: &Repository,
) -> Option<HashMap<RequestId, Hist>> {
    let all: Vec<RequestInfo> = requests(client)
        .into_iter()
        .chain(repo.iter().flat_map(|(_, service)| requests(service)))
        .collect();
    let bodies = unique_bodies(all.iter().map(|info| (info.id, &info.body)))?;
    Some(bodies.into_iter().map(|(r, b)| (r, b.clone())).collect())
}

/// The one body each request identifier carries among `requests`, or
/// `None` when some identifier occurs with two structurally distinct
/// bodies: the check behind [`prune_safe_bodies`], over requests the
/// caller has already collected.
pub(crate) fn unique_bodies<'a>(
    requests: impl IntoIterator<Item = (RequestId, &'a Hist)>,
) -> Option<BTreeMap<RequestId, &'a Hist>> {
    let mut map: BTreeMap<RequestId, &'a Hist> = BTreeMap::new();
    for (id, body) in requests {
        match map.entry(id) {
            btree_map::Entry::Vacant(e) => {
                e.insert(body);
            }
            btree_map::Entry::Occupied(e) => {
                if *e.get() != body {
                    return None;
                }
            }
        }
    }
    Some(map)
}

/// Plan synthesis with the engine and pruning `opts` select; the engine
/// behind [`verify`] and `sufs verify`.
///
/// The enumerative reference verifies the candidates one by one in plan
/// order, so the report is identical run over run. A cap overflow
/// surfaces before any plan is verified, as in the paper's
/// enumerate-then-verify reading.
///
/// # Errors
///
/// As [`verify`]; see the module docs for how pruned mode reports the
/// plan cap.
pub fn synthesize(
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
    opts: &SynthesisOptions,
) -> Result<Synthesis, VerifyError> {
    if opts.engine == Engine::Compositional {
        // One-shot product build; long-lived callers (the broker) keep
        // a `ProductStore` of their own and query it directly.
        return crate::product::synthesize_one_shot(client, repo, registry, opts, None);
    }
    let start = Instant::now();
    wf::check(client).map_err(VerifyError::IllFormedClient)?;
    let bodies = opts
        .prune
        .then(|| prune_safe_bodies(client, repo))
        .flatten();
    let prune_active = bodies.is_some();
    // A binding is cut when its request's body does not comply with the
    // service. A projection error never cuts: full verification must
    // surface it.
    let (plans, pruned_subtrees) =
        surviving_plans(client, repo, opts.plan_cap, &mut |_, r, loc| {
            let (Some(body), Some(service)) =
                (bodies.as_ref().and_then(|b| b.get(&r)), repo.get(loc))
            else {
                return false;
            };
            match (
                Contract::from_service(body),
                Contract::from_service(service),
            ) {
                (Ok(c), Ok(s)) => !compliant(&c, &s).holds(),
                _ => false,
            }
        })?;
    let verdicts = plans
        .iter()
        .map(|plan| Ok(check_plan(client, plan, repo, registry, None)?.0))
        .collect::<Result<Vec<_>, VerifyError>>()?;
    let stats = SynthStats {
        candidates: verdicts.len(),
        pruned_subtrees,
        prune_active,
        cache: None,
        engine: Engine::Enumerative,
        product: None,
        elapsed: start.elapsed(),
    };
    Ok(Synthesis {
        report: VerifyReport::new(verdicts),
        stats,
    })
}

/// Verifies every candidate plan for `client` over `repo`: the paper's
/// §5 procedure. The resulting report lists the valid plans and, for
/// each rejected plan, why it was rejected.
///
/// # Errors
///
/// Returns a [`VerifyError`] on ill-formed inputs, unresolvable
/// policies, or state/plan-space explosion.
///
/// # Examples
///
/// ```
/// use sufs_core::verify::verify;
/// use sufs_hexpr::builder::*;
/// use sufs_net::Repository;
/// use sufs_policy::PolicyRegistry;
///
/// let client = request(1, None, seq([
///     send("req", eps()),
///     offer([("ok", eps()), ("no", eps())]),
/// ]));
/// let mut repo = Repository::new();
/// repo.publish("good", recv("req", choose([("ok", eps()), ("no", eps())])));
/// repo.publish("bad", recv("req", choose([("later", eps())])));
///
/// let report = verify(&client, &repo, &PolicyRegistry::new()).unwrap();
/// let valid: Vec<_> = report.valid_plans().collect();
/// assert_eq!(valid.len(), 1);
/// ```
pub fn verify(
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
) -> Result<VerifyReport, VerifyError> {
    verify_with_cap(client, repo, registry, DEFAULT_PLAN_CAP)
}

/// [`verify`] with an explicit cap on the number of candidate plans.
///
/// # Errors
///
/// As [`verify`], plus [`VerifyError::PlanSpace`] past the cap.
pub fn verify_with_cap(
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
    plan_cap: usize,
) -> Result<VerifyReport, VerifyError> {
    let opts = SynthesisOptions {
        plan_cap,
        ..SynthesisOptions::default()
    };
    Ok(synthesize(client, repo, registry, &opts)?.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::builder::*;
    use sufs_hexpr::ParamValue;
    use sufs_hexpr::PolicyRef;
    use sufs_policy::catalog;

    fn booking_client(policy: Option<PolicyRef>) -> Hist {
        request(
            1,
            policy,
            seq([send("req", eps()), offer([("ok", eps()), ("no", eps())])]),
        )
    }

    #[test]
    fn valid_and_invalid_plans_separated() {
        let mut repo = Repository::new();
        repo.publish("good", recv("req", choose([("ok", eps()), ("no", eps())])));
        repo.publish(
            "bad",
            recv("req", choose([("ok", eps()), ("later", eps())])),
        );
        let report = verify(&booking_client(None), &repo, &PolicyRegistry::new()).unwrap();
        assert_eq!(report.len(), 2);
        let valid: Vec<&Plan> = report.valid_plans().collect();
        assert_eq!(valid.len(), 1);
        assert_eq!(
            valid[0].service_for(RequestId::new(1)),
            Some(&Location::new("good"))
        );
        let rejected: Vec<&PlanVerdict> = report.rejected().collect();
        assert_eq!(rejected.len(), 1);
        assert!(matches!(
            rejected[0].violations[0],
            Violation::NonCompliant { .. }
        ));
        // The angelic symbolic exploration alone would *not* catch this
        // (the bad `later` send is simply never scheduled): the product
        // automaton is the decisive check, exactly the paper's point
        // about its semantics being angelic.
        assert!(!rejected[0]
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Stuck(_))));
    }

    #[test]
    fn security_violation_rejects_plan() {
        let mut registry = PolicyRegistry::new();
        registry.register(catalog::blacklist("access"));
        let phi = PolicyRef::new("blacklist_access", [ParamValue::set(["evil"])]);
        let client = booking_client(Some(phi));
        let mut repo = Repository::new();
        // This service touches the black-listed resource before replying.
        repo.publish(
            "shady",
            recv(
                "req",
                seq([
                    ev("access", ["evil"]),
                    choose([("ok", eps()), ("no", eps())]),
                ]),
            ),
        );
        repo.publish(
            "clean",
            recv(
                "req",
                seq([
                    ev("access", ["fine"]),
                    choose([("ok", eps()), ("no", eps())]),
                ]),
            ),
        );
        let report = verify(&client, &repo, &registry).unwrap();
        let valid: Vec<&Plan> = report.valid_plans().collect();
        assert_eq!(valid.len(), 1);
        assert_eq!(
            valid[0].service_for(RequestId::new(1)),
            Some(&Location::new("clean"))
        );
        let shady_verdict = report
            .verdicts()
            .iter()
            .find(|v| v.plan.service_for(RequestId::new(1)) == Some(&Location::new("shady")))
            .unwrap();
        assert!(shady_verdict
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Security(_))));
    }

    #[test]
    fn unbound_request_reported() {
        let client = booking_client(None);
        let verdict = verify_plan(
            &client,
            &Plan::new(),
            &Repository::new(),
            &PolicyRegistry::new(),
        )
        .unwrap();
        assert!(!verdict.is_valid());
        assert_eq!(
            verdict.violations,
            vec![Violation::UnboundRequest {
                request: RequestId::new(1)
            }]
        );
        assert!(verdict.violations[0].to_string().contains("r1"));
    }

    #[test]
    fn unknown_location_distinguished_from_unbound() {
        // The plan names a location, but nobody publishes it: that is a
        // different defect from not binding the request at all, and the
        // report must say so.
        let client = booking_client(None);
        let plan = Plan::new().with(1u32, "ghost");
        let verdict =
            verify_plan(&client, &plan, &Repository::new(), &PolicyRegistry::new()).unwrap();
        assert!(!verdict.is_valid());
        assert_eq!(
            verdict.violations,
            vec![Violation::UnknownLocation {
                request: RequestId::new(1),
                location: Location::new("ghost"),
            }]
        );
        let msg = verdict.violations[0].to_string();
        assert!(msg.contains("ghost"), "message was: {msg}");
        assert!(msg.contains("not in the repository"), "message was: {msg}");
        // The unbound message is unchanged and distinct.
        let unbound = verify_plan(
            &client,
            &Plan::new(),
            &Repository::new(),
            &PolicyRegistry::new(),
        )
        .unwrap();
        assert_ne!(unbound.violations, verdict.violations);
    }

    #[test]
    fn unknown_location_suppresses_redundant_stuck() {
        // Like UnboundRequest, an UnknownLocation explains the stuck
        // composition on its own: no Stuck violation is piled on top.
        let client = booking_client(None);
        let plan = Plan::new().with(1u32, "ghost");
        let verdict =
            verify_plan(&client, &plan, &Repository::new(), &PolicyRegistry::new()).unwrap();
        assert!(!verdict
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Stuck(_))));
    }

    #[test]
    fn nested_request_compliance_checked() {
        // client → broker → leaf; the broker's own conversation with the
        // leaf must be compliant too.
        let client = request(1, None, seq([send("q", eps()), offer([("a", eps())])]));
        let broker = recv(
            "q",
            seq([request(3, None, send("w", eps())), choose([("a", eps())])]),
        );
        let mut repo = Repository::new();
        repo.publish("br", broker);
        repo.publish("goodleaf", recv("w", eps()));
        repo.publish("badleaf", recv("zzz", eps()));
        let report = verify(&client, &repo, &PolicyRegistry::new()).unwrap();
        let valid: Vec<&Plan> = report.valid_plans().collect();
        assert_eq!(valid.len(), 1);
        assert_eq!(
            valid[0].service_for(RequestId::new(3)),
            Some(&Location::new("goodleaf"))
        );
    }

    #[test]
    fn reach_within_a_bound_agrees_with_exploring_under_it() {
        let (client, repo) = mixed_repo();
        let plan = Plan::new().with(1u32, "good1").with(2u32, "good2");
        let (verdict, reach) =
            check_plan(&client, &plan, &repo, &PolicyRegistry::new(), None).unwrap();
        assert!(verdict.is_valid());
        assert!(reach.states > 2);
        for bound in 0..=reach.states + 1 {
            let explored = PlanReach::explore(&client, &plan, &repo, bound);
            assert_eq!(reach.within(bound), explored.is_some(), "bound {bound}");
            if let Some(explored) = explored {
                assert_eq!(explored, reach);
            }
        }
    }

    #[test]
    fn ill_formed_client_is_an_error() {
        let err = verify(
            &Hist::mu("h", Hist::var("h")),
            &Repository::new(),
            &PolicyRegistry::new(),
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::IllFormedClient(_)));
        assert!(err.to_string().contains("ill-formed client"));
    }

    #[test]
    fn verdict_display() {
        let v = Violation::UnboundRequest {
            request: RequestId::new(7),
        };
        assert_eq!(v.to_string(), "request r7 is not bound by the plan");
        let v = Violation::UnknownLocation {
            request: RequestId::new(7),
            location: Location::new("ghost"),
        };
        assert_eq!(
            v.to_string(),
            "request r7 is bound to ghost, which is not in the repository"
        );
    }

    fn mixed_repo() -> (Hist, Repository) {
        let client = Hist::seq(
            booking_client(None),
            request(
                2,
                None,
                seq([send("req", eps()), offer([("ok", eps()), ("no", eps())])]),
            ),
        );
        let mut repo = Repository::new();
        repo.publish("good1", recv("req", choose([("ok", eps()), ("no", eps())])));
        repo.publish("good2", recv("req", choose([("ok", eps())])));
        repo.publish(
            "bad1",
            recv("req", choose([("ok", eps()), ("later", eps())])),
        );
        repo.publish("bad2", recv("zzz", eps()));
        (client, repo)
    }

    #[test]
    fn pruned_reference_keeps_the_valid_set() {
        let (client, repo) = mixed_repo();
        let registry = PolicyRegistry::new();
        let baseline = verify(&client, &repo, &registry).unwrap();
        assert_eq!(baseline.len(), 16);
        // Pruning agrees on the *valid* set (rejected plans may be cut
        // before verification).
        let opts = SynthesisOptions {
            prune: true,
            ..SynthesisOptions::default()
        };
        let synth = synthesize(&client, &repo, &registry, &opts).unwrap();
        assert!(synth.stats.prune_active);
        assert!(synth.stats.pruned_subtrees > 0);
        assert!(
            synth.stats.cache.is_none(),
            "the reference memoises nothing"
        );
        let pruned_valid: Vec<&Plan> = synth.report.valid_plans().collect();
        let baseline_valid: Vec<&Plan> = baseline.valid_plans().collect();
        assert_eq!(pruned_valid, baseline_valid);
        assert!(synth.stats.to_string().contains("cache off"));
    }

    #[test]
    fn pruning_disabled_when_bodies_ambiguous() {
        // The same request id appears with two different bodies: pruning
        // must auto-disable and fall back to full verification.
        let client = request(1, None, send("q", eps()));
        let mut repo = Repository::new();
        repo.publish(
            "br",
            Hist::seq(recv("q", eps()), request(1, None, send("w", eps()))),
        );
        assert!(prune_safe_bodies(&client, &repo).is_none());
        let opts = SynthesisOptions {
            prune: true,
            ..SynthesisOptions::default()
        };
        let synth = synthesize(&client, &repo, &PolicyRegistry::new(), &opts).unwrap();
        assert!(!synth.stats.prune_active);
        assert_eq!(synth.stats.pruned_subtrees, 0);
        let baseline = verify(&client, &repo, &PolicyRegistry::new()).unwrap();
        assert_eq!(synth.report.verdicts(), baseline.verdicts());
    }

    #[test]
    fn pruned_mode_still_enforces_the_cap() {
        let (client, repo) = mixed_repo();
        // All 16 candidates survive enumeration; only 4 survive pruning
        // (2 compliant choices per request), so a cap of 4 passes in
        // pruned mode while 3 fails.
        let registry = PolicyRegistry::new();
        let ok = synthesize(
            &client,
            &repo,
            &registry,
            &SynthesisOptions {
                prune: true,
                plan_cap: 4,
                ..SynthesisOptions::default()
            },
        )
        .unwrap();
        assert_eq!(ok.report.len(), 4);
        let err = synthesize(
            &client,
            &repo,
            &registry,
            &SynthesisOptions {
                prune: true,
                plan_cap: 3,
                ..SynthesisOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::PlanSpace(_)));
    }
}
