//! The shared analysis context the passes consume: per-client candidate
//! plans and verification reports, per-component LTSs, the ground event
//! alphabet, composed-execution reachability, and every policy
//! reference with its origin.
//!
//! The context is built from a [`LintInput`] — a borrowed view over the
//! state to analyze — so the same passes run over a parsed
//! [`Scenario`] *and* over a broker's live [`Repository`]. Repeated
//! builds can share an [`AnalysisCaches`], which memoizes the expensive
//! sub-analyses (stand-alone LTSs, candidate plan spaces, whole
//! per-client reports, composed-execution reachability) keyed by
//! `sufs-hexpr::shash` structural fingerprints of everything they read,
//! so no entry can go stale and re-analyzing a repository after a
//! single mutation only pays for what changed. Per-plan verdicts are
//! rows of a [`VerifyCache`], which a broker shares with its composed
//! products: a verdict computed here is a hit for the next `plan` read.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use sufs_core::cache::{StateView, VerifyCache};
use sufs_core::plans::{enumerate_plans, PlanSpaceExceeded, DEFAULT_PLAN_CAP};
use sufs_core::report::VerifyReport;
use sufs_core::scenario::{Scenario, SpanTable, SrcPos};
use sufs_core::verify::{VerifyError, DEFAULT_STATE_BOUND};
use sufs_hexpr::requests::requests;
use sufs_hexpr::shash::stable_hash_of;
use sufs_hexpr::{wf, Event, Hist, HistLts, Label, Location, PolicyRef, RequestId};
use sufs_net::symbolic::{symbolic_successors, SymState};
use sufs_net::{Plan, Repository};
use sufs_policy::cost::CostBound;
use sufs_policy::PolicyRegistry;

use crate::LintError;

/// A borrowed view of the state under analysis. Built from a parsed
/// [`Scenario`] (with spans and budgets) or assembled directly from a
/// live repository, registry and client set (no spans: every finding
/// anchors to the start position).
#[derive(Debug, Clone, Copy)]
pub struct LintInput<'a> {
    /// The clients, in the order diagnostics should report them.
    pub clients: &'a [(String, Hist)],
    /// The published services.
    pub repository: &'a Repository,
    /// The policy definitions.
    pub registry: &'a PolicyRegistry,
    /// Quantitative budgets (their policy names are exempt from
    /// vacuity checking).
    pub budgets: &'a [CostBound],
    /// Declaration positions, when the input came from a source file.
    pub spans: Option<&'a SpanTable>,
}

impl<'a> LintInput<'a> {
    /// A view over live state with no source positions or budgets.
    pub fn new(
        clients: &'a [(String, Hist)],
        repository: &'a Repository,
        registry: &'a PolicyRegistry,
    ) -> LintInput<'a> {
        LintInput {
            clients,
            repository,
            registry,
            budgets: &[],
            spans: None,
        }
    }
}

impl<'a> From<&'a Scenario> for LintInput<'a> {
    fn from(scenario: &'a Scenario) -> LintInput<'a> {
        LintInput {
            clients: &scenario.clients,
            repository: &scenario.repository,
            registry: &scenario.registry,
            budgets: &scenario.budgets,
            spans: Some(&scenario.spans),
        }
    }
}

/// Memoized sub-analyses shared across context builds. Every map is
/// content-addressed — keyed by structural fingerprints of everything
/// its entries read — and so is the [`VerifyCache`], so nothing ever
/// needs invalidating on mutation.
#[derive(Debug, Default)]
pub struct AnalysisCaches {
    /// Projection, compliance and per-plan verdict rows; a broker
    /// shares this one with its composed products.
    pub verify: Arc<VerifyCache>,
    /// Stand-alone LTSs keyed by `(hist fingerprint, bound)`.
    lts: HashMap<(u64, usize), Arc<HistLts>>,
    /// Per-behaviour ground events keyed by behaviour fingerprint.
    events: HashMap<u64, Arc<BTreeSet<Event>>>,
    /// Composed-execution reachability keyed by a fingerprint of
    /// `(client, plan, selected service behaviours and capacities,
    /// bound)`.
    composed: HashMap<u64, Option<Arc<BTreeSet<Event>>>>,
    /// Candidate plan spaces (with per-plan [`PlanMeta`]) keyed by a
    /// fingerprint of `(client, cap, per-location exposed requests)` —
    /// enumeration only looks at which requests each service exposes,
    /// never at the rest of its body, so most mutations reuse the
    /// plans outright.
    plans: HashMap<u64, PlanSpace>,
    /// Exposed-request fingerprints keyed by behaviour fingerprint.
    exposed: HashMap<u64, u64>,
    /// Whole per-client reports keyed by a fingerprint of `(plan
    /// space, what its rows read)`: a re-lint of a previously seen
    /// state reuses the report without cloning a single verdict.
    reports: HashMap<u64, Arc<VerifyReport>>,
}

/// A cached plan space: the candidate plans plus per-plan metadata
/// (structural fingerprint and distinct bound locations), computed once
/// per enumeration instead of once per refresh.
#[derive(Debug, Clone)]
struct PlanSpace {
    plans: Arc<Vec<Plan>>,
    meta: Arc<Vec<PlanMeta>>,
    /// The distinct locations any plan binds, sorted.
    locs: Arc<Vec<Location>>,
}

/// Precomputed per-plan facts every refresh needs.
#[derive(Debug)]
struct PlanMeta {
    /// Structural fingerprint of the plan.
    fp: u64,
    /// The distinct locations the plan binds, sorted.
    locs: Vec<Location>,
}

impl AnalysisCaches {
    /// Drops the content-addressed maps if they have grown past
    /// `limit` entries (the verify cache bounds its own layers).
    pub fn trim(&mut self, limit: usize) {
        fn bound<K, V>(map: &mut HashMap<K, V>, limit: usize) {
            if map.len() > limit {
                map.clear();
            }
        }
        bound(&mut self.lts, limit);
        bound(&mut self.events, limit);
        bound(&mut self.composed, limit);
        bound(&mut self.plans, limit);
        bound(&mut self.exposed, limit);
        bound(&mut self.reports, limit);
    }

    fn lts_for(
        &mut self,
        subject: impl Fn() -> String,
        hist: &Hist,
        fingerprint: u64,
        bound: usize,
    ) -> Result<Arc<HistLts>, LintError> {
        let key = (fingerprint, bound);
        if let Some(lts) = self.lts.get(&key) {
            return Ok(Arc::clone(lts));
        }
        let lts = HistLts::build_bounded(hist, bound).map_err(|error| LintError::Lts {
            subject: subject(),
            error,
        })?;
        let lts = Arc::new(lts);
        self.lts.insert(key, Arc::clone(&lts));
        Ok(lts)
    }

    /// The ground events of one behaviour, shared across refreshes.
    fn events_of(&mut self, fingerprint: u64, hist: &Hist) -> Arc<BTreeSet<Event>> {
        Arc::clone(
            self.events
                .entry(fingerprint)
                .or_insert_with(|| Arc::new(hist.events().into_iter().collect())),
        )
    }

    /// Memoized plan-space enumeration. The plan space is a function of
    /// the client's requests and of the requests each published
    /// service exposes ([`sufs_core::plans`] closes bindings over
    /// those), so the key folds the per-location exposed-request
    /// fingerprints: a body edit that keeps a service's requests
    /// intact reuses the enumeration. Returns the key alongside so the
    /// report over the same plan space can be addressed.
    fn plans_for(
        &mut self,
        client: &Hist,
        client_fp: u64,
        repo: &Repository,
        cap: usize,
        loc_info: &BTreeMap<&Location, [u64; 3]>,
    ) -> Result<(u64, PlanSpace), PlanSpaceExceeded> {
        let mut key: Vec<u64> = vec![client_fp, cap as u64];
        for (loc, [name_fp, body_fp, _]) in loc_info {
            let exposed = match self.exposed.get(body_fp) {
                Some(fp) => *fp,
                None => {
                    let h = repo.get(loc).expect("iterated location is published");
                    let ids: Vec<RequestId> = requests(h).into_iter().map(|r| r.id).collect();
                    let fp = stable_hash_of(&ids);
                    self.exposed.insert(*body_fp, fp);
                    fp
                }
            };
            key.extend([*name_fp, exposed]);
        }
        let pkey = stable_hash_of(&key);
        if let Some(space) = self.plans.get(&pkey) {
            return Ok((pkey, space.clone()));
        }
        let plans = Arc::new(enumerate_plans(client, repo, cap)?);
        let meta: Arc<Vec<PlanMeta>> = Arc::new(
            plans
                .iter()
                .map(|plan| {
                    let locs: BTreeSet<&Location> = plan.iter().map(|(_, l)| l).collect();
                    PlanMeta {
                        fp: stable_hash_of(plan),
                        locs: locs.into_iter().cloned().collect(),
                    }
                })
                .collect(),
        );
        let locs: BTreeSet<&Location> = meta.iter().flat_map(|m| &m.locs).collect();
        let locs = Arc::new(locs.into_iter().cloned().collect());
        let space = PlanSpace { plans, meta, locs };
        self.plans.insert(pkey, space.clone());
        Ok((pkey, space))
    }
}

/// Everything the engine precomputes about one client.
#[derive(Debug)]
pub struct ClientAnalysis {
    /// The client's name.
    pub name: String,
    /// The client's behaviour.
    pub hist: Hist,
    /// The stand-alone LTS of the client (for witness paths).
    pub lts: Arc<HistLts>,
    /// Every candidate plan (complete bindings over the repository),
    /// shared with the enumeration cache.
    pub plans: Arc<Vec<Plan>>,
    /// The verification report over the candidates, shared with the
    /// report cache. Empty (with `verified == false`) when an
    /// unresolved policy reference prevents verification.
    pub report: Arc<VerifyReport>,
    /// Whether `report` was actually computed.
    pub verified: bool,
    /// Events some composed execution under some candidate plan fires.
    pub reachable_events: BTreeSet<Event>,
    /// Whether every candidate plan was explored to completion (a bound
    /// hit makes reachability information incomplete; passes must then
    /// stay silent rather than guess).
    pub explored_all: bool,
}

/// Everything the engine precomputes about one published service.
#[derive(Debug)]
pub struct ServiceAnalysis {
    /// The stand-alone LTS of the service (for witness paths).
    pub lts: Arc<HistLts>,
    /// Events fired by some composed execution of a candidate plan that
    /// selects this service (an over-approximation of the service's own
    /// contribution, which errs towards silence).
    pub reachable_events: BTreeSet<Event>,
    /// Whether any candidate plan of any client selects the service.
    pub selected: bool,
    /// Whether every exploration involving the service completed.
    pub explored_all: bool,
}

/// A policy reference together with where it occurs.
#[derive(Debug, Clone)]
pub struct PolicyOrigin {
    /// The component mentioning the reference (`client c1`, `service br`).
    pub subject: String,
    /// The declaration position of that component.
    pub pos: SrcPos,
    /// The reference itself.
    pub reference: PolicyRef,
}

/// The precomputed analysis state shared by every pass.
#[derive(Debug)]
pub struct LintContext<'a> {
    /// The state under analysis.
    pub input: LintInput<'a>,
    /// The exploration bound the analyses ran under.
    pub bound: usize,
    /// Per-client analyses, in declaration order.
    pub clients: Vec<ClientAnalysis>,
    /// Per-service analyses.
    pub services: BTreeMap<Location, ServiceAnalysis>,
    /// The ground event alphabet: every event any component can fire.
    pub alphabet: Vec<Event>,
    /// Every policy reference in the scenario, deduplicated by reference
    /// (first origin wins), in first-occurrence order.
    pub policy_refs: Vec<PolicyOrigin>,
    /// Whether at least one reference fails to resolve (verification is
    /// skipped scenario-wide in that case; `SUFS008` reports the causes).
    pub has_unresolved: bool,
}

impl<'a> LintContext<'a> {
    /// Precomputes the context with the default exploration bound and
    /// plan cap.
    pub fn build(scenario: &'a Scenario) -> Result<LintContext<'a>, LintError> {
        Self::build_with(scenario, DEFAULT_STATE_BOUND, DEFAULT_PLAN_CAP)
    }

    /// Precomputes the context with explicit bounds.
    pub fn build_with(
        scenario: &'a Scenario,
        bound: usize,
        plan_cap: usize,
    ) -> Result<LintContext<'a>, LintError> {
        let mut caches = AnalysisCaches::default();
        let state = StateView::of(&scenario.repository, &scenario.registry);
        Self::build_cached(scenario.into(), &state, bound, plan_cap, &mut caches)
    }

    /// Precomputes the context over any [`LintInput`], memoizing the
    /// expensive sub-analyses in `caches` for the next build. `state` is
    /// the [`StateView`] of the input's own repository and registry,
    /// which the engine has already computed for its diff.
    pub(crate) fn build_cached(
        input: LintInput<'a>,
        state: &StateView<'_>,
        bound: usize,
        plan_cap: usize,
        caches: &mut AnalysisCaches,
    ) -> Result<LintContext<'a>, LintError> {
        let mut policy_refs: Vec<PolicyOrigin> = Vec::new();
        let mut add_refs = |subject: String, pos: SrcPos, h: &Hist| {
            for reference in h.policy_refs() {
                if !policy_refs.iter().any(|o| o.reference == reference) {
                    policy_refs.push(PolicyOrigin {
                        subject: subject.clone(),
                        pos,
                        reference,
                    });
                }
            }
        };
        for (name, h) in input.clients {
            let pos = span_or_start(input.spans.map(|s| &s.clients), name);
            add_refs(format!("client {name}"), pos, h);
        }
        for (loc, h) in input.repository.iter() {
            let pos = span_or_start(input.spans.map(|s| &s.services), loc.as_str());
            add_refs(format!("service {loc}"), pos, h);
        }
        let has_unresolved = policy_refs
            .iter()
            .any(|o| input.registry.instantiate(&o.reference).is_err());

        // Per-location fingerprints `[name, behaviour, capacity]`:
        // every cache key below (plans, reports, composed
        // reachability) is assembled from these.
        let fingerprints = state.fingerprints();
        let mut alphabet_union: BTreeSet<Event> = BTreeSet::new();
        let mut loc_info: BTreeMap<&Location, [u64; 3]> = BTreeMap::new();
        let mut services: BTreeMap<Location, ServiceAnalysis> = BTreeMap::new();
        for (loc, h) in input.repository.iter() {
            let (body_fp, cap_fp) = fingerprints.locations()[loc];
            loc_info.insert(loc, [stable_hash_of(loc.as_str()), body_fp, cap_fp]);
            alphabet_union.extend(caches.events_of(body_fp, h).iter().cloned());
            let lts = caches.lts_for(|| format!("service {loc}"), h, body_fp, bound)?;
            services.insert(
                loc.clone(),
                ServiceAnalysis {
                    lts,
                    reachable_events: BTreeSet::new(),
                    selected: false,
                    explored_all: true,
                },
            );
        }

        let mut clients = Vec::new();
        let mut key_buf: Vec<u64> = Vec::new();
        for (name, h) in input.clients {
            let client_hash = stable_hash_of(h);
            alphabet_union.extend(caches.events_of(client_hash, h).iter().cloned());
            let lts = caches.lts_for(|| format!("client {name}"), h, client_hash, bound)?;
            let (pkey, space) = caches
                .plans_for(h, client_hash, input.repository, plan_cap, &loc_info)
                .map_err(|error| LintError::Plans {
                    client: name.clone(),
                    error,
                })?;
            let PlanSpace { plans, meta, locs } = space;

            let mut reachable_events = BTreeSet::new();
            let mut explored_all = true;
            for (plan, meta) in plans.iter().zip(meta.iter()) {
                for loc in &meta.locs {
                    if let Some(s) = services.get_mut(loc) {
                        s.selected = true;
                    }
                }
                key_buf.clear();
                key_buf.extend([client_hash, meta.fp, bound as u64]);
                for loc in &meta.locs {
                    key_buf.extend(loc_info.get(loc).expect("plans bind published locations"));
                }
                let events = match caches.composed.entry(stable_hash_of(&key_buf)) {
                    std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
                    std::collections::hash_map::Entry::Vacant(e) => e
                        .insert(composed_events(h, plan, input.repository, bound).map(Arc::new))
                        .clone(),
                };
                match events {
                    Some(events) => {
                        reachable_events.extend(events.iter().cloned());
                        for loc in &meta.locs {
                            if let Some(s) = services.get_mut(loc) {
                                s.reachable_events.extend(events.iter().cloned());
                            }
                        }
                    }
                    None => {
                        explored_all = false;
                        for loc in &meta.locs {
                            if let Some(s) = services.get_mut(loc) {
                                s.explored_all = false;
                            }
                        }
                    }
                }
            }

            let (report, verified) = if has_unresolved {
                (Arc::new(VerifyReport::new(Vec::new())), false)
            } else {
                // The report is a function of the plan space and of what
                // its rows read.
                let rkey = stable_hash_of(&(pkey, fingerprints.reads(locs.iter())));
                let report = match caches.reports.get(&rkey) {
                    Some(report) => Arc::clone(report),
                    None => {
                        let verify_error = |error| LintError::Verify {
                            client: name.clone(),
                            error,
                        };
                        // Well-formedness is per client, not per row.
                        if !plans.is_empty() {
                            wf::check(h)
                                .map_err(|e| verify_error(VerifyError::IllFormedClient(e)))?;
                        }
                        let client = Arc::new(h.clone());
                        let verdicts = plans
                            .iter()
                            .map(|plan| caches.verify.verdict(&client, plan, state))
                            .collect::<Result<Vec<_>, _>>()
                            .map_err(verify_error)?;
                        let report = Arc::new(VerifyReport::new(verdicts));
                        caches.reports.insert(rkey, Arc::clone(&report));
                        report
                    }
                };
                (report, true)
            };

            clients.push(ClientAnalysis {
                name: name.clone(),
                hist: h.clone(),
                lts,
                plans,
                report,
                verified,
                reachable_events,
                explored_all,
            });
        }

        Ok(LintContext {
            input,
            bound,
            clients,
            services,
            alphabet: alphabet_union.into_iter().collect(),
            policy_refs,
            has_unresolved,
        })
    }

    /// The published services under analysis.
    pub fn repository(&self) -> &Repository {
        self.input.repository
    }

    /// The policy definitions under analysis.
    pub fn registry(&self) -> &PolicyRegistry {
        self.input.registry
    }

    /// The quantitative budgets, if any.
    pub fn budgets(&self) -> &[CostBound] {
        self.input.budgets
    }

    /// The declared position of a client (start of text as fallback).
    pub fn client_pos(&self, name: &str) -> SrcPos {
        span_or_start(self.input.spans.map(|s| &s.clients), name)
    }

    /// The declared position of a service.
    pub fn service_pos(&self, loc: &Location) -> SrcPos {
        span_or_start(self.input.spans.map(|s| &s.services), loc.as_str())
    }

    /// The declared position of a policy definition; falls back to the
    /// position of `or` (the first reference's origin), then to the
    /// start of the text.
    pub fn policy_pos(&self, name: &str, or: Option<SrcPos>) -> SrcPos {
        self.input
            .spans
            .and_then(|s| s.policies.get(name).copied())
            .or(or)
            .unwrap_or_else(SrcPos::start)
    }
}

fn span_or_start(map: Option<&BTreeMap<String, SrcPos>>, name: &str) -> SrcPos {
    map.and_then(|m| m.get(name).copied())
        .unwrap_or_else(SrcPos::start)
}

/// Every event some run of `client` under `plan` fires, by breadth-first
/// exploration of the composed symbolic state space; `None` if more than
/// `bound` states are reachable.
fn composed_events(
    client: &Hist,
    plan: &Plan,
    repo: &Repository,
    bound: usize,
) -> Option<BTreeSet<Event>> {
    let initial = SymState::initial("client", client.clone());
    let mut seen: HashSet<SymState> = HashSet::from([initial.clone()]);
    let mut queue = VecDeque::from([initial]);
    let mut events = BTreeSet::new();
    while let Some(state) = queue.pop_front() {
        for (label, next) in symbolic_successors(&state, plan, repo) {
            if let Label::Ev(e) = &label {
                events.insert(e.clone());
            }
            if !seen.contains(&next) {
                if seen.len() >= bound {
                    return None;
                }
                seen.insert(next.clone());
                queue.push_back(next);
            }
        }
    }
    Some(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_core::scenario::parse_scenario;

    #[test]
    fn context_precomputes_plans_and_reachability() {
        let sc = parse_scenario(
            r#"
            client c { open 1 { int[ask -> eps]; ext[yes -> #won; eps | no -> eps] } }
            service nay { ext[ask -> int[no -> eps]] }
            "#,
        )
        .unwrap();
        let ctx = LintContext::build(&sc).unwrap();
        assert_eq!(ctx.clients.len(), 1);
        let c = &ctx.clients[0];
        assert_eq!(c.plans.len(), 1);
        assert!(c.verified);
        assert!(c.explored_all);
        // The service only answers `no`, so `#won` never fires …
        assert!(!c.reachable_events.contains(&Event::nullary("won")));
        // … but it is part of the alphabet.
        assert!(ctx.alphabet.contains(&Event::nullary("won")));
        let srv = ctx.services.get(&Location::new("nay")).unwrap();
        assert!(srv.selected);
    }

    #[test]
    fn unresolved_policies_disable_verification() {
        let sc = parse_scenario(
            r#"
            client c { open 1 phi ghost { int[a -> eps] } }
            service s { ext[a -> eps] }
            "#,
        )
        .unwrap();
        let ctx = LintContext::build(&sc).unwrap();
        assert!(ctx.has_unresolved);
        assert!(!ctx.clients[0].verified);
        assert_eq!(ctx.policy_refs.len(), 1);
        assert_eq!(ctx.policy_refs[0].subject, "client c");
    }

    #[test]
    fn cached_build_matches_cold_build() {
        let sc = parse_scenario(
            r#"
            client c { open 1 { int[ask -> eps]; ext[yes -> #won; eps | no -> eps] } }
            service nay { ext[ask -> int[no -> eps]] }
            service aye { ext[ask -> int[yes -> eps]] }
            "#,
        )
        .unwrap();
        let cold = LintContext::build(&sc).unwrap();
        let mut caches = AnalysisCaches::default();
        let input = LintInput::from(&sc);
        let state = StateView::of(&sc.repository, &sc.registry);
        let mut build = || {
            LintContext::build_cached(
                input,
                &state,
                DEFAULT_STATE_BOUND,
                DEFAULT_PLAN_CAP,
                &mut caches,
            )
            .unwrap()
        };
        let (warm1, warm2) = (build(), build());
        for warm in [&warm1, &warm2] {
            assert_eq!(warm.clients.len(), cold.clients.len());
            for (a, b) in warm.clients.iter().zip(&cold.clients) {
                assert_eq!(a.plans, b.plans);
                assert_eq!(a.verified, b.verified);
                assert_eq!(a.reachable_events, b.reachable_events);
                assert_eq!(
                    a.report.valid_plans().collect::<Vec<_>>(),
                    b.report.valid_plans().collect::<Vec<_>>()
                );
            }
            assert_eq!(warm.alphabet, cold.alphabet);
        }
    }
}
