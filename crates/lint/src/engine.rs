//! The incremental lint engine: maintains a [`LintReport`] over a
//! mutating repository state, re-running only the passes whose inputs
//! changed.
//!
//! The engine fingerprints every declaration of a [`LintInput`] with
//! `sufs-hexpr::shash` (the same structural hashing `VerifyCache`
//! keys on): each client behaviour, each published service behaviour,
//! each capacity annotation, each policy automaton, and the budget
//! list. A [`refresh`](LintEngine::refresh) diffs the fingerprints
//! against the previous state and rebuilds the [`LintContext`] through
//! the engine's [`AnalysisCaches`]: stand-alone LTSs and plan spaces are
//! lookups for unchanged components, and each client whose plan space
//! binds no changed location reads its lint row (report, reachable
//! events, per-location shares) in one lookup. Every cache is
//! content-addressed, so none needs invalidating. The context's
//! vocabulary — its event alphabet and policy references with their
//! origins — is fingerprinted too ([`Dep::Vocabulary`]), since a
//! service edit usually leaves it unchanged. Then the engine walks the
//! passes: a pass none of whose [`Dep`] kinds changed gets its previous
//! diagnostics spliced back verbatim; the rest re-run. The verdict rows
//! live in a [`VerifyCache`], which [`LintEngine::with_cache`] shares
//! with other consumers — a broker's composed products read the same
//! rows. The result is equal to a cold full re-lint — enforced by the
//! seeded property suites in `tests/lint_incremental.rs`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sufs_core::cache::{LocationFp, StateFingerprints, StateView, VerifyCache, CACHE_LIMIT};
use sufs_core::plans::DEFAULT_PLAN_CAP;
use sufs_core::verify::DEFAULT_STATE_BOUND;
use sufs_hexpr::shash::stable_hash_of;

use crate::context::{client_hashes, AnalysisCaches, LintContext, LintInput};
use crate::diag::{Code, Diagnostic, LintReport};
use crate::passes::{self, Dep};
use crate::{sort_diagnostics, LintError};

/// Per-declaration fingerprints of one input state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fingerprints {
    clients: BTreeMap<String, u64>,
    /// Services, capacities and policies.
    state: StateFingerprints,
    budgets: u64,
}

impl Fingerprints {
    /// `client_hashes` are [`client_hashes`] of the input's clients.
    fn of(input: &LintInput<'_>, client_hashes: &[u64], state: &StateView<'_>) -> Fingerprints {
        let names = input.clients.iter().map(|(name, _)| name.clone());
        Fingerprints {
            clients: names.zip(client_hashes.iter().copied()).collect(),
            state: state.fingerprints().clone(),
            budgets: stable_hash_of(&format!("{:?}", input.budgets)),
        }
    }

    /// The declaration kinds that differ between two states.
    fn changed_kinds(&self, prev: &Fingerprints) -> BTreeSet<Dep> {
        let (now, then) = (self.state.locations(), prev.state.locations());
        // Whether one component of the per-location fingerprints (or
        // the set of locations) differs.
        let differs = |part: fn(&LocationFp) -> u64| {
            !now.iter()
                .map(|(loc, fp)| (loc, part(fp)))
                .eq(then.iter().map(|(loc, fp)| (loc, part(fp))))
        };
        let mut changed = BTreeSet::new();
        if self.clients != prev.clients {
            changed.insert(Dep::Clients);
        }
        if differs(|fp| fp.0) {
            changed.insert(Dep::Services);
        }
        if differs(|fp| fp.1) {
            changed.insert(Dep::Capacities);
        }
        if self.state.registry() != prev.state.registry() {
            changed.insert(Dep::Policies);
        }
        if self.budgets != prev.budgets {
            changed.insert(Dep::Budgets);
        }
        changed
    }
}

/// What one [`LintEngine::refresh`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshOutcome {
    /// Passes that re-ran because a dependency changed.
    pub passes_run: usize,
    /// Passes whose previous diagnostics were spliced back verbatim.
    pub passes_reused: usize,
}

/// One pass's cached result from the previous refresh.
#[derive(Debug, Clone)]
struct PassEntry {
    code: Code,
    diagnostics: Vec<Diagnostic>,
}

/// An incrementally-maintained lint report over a mutating repository
/// state. See the module docs for the mechanism.
#[derive(Debug, Default)]
pub struct LintEngine {
    bound: usize,
    plan_cap: usize,
    caches: AnalysisCaches,
    state: Option<Fingerprints>,
    /// The [`Dep::Vocabulary`] fingerprint of the last refreshed state.
    vocabulary: Option<u64>,
    pass_cache: Vec<PassEntry>,
    report: Arc<LintReport>,
}

impl LintEngine {
    /// An engine with the default exploration bound and plan cap.
    pub fn new() -> LintEngine {
        Self::with_bounds(DEFAULT_STATE_BOUND, DEFAULT_PLAN_CAP)
    }

    /// An engine with the default bounds whose projection, compliance
    /// and verdict rows live in `cache`, shared with its other users
    /// (a broker's composed products).
    pub fn with_cache(cache: Arc<VerifyCache>) -> LintEngine {
        let mut engine = Self::new();
        engine.caches.verify = cache;
        engine
    }

    /// An engine with explicit bounds.
    pub fn with_bounds(bound: usize, plan_cap: usize) -> LintEngine {
        LintEngine {
            bound,
            plan_cap,
            caches: AnalysisCaches::default(),
            state: None,
            vocabulary: None,
            pass_cache: Vec::new(),
            report: Arc::default(),
        }
    }

    /// The report as of the last successful [`refresh`](Self::refresh).
    /// A refresh that changes nothing keeps the same allocation, so a
    /// caller can hold on to a baseline without copying it.
    pub fn report(&self) -> &Arc<LintReport> {
        &self.report
    }

    /// Brings the report up to date with `input`, re-running only the
    /// passes whose declared dependencies changed.
    ///
    /// # Errors
    ///
    /// As [`crate::lint_scenario`]; the previous report is kept on
    /// error and the next refresh starts from the same diff.
    pub fn refresh(&mut self, input: LintInput<'_>) -> Result<RefreshOutcome, LintError> {
        let state = StateView::of(input.repository, input.registry);
        let hashes = client_hashes(input.clients);
        let fp = Fingerprints::of(&input, &hashes, &state);
        let mut changed = match &self.state {
            None => BTreeSet::from([
                Dep::Clients,
                Dep::Services,
                Dep::Capacities,
                Dep::Policies,
                Dep::Budgets,
                Dep::Vocabulary,
            ]),
            Some(prev) => fp.changed_kinds(prev),
        };
        if changed.is_empty() {
            return Ok(RefreshOutcome {
                passes_run: 0,
                passes_reused: self.pass_cache.len(),
            });
        }

        self.caches.trim(CACHE_LIMIT);

        let ctx = LintContext::build_cached(
            input,
            &hashes,
            &state,
            self.bound,
            self.plan_cap,
            &mut self.caches,
        )?;
        // The vocabulary is derived from clients and services, so it is
        // fingerprinted off the built context: most service edits leave
        // it, and the passes reading only it, untouched.
        let vocabulary = vocabulary_of(&ctx);
        if self.vocabulary != Some(vocabulary) {
            changed.insert(Dep::Vocabulary);
        }
        let mut outcome = RefreshOutcome::default();
        let mut diagnostics = Vec::new();
        let mut next_cache = Vec::new();
        for pass in passes::all() {
            let cached = self
                .pass_cache
                .iter()
                .find(|e| e.code == pass.code())
                .filter(|_| !pass.deps().iter().any(|d| changed.contains(d)));
            let diags = match cached {
                Some(entry) => {
                    outcome.passes_reused += 1;
                    entry.diagnostics.clone()
                }
                None => {
                    outcome.passes_run += 1;
                    pass.run(&ctx)
                }
            };
            diagnostics.extend(diags.iter().cloned());
            next_cache.push(PassEntry {
                code: pass.code(),
                diagnostics: diags,
            });
        }
        sort_diagnostics(&mut diagnostics);
        self.pass_cache = next_cache;
        self.report = Arc::new(LintReport { diagnostics });
        self.state = Some(fp);
        self.vocabulary = Some(vocabulary);
        Ok(outcome)
    }
}

/// The fingerprint behind [`Dep::Vocabulary`]: the alphabet and every
/// policy reference with its origin's subject and position.
fn vocabulary_of(ctx: &LintContext<'_>) -> u64 {
    let refs: Vec<_> = ctx
        .policy_refs
        .iter()
        .map(|o| (&o.subject, o.pos, &o.reference))
        .collect();
    stable_hash_of(&(&ctx.alphabet, refs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_scenario;
    use sufs_core::scenario::parse_scenario;

    #[test]
    fn engine_matches_cold_lint_and_reuses_passes() {
        let sc = parse_scenario(
            "client c { open 1 { int[q -> eps]; ext[a -> eps | b -> eps] } }
             service s { ext[q -> int[a -> eps | b -> eps]] }
             service spare { ext[zzz -> eps] }",
        )
        .unwrap();
        let mut engine = LintEngine::new();
        let first = engine.refresh(LintInput::from(&sc)).unwrap();
        assert_eq!(first.passes_reused, 0);
        let cold = lint_scenario(&sc).unwrap();
        assert_eq!(engine.report().to_json(None), cold.to_json(None));

        // Unchanged state: everything is reused, nothing runs.
        let second = engine.refresh(LintInput::from(&sc)).unwrap();
        assert_eq!(second.passes_run, 0);
        assert_eq!(second.passes_reused, first.passes_run);
        assert_eq!(engine.report().to_json(None), cold.to_json(None));
    }

    #[test]
    fn engine_tracks_capacity_changes() {
        // Capacity alone decides whether `#after` is reachable: the
        // nested session cannot open at a saturated `s`.
        let capped = "client c { open 1 { int[q -> eps] } }
             service s cap 1 { ext[q -> open 2 { int[w -> eps] }; #after | w -> eps] }";
        let free = capped.replace(" cap 1", "");
        let (capped, free) = (
            parse_scenario(capped).unwrap(),
            parse_scenario(&free).unwrap(),
        );
        let mut engine = LintEngine::new();
        for sc in [&capped, &free, &capped] {
            engine.refresh(LintInput::from(sc)).unwrap();
            let cold = lint_scenario(sc).unwrap();
            assert_eq!(engine.report().to_json(None), cold.to_json(None));
        }
    }

    #[test]
    fn engine_tracks_repository_mutations() {
        let before = parse_scenario(
            "client c { open 1 { int[q -> eps] } }
             service s { ext[q -> eps] }
             service t { ext[q -> eps] }",
        )
        .unwrap();
        let after = parse_scenario(
            "client c { open 1 { int[q -> eps] } }
             service s { ext[q -> eps] }",
        )
        .unwrap();
        let mut engine = LintEngine::new();
        engine.refresh(LintInput::from(&before)).unwrap();
        let outcome = engine.refresh(LintInput::from(&after)).unwrap();
        // Policy-independent passes re-run (services changed); the
        // report matches a cold lint of the mutated state.
        assert!(outcome.passes_run > 0);
        let cold = lint_scenario(&after).unwrap();
        assert_eq!(engine.report().to_json(None), cold.to_json(None));
        // And back again.
        engine.refresh(LintInput::from(&before)).unwrap();
        let cold_before = lint_scenario(&before).unwrap();
        assert_eq!(engine.report().to_json(None), cold_before.to_json(None));
    }
}
