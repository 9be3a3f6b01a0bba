//! Compositional plan synthesis: the composed product.
//!
//! The enumerative reference ([`crate::verify::synthesize`]) re-walks a
//! plan space exponential in the number of requests on *every* query,
//! although the repository state it walks rarely changes between
//! queries. Following the contract-automata line (one product/controller
//! object from which all valid orchestrations are read off), this module
//! computes a **composed product** of the client behaviour × the exposed
//! service interfaces once per repository state:
//!
//! * an **edge relation** `request × location → admissible?` — one
//!   pairwise compliance check per `(request body, service)` pair (via
//!   the Theorem 1 product automaton, memoized in the [`VerifyCache`]),
//!   instead of one per candidate plan;
//! * the **surviving plan set** — the depth-first closure of the edge
//!   relation over exposed requests, with inadmissible branches cut
//!   *during construction* (never expanded);
//! * the **materialized verdicts** — each surviving plan's security and
//!   progress checks, run once and stored.
//!
//! A query then *reads off* valid plans (any, all up to the cap, or
//! first-k) from the materialized map in time proportional to the
//! result, not to the candidate space.
//!
//! # Incremental maintenance
//!
//! A product records the [`StateFingerprints`] of the repository and
//! registry it was derived from. On the next query after a `publish`/
//! `retract`/`retract_policy` those fingerprints differ, and the product
//! is re-derived by the one build path. A verdict row is keyed by the
//! client, the plan and the fingerprints of what the verdict reads —
//! the registry and the locations the plan binds, since security and
//! progress consult the repository nowhere else. A resident row whose
//! key is unchanged is carried over as is; every other row comes from
//! the shared [`VerifyCache`], whose layers are keyed the same way, so
//! only the verdicts that read a changed location are recomputed, and
//! on a gated broker those were usually already paid for by the lint
//! engine sharing the cache. A re-derived product equals a cold rebuild
//! by construction: every row it keeps or looks up has the key a cold
//! build would compute it under.
//!
//! # Equivalence with the enumerative reference
//!
//! When compliance pruning is sound (every request identifier carries
//! one structural body — see `prune_safe_bodies`), the product's report
//! equals the *pruned* enumerative report: the surviving plans with
//! their verdicts, from which compliance-rejected candidates have been
//! cut. Its valid-plan set equals the *full* enumerative report's valid
//! set (pruning only ever cuts invalid candidates). When pruning is
//! unsound the product falls back to materializing every candidate's
//! verdict, and the report equals the full enumerative report. The plan
//! cap counts distinct surviving candidates.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sufs_hexpr::shash::stable_hash_of;
use sufs_hexpr::{wf, Hist, Location, RequestId};
use sufs_net::{Plan, Repository};
use sufs_policy::PolicyRegistry;

use crate::cache::{StateFingerprints, StateView, VerifyCache};
use crate::plans::{self, PlanSpaceExceeded};
use crate::report::VerifyReport;
use crate::verify::{
    prune_safe_bodies, Engine, PlanVerdict, SynthStats, Synthesis, SynthesisOptions, VerifyError,
};

/// Per-query product instrumentation, surfaced in
/// [`SynthStats::product`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProductInfo {
    /// Whether the client already had a resident product (possibly
    /// re-derived) instead of one built for it from scratch.
    pub reused: bool,
    /// Changed regions since the resident product was derived: mutated
    /// locations, plus one for a registry change. Any changed region
    /// re-derives the product through the verdict cache.
    pub patched: usize,
    /// Admissible `(request, location)` edges in the product.
    pub admissible_edges: usize,
    /// Total `(request, location)` edges examined.
    pub total_edges: usize,
}

/// Store-level counters, surfaced in broker `stats` and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProductStats {
    /// Products built from scratch.
    pub builds: u64,
    /// Re-derivations of a resident product (queries that saw ≥ 1
    /// changed region).
    pub patches: u64,
    /// Queries answered by reading off a current product unchanged.
    pub reads: u64,
    /// Products evicted to respect the store capacity.
    pub evictions: u64,
    /// Products currently resident.
    pub entries: usize,
}

/// The composed product for one client over one repository state.
#[derive(Debug, Clone, Default)]
struct Product {
    /// The repository and registry state the product was derived from.
    state: StateFingerprints,
    /// Whether compliance pruning is sound here; when it is not
    /// (ambiguous bodies) the product materializes every candidate.
    prune_active: bool,
    /// `request × location → admissible` (empty without pruning).
    edges: BTreeMap<RequestId, BTreeMap<Location, bool>>,
    /// Every surviving plan with its materialized verdict.
    verdicts: BTreeMap<Plan, PlanVerdict>,
    /// Subtrees cut while enumerating the surviving set.
    pruned_subtrees: usize,
}

impl Product {
    fn admissible_edges(&self) -> usize {
        self.edges
            .values()
            .map(|row| row.values().filter(|a| **a).count())
            .sum()
    }

    fn total_edges(&self) -> usize {
        self.edges.values().map(BTreeMap::len).sum()
    }
}

/// Recomputes the admissibility row of request `r` (body `body`) at the
/// given locations. An edge stays admissible on projection errors, so
/// full verification — not the prune — surfaces them, mirroring the
/// enumerative prune predicate.
fn edge_row<'a>(
    body: &Hist,
    locations: impl Iterator<Item = (&'a Location, &'a Hist)>,
    cache: &VerifyCache,
) -> BTreeMap<Location, bool> {
    let client_side = cache.contract_of(body);
    locations
        .map(|(loc, service)| {
            let admissible = match (&client_side, cache.contract_of(service)) {
                (Ok(c), Ok(s)) => cache.compliance_witness(c, &s).is_none(),
                _ => true,
            };
            (loc.clone(), admissible)
        })
        .collect()
}

/// Derives the product for `client` over `state`. On a re-derivation,
/// `prior` is the resident product: each of its rows whose plan reads the
/// same fingerprints under both states is the row the verdict cache would
/// return, and is moved over without a lookup, so re-deriving a product
/// recomputes only the verdicts that read a changed region however small
/// the shared cache's bound. Every other verdict goes through `cache`.
fn build_product(
    client: &Arc<Hist>,
    state: &StateView<'_>,
    cap: usize,
    cache: &VerifyCache,
    prior: Option<Product>,
) -> Result<Product, VerifyError> {
    let repo = state.repo();
    let bodies = prune_safe_bodies(client, repo);
    let edges: BTreeMap<RequestId, BTreeMap<Location, bool>> = match &bodies {
        Some(map) => map
            .iter()
            .map(|(r, body)| (*r, edge_row(body, repo.iter(), cache)))
            .collect(),
        None => BTreeMap::new(),
    };
    // Enumerate the distinct surviving plans, cutting inadmissible
    // branches during construction.
    let (surviving, pruned_subtrees) =
        plans::surviving_plans(client, repo, cap, &mut |_, r, loc| {
            matches!(edges.get(&r).and_then(|row| row.get(loc)), Some(false))
        })?;
    let mut resident = prior.map(|p| (p.state, p.verdicts));
    let mut verdicts = BTreeMap::new();
    for plan in surviving {
        let reused = resident.as_mut().and_then(|(then, rows)| {
            let bound = || plan.iter().map(|(_, loc)| loc);
            if then.reads(bound()) == state.fingerprints().reads(bound()) {
                rows.remove(&plan)
            } else {
                None
            }
        });
        let verdict = match reused {
            Some(verdict) => verdict,
            None => cache.verdict(client, &plan, state)?,
        };
        verdicts.insert(plan, verdict);
    }
    Ok(Product {
        state: state.fingerprints().clone(),
        prune_active: bodies.is_some(),
        edges,
        verdicts,
        pruned_subtrees,
    })
}

#[derive(Debug)]
struct Entry {
    client: Arc<Hist>,
    client_fp: u64,
    product: Product,
    last_used: u64,
}

/// The default number of resident products.
pub const DEFAULT_STORE_CAPACITY: usize = 64;

/// A bounded store of composed products, keyed by client behaviour:
/// the long-lived structure behind every broker query (one entry per
/// distinct client) and the one-shot structure behind
/// `sufs verify --engine compositional`.
///
/// Internally synchronised; a query holds the store lock for the
/// duration of any build it triggers, so concurrent queries for the
/// same repository state serialise on the structure they share — by
/// design, since the second query then reads off the first one's work.
/// Nothing here needs an invalidation call: each product re-validates
/// against the current [`StateFingerprints`] on every query, and a
/// [`VerifyCache`] is keyed by content. Queries that pass no shared
/// cache use one the store owns.
#[derive(Debug)]
pub struct ProductStore {
    entries: Mutex<Vec<Entry>>,
    cache: VerifyCache,
    capacity: usize,
    clock: AtomicU64,
    builds: AtomicU64,
    patches: AtomicU64,
    reads: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ProductStore {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_STORE_CAPACITY)
    }
}

impl ProductStore {
    /// An empty store with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store holding at most `capacity` products.
    pub fn with_capacity(capacity: usize) -> Self {
        ProductStore {
            entries: Mutex::new(Vec::new()),
            cache: VerifyCache::new(),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A snapshot of the store counters.
    pub fn stats(&self) -> ProductStats {
        ProductStats {
            builds: self.builds.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.lock().expect("product store poisoned").len(),
        }
    }

    /// Compositional synthesis: answers from the resident product for
    /// `client`, building or re-deriving it first if the repository or
    /// registry fingerprints moved. Report-equivalent to the pruned
    /// enumerative engine (see the module docs for the exact spec).
    ///
    /// # Errors
    ///
    /// As [`crate::verify::synthesize`]; the plan cap counts distinct
    /// surviving candidates.
    pub fn synthesize(
        &self,
        client: &Hist,
        repo: &Repository,
        registry: &PolicyRegistry,
        opts: &SynthesisOptions,
        shared: Option<&VerifyCache>,
    ) -> Result<Synthesis, VerifyError> {
        let (verdicts, stats) = self.with_entry(client, repo, registry, opts, shared, |p| {
            p.verdicts.values().cloned().collect::<Vec<PlanVerdict>>()
        })?;
        Ok(Synthesis {
            report: VerifyReport::new(verdicts),
            stats,
        })
    }

    /// The production read-off: the first `k` valid plans plus the
    /// total valid count, straight from the resident product. Unlike
    /// [`ProductStore::synthesize`] this never materialises the full
    /// verdict map, so a query costs the same however wide the plan
    /// space is — the broker's `max_valid` fast path.
    ///
    /// # Errors
    ///
    /// As [`ProductStore::synthesize`].
    pub fn read_valid(
        &self,
        client: &Hist,
        repo: &Repository,
        registry: &PolicyRegistry,
        opts: &SynthesisOptions,
        shared: Option<&VerifyCache>,
        k: usize,
    ) -> Result<(Vec<Plan>, usize, SynthStats), VerifyError> {
        let ((valid, total), stats) =
            self.with_entry(client, repo, registry, opts, shared, |p| {
                let mut valid = Vec::with_capacity(k.min(8));
                let mut total = 0usize;
                for v in p.verdicts.values() {
                    if v.is_valid() {
                        if valid.len() < k {
                            valid.push(v.plan.clone());
                        }
                        total += 1;
                    }
                }
                (valid, total)
            })?;
        Ok((valid, total, stats))
    }

    /// Shared maintenance path: locate (or build) the resident product
    /// for `client`, re-derive it if the repository or registry
    /// fingerprints moved, and hand it to `read` under the store lock.
    fn with_entry<T>(
        &self,
        client: &Hist,
        repo: &Repository,
        registry: &PolicyRegistry,
        opts: &SynthesisOptions,
        shared: Option<&VerifyCache>,
        read: impl FnOnce(&Product) -> T,
    ) -> Result<(T, SynthStats), VerifyError> {
        let start = Instant::now();
        wf::check(client).map_err(VerifyError::IllFormedClient)?;
        let cache = shared.unwrap_or(&self.cache);
        let mark = cache.stats();

        let client_fp = stable_hash_of(client);
        let state = StateView::of(repo, registry);
        let cap = opts.plan_cap;
        let now = self.tick();
        let mut entries = self.entries.lock().expect("product store poisoned");
        let slot = entries
            .iter()
            .position(|e| e.client_fp == client_fp && *e.client == *client);
        let mut info = ProductInfo::default();
        let entry = match slot {
            Some(i) => {
                let patched = state
                    .fingerprints()
                    .changed_regions(&entries[i].product.state);
                if patched > 0 {
                    let prior = std::mem::take(&mut entries[i].product);
                    match build_product(&entries[i].client, &state, cap, cache, Some(prior)) {
                        Ok(product) => entries[i].product = product,
                        Err(e) => {
                            // The resident rows went into the failed
                            // derivation; the next query builds afresh.
                            entries.remove(i);
                            return Err(e);
                        }
                    }
                    self.patches.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.reads.fetch_add(1, Ordering::Relaxed);
                }
                info.reused = true;
                info.patched = patched;
                let entry = &mut entries[i];
                entry.last_used = now;
                entry
            }
            None => {
                let client = Arc::new(client.clone());
                let product = build_product(&client, &state, cap, cache, None)?;
                self.builds.fetch_add(1, Ordering::Relaxed);
                if entries.len() >= self.capacity {
                    if let Some(oldest) = entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i)
                    {
                        entries.remove(oldest);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                entries.push(Entry {
                    client,
                    client_fp,
                    product,
                    last_used: now,
                });
                entries.last_mut().expect("just pushed")
            }
        };

        // The cap binds every read, not only builds: a
        // product resident from a roomier query must not answer one
        // with a lower cap that a cold build would refuse.
        let candidates = entry.product.verdicts.len();
        if candidates > opts.plan_cap {
            return Err(VerifyError::PlanSpace(PlanSpaceExceeded {
                cap: opts.plan_cap,
            }));
        }
        info.admissible_edges = entry.product.admissible_edges();
        info.total_edges = entry.product.total_edges();
        let pruned_subtrees = entry.product.pruned_subtrees;
        let prune_active = entry.product.prune_active;
        let out = read(&entry.product);
        drop(entries);

        let stats = SynthStats {
            candidates,
            pruned_subtrees,
            prune_active,
            cache: Some(cache.stats().since(&mark)),
            engine: Engine::Compositional,
            product: Some(info),
            elapsed: start.elapsed(),
        };
        Ok((out, stats))
    }

    /// The *full* plan space for `client` over `repo` (no pruning), up
    /// to `cap` distinct plans: [`plans::enumerate_plans`], kept for the
    /// benchmark harness (`perfbench`), which sizes its inputs with it.
    ///
    /// # Errors
    ///
    /// Returns [`PlanSpaceExceeded`] past the cap.
    pub fn plan_space(
        &self,
        client: &Hist,
        repo: &Repository,
        cap: usize,
    ) -> Result<Vec<Plan>, PlanSpaceExceeded> {
        plans::enumerate_plans(client, repo, cap)
    }
}

/// One-shot compositional synthesis against a fresh store: the path
/// behind [`crate::verify::synthesize`] when
/// `opts.engine == Engine::Compositional`.
///
/// # Errors
///
/// As [`ProductStore::synthesize`].
pub fn synthesize_one_shot(
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
    opts: &SynthesisOptions,
    shared: Option<&VerifyCache>,
) -> Result<Synthesis, VerifyError> {
    ProductStore::with_capacity(1).synthesize(client, repo, registry, opts, shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{synthesize, SynthesisOptions};
    use sufs_hexpr::builder::*;

    fn client2() -> Hist {
        Hist::seq_all((0..2).map(|i| {
            request(
                i as u32 + 1,
                None,
                seq([send("q", eps()), offer([("a", eps())])]),
            )
        }))
    }

    fn mixed_repo() -> Repository {
        let mut repo = Repository::new();
        for i in 0..2 {
            repo.publish(format!("good{i}"), recv("q", choose([("a", eps())])));
        }
        for i in 0..2 {
            repo.publish(format!("bad{i}"), recv("q", choose([("b", eps())])));
        }
        repo
    }

    #[test]
    fn product_matches_enumerative_valid_set() {
        let client = client2();
        let repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let enumerative = synthesize(&client, &repo, &registry, &opts).unwrap();
        let store = ProductStore::new();
        let compositional = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        let expected: Vec<_> = enumerative.report.valid_plans().collect();
        let got: Vec<_> = compositional.report.valid_plans().collect();
        assert_eq!(expected, got);
        assert_eq!(compositional.stats.engine, Engine::Compositional);
        // Pruning cut the bad-binding candidates during construction.
        assert_eq!(compositional.report.len(), 4); // 2² survivors of 4²
        assert!(compositional.stats.prune_active);
        let info = compositional.stats.product.unwrap();
        assert!(!info.reused);
        assert_eq!(info.admissible_edges, 4); // 2 requests × 2 good
        assert_eq!(info.total_edges, 8); // 2 requests × 4 services
    }

    #[test]
    fn unchanged_state_reads_off_without_patching() {
        let client = client2();
        let repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let store = ProductStore::new();
        store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        let again = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        let info = again.stats.product.unwrap();
        assert!(info.reused);
        assert_eq!(info.patched, 0);
        let stats = store.stats();
        assert_eq!((stats.builds, stats.patches, stats.reads), (1, 0, 1));
    }

    #[test]
    fn publish_patches_only_the_touched_region() {
        let client = client2();
        let mut repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let store = ProductStore::new();
        let cache = VerifyCache::new();
        store
            .synthesize(&client, &repo, &registry, &opts, Some(&cache))
            .unwrap();
        repo.publish("good2", recv("q", choose([("a", eps())])));
        let patched = store
            .synthesize(&client, &repo, &registry, &opts, Some(&cache))
            .unwrap();
        let info = patched.stats.product.unwrap();
        assert!(info.reused);
        assert_eq!(info.patched, 1);
        // 3² survivors: the 4 plans that do not bind good2 keep their
        // resident rows without a lookup; the 5 that do are verified.
        assert_eq!(patched.report.len(), 9);
        assert_eq!(patched.stats.cache.unwrap().verdict, (0, 5));
        // Byte-identical to a cold rebuild.
        let cold = ProductStore::new()
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(cold.report.verdicts(), patched.report.verdicts());
        assert_eq!(store.stats().patches, 1);
    }

    #[test]
    fn retract_drops_the_plans_binding_the_location() {
        let client = client2();
        let mut repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let store = ProductStore::new();
        store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        repo.retract(&Location::new("good1"));
        let patched = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(patched.report.len(), 1); // only good0ʳ survives
        let cold = ProductStore::new()
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        assert_eq!(cold.report.verdicts(), patched.report.verdicts());
    }

    #[test]
    fn store_capacity_evicts_least_recent() {
        let repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions::default();
        let store = ProductStore::with_capacity(1);
        store
            .synthesize(&client2(), &repo, &registry, &opts, None)
            .unwrap();
        let other = request(9u32, None, seq([send("q", eps()), offer([("a", eps())])]));
        store
            .synthesize(&other, &repo, &registry, &opts, None)
            .unwrap();
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.builds, 2);
    }

    #[test]
    fn plan_space_matches_enumeration() {
        let client = client2();
        let repo = mixed_repo();
        let store = ProductStore::new();
        let via_product = store.plan_space(&client, &repo, 1000).unwrap();
        let direct = crate::plans::enumerate_plans(&client, &repo, 1000).unwrap();
        assert_eq!(via_product, direct);
        assert_eq!(via_product.len(), 16);
    }

    #[test]
    fn cap_counts_distinct_surviving_candidates() {
        let client = client2();
        let repo = mixed_repo();
        let registry = PolicyRegistry::new();
        let opts = SynthesisOptions {
            plan_cap: 3, // 4 survivors exist
            ..SynthesisOptions::default()
        };
        let err = ProductStore::new()
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap_err();
        assert!(matches!(err, VerifyError::PlanSpace(_)));
    }

    #[test]
    fn warm_store_honours_a_lower_cap_like_a_cold_store() {
        // Five compliant services for a one-request client: five
        // surviving candidates, over a cap of 2.
        let client = request(1u32, None, seq([send("q", eps()), offer([("a", eps())])]));
        let mut repo = Repository::new();
        for i in 0..5 {
            repo.publish(format!("good{i}"), recv("q", choose([("a", eps())])));
        }
        let registry = PolicyRegistry::new();
        let capped = SynthesisOptions {
            plan_cap: 2,
            ..SynthesisOptions::default()
        };
        let warm = ProductStore::new();
        warm.synthesize(
            &client,
            &repo,
            &registry,
            &SynthesisOptions::default(),
            None,
        )
        .unwrap();
        let cold = ProductStore::new().read_valid(&client, &repo, &registry, &capped, None, 1);
        let warmed = warm.read_valid(&client, &repo, &registry, &capped, None, 1);
        let oracle = synthesize(
            &client,
            &repo,
            &registry,
            &SynthesisOptions {
                prune: true,
                ..capped.clone()
            },
        );
        for (who, err) in [
            ("cold store", cold.map(|_| ()).unwrap_err()),
            ("warm store", warmed.map(|_| ()).unwrap_err()),
            ("pruned reference", oracle.map(|_| ()).unwrap_err()),
        ] {
            assert_eq!(
                err,
                VerifyError::PlanSpace(PlanSpaceExceeded { cap: 2 }),
                "{who}"
            );
        }
        // The same warm store still answers at its roomier cap.
        let (_, total, _) = warm
            .read_valid(
                &client,
                &repo,
                &registry,
                &SynthesisOptions::default(),
                None,
                1,
            )
            .unwrap();
        assert_eq!(total, 5);
    }
}
