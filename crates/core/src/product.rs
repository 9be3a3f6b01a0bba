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
//! The product is fingerprint-addressed with the same `shash` idiom as
//! the incremental lint engine: it stores a per-location fingerprint of
//! `(service behaviour, capacity)` and one fingerprint of the policy
//! registry. On the next query after a `publish`/`retract`/
//! `retract_policy`, only the regions whose fingerprints changed are
//! recomputed — edges touching changed locations, plus the verdicts of
//! surviving plans that bind a changed location. Verdicts of plans
//! whose bound locations are untouched are *reused*: security and
//! progress consult the repository only at the locations a plan binds.
//! The product's verdict map is the only per-plan memo on this path;
//! the shared [`VerifyCache`] holds only pure, content-keyed facts, so
//! no mutation ever has to invalidate anything. A patched product is
//! byte-identical to a cold rebuild: both paths run the same
//! deterministic checks over the same inputs and store results in
//! plan-sorted maps.
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

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sufs_hexpr::shash::stable_hash_of;
use sufs_hexpr::RequestId;
use sufs_hexpr::{wf, Hist, Location};
use sufs_net::{Plan, Repository};
use sufs_policy::PolicyRegistry;

use crate::cache::VerifyCache;
use crate::plans::{self, PlanSpaceExceeded};
use crate::report::VerifyReport;
use crate::verify::{
    check_plan, prune_safe_bodies, Engine, PlanVerdict, SynthStats, Synthesis, SynthesisOptions,
    VerifyError,
};

/// Per-query product instrumentation, surfaced in
/// [`SynthStats::product`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProductInfo {
    /// Whether an existing product was reused (possibly after a patch)
    /// instead of built from scratch.
    pub reused: bool,
    /// Changed regions repaired by the incremental patch: mutated
    /// locations, plus one for a registry change.
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
    /// Incremental patches applied (queries that repaired ≥ 1 region).
    pub patches: u64,
    /// Queries answered by reading off a current product unchanged.
    pub reads: u64,
    /// Products evicted to respect the store capacity.
    pub evictions: u64,
    /// Products currently resident.
    pub entries: usize,
}

/// The per-location fingerprint the product diffs against: behaviour
/// and capacity together, since both influence verdicts.
fn location_fp(service: &Hist, capacity: Option<usize>) -> u64 {
    stable_hash_of(&(service, capacity.map(|c| c as u64)))
}

/// The repository signature: one fingerprint per published location.
fn repo_signature(repo: &Repository) -> BTreeMap<Location, u64> {
    repo.iter()
        .map(|(loc, service)| {
            let capacity = repo.capacity(loc).flatten();
            (loc.clone(), location_fp(service, capacity))
        })
        .collect()
}

/// One fingerprint of the whole policy registry (same idiom as the
/// incremental lint engine): verdicts depend on it through every policy
/// the composition can activate.
fn registry_fingerprint(registry: &PolicyRegistry) -> u64 {
    let parts: Vec<u64> = registry
        .iter()
        .map(|a| stable_hash_of(&format!("{a:?}")))
        .collect();
    stable_hash_of(&parts)
}

/// The composed product for one client over one repository state.
#[derive(Debug, Clone)]
struct Product {
    /// Fingerprint of `(service, capacity)` per location at build time.
    repo_sig: BTreeMap<Location, u64>,
    /// Fingerprint of the policy registry at build time.
    registry_fp: u64,
    /// The per-request bodies the edge relation committed to, or `None`
    /// when compliance pruning is unsound (ambiguous bodies) and the
    /// product materializes every candidate instead.
    bodies: Option<HashMap<RequestId, Hist>>,
    /// `request × location → admissible` (empty when `bodies` is `None`).
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

/// Enumerates the distinct surviving plans under the product's edge
/// relation, cutting inadmissible branches during construction.
fn surviving_plans(
    client: &Hist,
    repo: &Repository,
    edges: &BTreeMap<RequestId, BTreeMap<Location, bool>>,
    cap: usize,
) -> Result<(BTreeSet<Plan>, usize), PlanSpaceExceeded> {
    plans::surviving_plans(client, repo, cap, &mut |_plan, r, loc| {
        matches!(edges.get(&r).and_then(|row| row.get(loc)), Some(false))
    })
}

fn build_product(
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
    cap: usize,
    cache: &VerifyCache,
) -> Result<Product, VerifyError> {
    let bodies = prune_safe_bodies(client, repo);
    let edges: BTreeMap<RequestId, BTreeMap<Location, bool>> = match &bodies {
        Some(map) => map
            .iter()
            .map(|(r, body)| (*r, edge_row(body, repo.iter(), cache)))
            .collect(),
        None => BTreeMap::new(),
    };
    let (surviving, pruned_subtrees) = surviving_plans(client, repo, &edges, cap)?;
    let mut verdicts = BTreeMap::new();
    for plan in surviving {
        let verdict = check_plan(client, &plan, repo, registry, Some(cache))?;
        verdicts.insert(plan, verdict);
    }
    Ok(Product {
        repo_sig: repo_signature(repo),
        registry_fp: registry_fingerprint(registry),
        bodies,
        edges,
        verdicts,
        pruned_subtrees,
    })
}

/// Patches `product` to the current `(repo, registry)` state, repairing
/// only the regions whose fingerprints changed. Returns the number of
/// repaired regions (0 = the product was already current).
fn patch_product(
    product: &mut Product,
    client: &Hist,
    repo: &Repository,
    registry: &PolicyRegistry,
    cap: usize,
    cache: &VerifyCache,
) -> Result<usize, VerifyError> {
    let new_sig = repo_signature(repo);
    let new_registry_fp = registry_fingerprint(registry);
    let changed: BTreeSet<Location> = product
        .repo_sig
        .iter()
        .filter(|(loc, fp)| new_sig.get(*loc) != Some(fp))
        .map(|(loc, _)| loc.clone())
        .chain(
            new_sig
                .keys()
                .filter(|loc| !product.repo_sig.contains_key(*loc))
                .cloned(),
        )
        .collect();
    let registry_changed = new_registry_fp != product.registry_fp;
    if changed.is_empty() && !registry_changed {
        return Ok(0);
    }

    if !changed.is_empty() {
        let bodies = prune_safe_bodies(client, repo);
        match (&product.bodies, &bodies) {
            (Some(old), Some(new)) => {
                // Requests whose committed body changed (or that are new)
                // re-check every location; stable requests re-check only
                // the changed locations.
                let mut edges = BTreeMap::new();
                for (r, body) in new {
                    let row = match (old.get(r), product.edges.get(r)) {
                        (Some(old_body), Some(old_row)) if old_body == body => {
                            let mut row: BTreeMap<Location, bool> = old_row
                                .iter()
                                .filter(|(loc, _)| {
                                    !changed.contains(*loc) && new_sig.contains_key(*loc)
                                })
                                .map(|(loc, a)| (loc.clone(), *a))
                                .collect();
                            let touched = repo.iter().filter(|(loc, _)| changed.contains(*loc));
                            row.extend(edge_row(body, touched, cache));
                            row
                        }
                        _ => edge_row(body, repo.iter(), cache),
                    };
                    edges.insert(*r, row);
                }
                product.edges = edges;
            }
            (_, Some(new)) => {
                // The product previously ran unpruned; rebuild the whole
                // edge relation.
                product.edges = new
                    .iter()
                    .map(|(r, body)| (*r, edge_row(body, repo.iter(), cache)))
                    .collect();
            }
            (_, None) => {
                // Bodies became ambiguous: pruning is off from here on.
                product.edges = BTreeMap::new();
            }
        }
        product.bodies = bodies;
    }

    let (surviving, pruned_subtrees) = surviving_plans(client, repo, &product.edges, cap)?;
    let mut verdicts = BTreeMap::new();
    for plan in surviving {
        let untouched = !registry_changed && !plan.iter().any(|(_, loc)| changed.contains(loc));
        let verdict = match product.verdicts.get(&plan) {
            Some(v) if untouched => v.clone(),
            _ => check_plan(client, &plan, repo, registry, Some(cache))?,
        };
        verdicts.insert(plan, verdict);
    }
    product.verdicts = verdicts;
    product.pruned_subtrees = pruned_subtrees;
    product.repo_sig = new_sig;
    product.registry_fp = new_registry_fp;
    Ok(changed.len() + usize::from(registry_changed))
}

#[derive(Debug)]
struct Entry {
    client: Hist,
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
/// duration of any build/patch it triggers, so concurrent queries for
/// the same repository state serialise on the structure they share —
/// by design, since the second query then reads off the first one's
/// work. Nothing here needs an invalidation call: each product
/// re-validates against the current repository and registry
/// fingerprints on every query, and a shared [`VerifyCache`] holds
/// only pure, content-keyed facts.
#[derive(Debug)]
pub struct ProductStore {
    entries: Mutex<Vec<Entry>>,
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

    /// Drops every resident product (they rebuild on next query).
    pub fn clear(&self) {
        self.entries.lock().expect("product store poisoned").clear();
    }

    /// Builds (or patches) the product for `client` without reading a
    /// report: the broker's warm-start hook, run after crash recovery
    /// so the first post-recovery query pays read-off price only.
    ///
    /// # Errors
    ///
    /// As [`ProductStore::synthesize`].
    pub fn warm(
        &self,
        client: &Hist,
        repo: &Repository,
        registry: &PolicyRegistry,
        opts: &SynthesisOptions,
        shared: Option<&VerifyCache>,
    ) -> Result<(), VerifyError> {
        self.synthesize(client, repo, registry, opts, shared)
            .map(|_| ())
    }

    /// Compositional synthesis: answers from the resident product for
    /// `client`, building or patching it first if the repository or
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
    /// for `client`, patch it if the repository or registry
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
        let local;
        let (cache, mark) = match shared {
            Some(shared) => (shared, Some(shared.stats())),
            None => {
                local = VerifyCache::new();
                (&local, None)
            }
        };

        let client_fp = stable_hash_of(client);
        let now = self.tick();
        let mut entries = self.entries.lock().expect("product store poisoned");
        let slot = entries
            .iter()
            .position(|e| e.client_fp == client_fp && e.client == *client);
        let mut info = ProductInfo::default();
        let entry = match slot {
            Some(i) => {
                let entry = &mut entries[i];
                let patched = patch_product(
                    &mut entry.product,
                    client,
                    repo,
                    registry,
                    opts.plan_cap,
                    cache,
                )?;
                if patched > 0 {
                    self.patches.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.reads.fetch_add(1, Ordering::Relaxed);
                }
                info.reused = true;
                info.patched = patched;
                entry.last_used = now;
                entry
            }
            None => {
                let product = build_product(client, repo, registry, opts.plan_cap, cache)?;
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
                    client: client.clone(),
                    client_fp,
                    product,
                    last_used: now,
                });
                entries.last_mut().expect("just pushed")
            }
        };

        // The cap binds every read, not only builds and patches: a
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
        let prune_active = entry.product.bodies.is_some();
        let out = read(&entry.product);
        drop(entries);

        let stats = SynthStats {
            candidates,
            pruned_subtrees,
            prune_active,
            cache: Some(match &mark {
                Some(mark) => cache.stats().since(mark),
                None => cache.stats(),
            }),
            engine: Engine::Compositional,
            product: Some(info),
            elapsed: start.elapsed(),
        };
        Ok((out, stats))
    }

    /// The *full* plan space for `client` over `repo` (no pruning), up
    /// to `cap` distinct plans: the product-backed replacement for raw
    /// enumeration, used by the lint engine's plan-space caches. The
    /// result is identical to `enumerate_plans` — the product only
    /// contributes its closure walk.
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
        store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        repo.publish("good2", recv("q", choose([("a", eps())])));
        let patched = store
            .synthesize(&client, &repo, &registry, &opts, None)
            .unwrap();
        let info = patched.stats.product.unwrap();
        assert!(info.reused);
        assert_eq!(info.patched, 1);
        assert_eq!(patched.report.len(), 9); // 3² survivors
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
