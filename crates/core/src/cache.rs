//! Memoisation for the verification pipeline.
//!
//! Verifying a plan space recomputes the same sub-results over and over:
//! the seed pipeline projected `Contract::from_service` and re-ran the
//! Theorem 1 product automaton for the same `(request body, service)`
//! pair once *per candidate plan*, although a repository of `s` services
//! and a client with `r` requests only ever has `r·s` distinct pairs —
//! while the plan space has up to `sʳ` candidates. [`VerifyCache`]
//! memoizes the four expensive sub-checks:
//!
//! 1. **projection** — `Contract::from_service(H)`, keyed by the
//!    structural hash of `H`;
//! 2. **compliance** — `compliant(client_side, server_side)` witnesses,
//!    keyed by the pair of contract hashes;
//! 3. **validity** — the per-`(composition, plan)` security verdict;
//! 4. **progress** — the per-`(composition, plan)` stuck search.
//!
//! Keys bucket on the *stable* structural hashes exposed by
//! `sufs_hexpr::shash` (so hit-rates are reproducible run over run) but
//! compare the full key value: a fingerprint collision costs a bucket
//! scan, never a wrong verdict. Lookups hash and compare *borrowed*
//! keys — the key value is cloned into the table only on a miss, so a
//! hit costs one fingerprint pass and no allocation. The plan-keyed
//! layers *intern* the composition (one synthesis run uses one
//! composition, while the plan space may hold 10⁵ candidates): callers
//! intern once per run via [`VerifyCache::intern`] and look up with the
//! returned [`CompositionId`], so the deep composition expression is
//! fingerprinted once per run instead of twice per candidate. All maps
//! sit behind mutexes so one cache can be shared across the broker's
//! connection threads; hit/miss counters are atomic and can be
//! snapshotted at any point via [`VerifyCache::stats`].

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sufs_contract::{compliant, Contract, ContractError, StuckWitness};
use sufs_hexpr::shash::stable_hash_of;
use sufs_hexpr::{Hist, Location};
use sufs_net::symbolic::StuckState;
use sufs_net::Plan;
use sufs_policy::validity::{ValidityError, Verdict};

/// A fingerprint-bucketed map: the outer key is the stable structural
/// hash of the full key, the bucket holds the full `(key, value)` pairs
/// that share it. Buckets are almost always singletons; a collision
/// costs a short scan with full-value equality, never a wrong answer.
#[derive(Debug)]
struct Bucketed<K, V> {
    buckets: HashMap<u64, Vec<(K, V)>>,
}

impl<K, V> Default for Bucketed<K, V> {
    fn default() -> Self {
        Bucketed {
            buckets: HashMap::new(),
        }
    }
}

impl<K: PartialEq, V> Bucketed<K, V> {
    /// The value stored for the key matching `probe`, if any. `probe`
    /// compares a borrowed form against the owned stored keys.
    fn get(&self, fingerprint: u64, probe: impl Fn(&K) -> bool) -> Option<&V> {
        self.buckets
            .get(&fingerprint)?
            .iter()
            .find(|(k, _)| probe(k))
            .map(|(_, v)| v)
    }

    /// Inserts `(key, value)` unless an equal key is already present
    /// (first writer wins, matching `HashMap::entry().or_insert`).
    fn insert_if_absent(&mut self, fingerprint: u64, key: K, value: V) {
        let bucket = self.buckets.entry(fingerprint).or_default();
        if !bucket.iter().any(|(k, _)| *k == key) {
            bucket.push((key, value));
        }
    }

    /// Drops every entry whose key fails `keep`; returns how many fell.
    fn retain(&mut self, keep: impl Fn(&K) -> bool) -> u64 {
        let mut evicted = 0u64;
        self.buckets.retain(|_, bucket| {
            let before = bucket.len();
            bucket.retain(|(k, _)| keep(k));
            evicted += (before - bucket.len()) as u64;
            !bucket.is_empty()
        });
        evicted
    }

    fn clear(&mut self) -> u64 {
        let evicted: usize = self.buckets.values().map(Vec::len).sum();
        self.buckets.clear();
        evicted as u64
    }
}

/// Hit/miss counters for one cache layer.
#[derive(Debug, Default)]
struct Layer {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Layer {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// A point-in-time snapshot of the cache counters, layer by layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Projection lookups served from / added to the cache.
    pub contract: (u64, u64),
    /// Pairwise-compliance lookups served from / added to the cache.
    pub compliance: (u64, u64),
    /// Security-verdict lookups served from / added to the cache.
    pub validity: (u64, u64),
    /// Stuck-search lookups served from / added to the cache.
    pub progress: (u64, u64),
    /// Entries evicted by incremental invalidation (repository or
    /// registry mutations under a long-lived cache).
    pub evictions: u64,
}

impl CacheStats {
    /// Total hits across every layer.
    pub fn hits(&self) -> u64 {
        self.contract.0 + self.compliance.0 + self.validity.0 + self.progress.0
    }

    /// Total misses across every layer.
    pub fn misses(&self) -> u64 {
        self.contract.1 + self.compliance.1 + self.validity.1 + self.progress.1
    }

    /// The overall hit rate in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// The counter deltas accumulated since `earlier` was snapshotted:
    /// the per-run view of a cache shared across many synthesis calls
    /// (the broker's case).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        let d = |a: (u64, u64), b: (u64, u64)| (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1));
        CacheStats {
            contract: d(self.contract, earlier.contract),
            compliance: d(self.compliance, earlier.compliance),
            validity: d(self.validity, earlier.validity),
            progress: d(self.progress, earlier.progress),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate)",
            self.hits(),
            self.misses(),
            self.hit_rate() * 100.0
        )
    }
}

/// An interned composition: the handle returned by
/// [`VerifyCache::intern`]. Cheap to copy; callers intern the
/// composition once per synthesis run and use the id for every
/// per-plan lookup, so the deep expression is fingerprinted once per
/// run rather than once per candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompositionId(usize);

type ContractMap = Bucketed<Hist, Result<Contract, ContractError>>;
type ComplianceMap = Bucketed<(Contract, Contract), Option<StuckWitness>>;
type ValidityMap = Bucketed<(usize, Plan), Result<Verdict, ValidityError>>;
type ProgressMap = Bucketed<(usize, Plan), Result<Option<StuckState>, usize>>;

/// The verification memo table; see the module docs for the four layers.
///
/// Cheap to create, internally synchronised, and safe to share by
/// reference across threads. A cache may be reused across product
/// builds and per-plan checks as long as the *policy registry* is the same —
/// validity verdicts depend on it, which is why the validity layer is
/// keyed by `(composition, plan)` and a cache must not be shared across
/// registries.
#[derive(Debug, Default)]
pub struct VerifyCache {
    /// Interned compositions: `(fingerprint, expression)`, index = id.
    compositions: Mutex<Vec<(u64, Hist)>>,
    contracts: Mutex<ContractMap>,
    compliance: Mutex<ComplianceMap>,
    validity: Mutex<ValidityMap>,
    progress: Mutex<ProgressMap>,
    contract_stats: Layer,
    compliance_stats: Layer,
    validity_stats: Layer,
    progress_stats: Layer,
    evictions: AtomicU64,
}

impl VerifyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The interning id of `composition`, cloning it into the table on
    /// first sight. One verification run touches one composition (or a
    /// handful, for recovery tables), so the scan is effectively O(1)
    /// and the plan-keyed layers never store deep expression copies.
    /// Callers should intern **once per run** and reuse the id.
    pub fn intern(&self, composition: &Hist) -> CompositionId {
        let fingerprint = stable_hash_of(composition);
        let mut table = self
            .compositions
            .lock()
            .expect("composition table poisoned");
        if let Some(id) = table
            .iter()
            .position(|(fp, h)| *fp == fingerprint && h == composition)
        {
            return CompositionId(id);
        }
        table.push((fingerprint, composition.clone()));
        CompositionId(table.len() - 1)
    }

    /// The fingerprint of a plan-keyed entry: composition id + the
    /// plan's own stable hash. The composition's deep expression is
    /// *not* re-hashed here — that happened once, at [`intern`] time.
    ///
    /// [`intern`]: VerifyCache::intern
    fn plan_key_fp(comp: CompositionId, plan: &Plan) -> u64 {
        stable_hash_of(&(comp.0 as u64, plan))
    }

    /// Memoized [`Contract::from_service`].
    ///
    /// # Errors
    ///
    /// As [`Contract::from_service`] (errors are memoized too).
    pub fn contract_of(&self, service: &Hist) -> Result<Contract, ContractError> {
        let fp = stable_hash_of(service);
        {
            let map = self.contracts.lock().expect("contract cache poisoned");
            if let Some(cached) = map.get(fp, |k| k == service) {
                self.contract_stats.hit();
                return cached.clone();
            }
        }
        self.contract_stats.miss();
        let computed = Contract::from_service(service);
        let mut map = self.contracts.lock().expect("contract cache poisoned");
        map.insert_if_absent(fp, service.clone(), computed.clone());
        computed
    }

    /// Memoized pairwise compliance: the Theorem 1 witness of
    /// `client ⊢ server`, or `None` when the contracts are compliant.
    pub fn compliance_witness(&self, client: &Contract, server: &Contract) -> Option<StuckWitness> {
        let fp = stable_hash_of(&(client, server));
        {
            let map = self.compliance.lock().expect("compliance cache poisoned");
            if let Some(cached) = map.get(fp, |(c, s)| c == client && s == server) {
                self.compliance_stats.hit();
                return cached.clone();
            }
        }
        self.compliance_stats.miss();
        let computed = compliant(client, server).witness().cloned();
        let mut map = self.compliance.lock().expect("compliance cache poisoned");
        map.insert_if_absent(fp, (client.clone(), server.clone()), computed.clone());
        computed
    }

    /// Memoized security verdict for `(composition, plan)`; `compute`
    /// runs the model checker on a miss. Convenience wrapper over
    /// [`validity_interned`] for one-shot callers.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns (errors are memoized too).
    ///
    /// [`validity_interned`]: VerifyCache::validity_interned
    pub fn validity<F>(
        &self,
        composition: &Hist,
        plan: &Plan,
        compute: F,
    ) -> Result<Verdict, ValidityError>
    where
        F: FnOnce() -> Result<Verdict, ValidityError>,
    {
        self.validity_interned(self.intern(composition), plan, compute)
    }

    /// Memoized security verdict for an already-interned composition:
    /// the hot-loop entry point, which never re-hashes the composition.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns (errors are memoized too).
    pub fn validity_interned<F>(
        &self,
        comp: CompositionId,
        plan: &Plan,
        compute: F,
    ) -> Result<Verdict, ValidityError>
    where
        F: FnOnce() -> Result<Verdict, ValidityError>,
    {
        let fp = Self::plan_key_fp(comp, plan);
        {
            let map = self.validity.lock().expect("validity cache poisoned");
            if let Some(cached) = map.get(fp, |(id, p)| *id == comp.0 && p == plan) {
                self.validity_stats.hit();
                return cached.clone();
            }
        }
        self.validity_stats.miss();
        let computed = compute();
        let mut map = self.validity.lock().expect("validity cache poisoned");
        map.insert_if_absent(fp, (comp.0, plan.clone()), computed.clone());
        computed
    }

    /// Memoized stuck search for `(composition, plan)`; `compute` runs
    /// the symbolic exploration on a miss. The error carries the
    /// exceeded state bound, as in `find_stuck`. Convenience wrapper
    /// over [`progress_interned`] for one-shot callers.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns (errors are memoized too).
    ///
    /// [`progress_interned`]: VerifyCache::progress_interned
    pub fn progress<F>(
        &self,
        composition: &Hist,
        plan: &Plan,
        compute: F,
    ) -> Result<Option<StuckState>, usize>
    where
        F: FnOnce() -> Result<Option<StuckState>, usize>,
    {
        self.progress_interned(self.intern(composition), plan, compute)
    }

    /// Memoized stuck search for an already-interned composition.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns (errors are memoized too).
    pub fn progress_interned<F>(
        &self,
        comp: CompositionId,
        plan: &Plan,
        compute: F,
    ) -> Result<Option<StuckState>, usize>
    where
        F: FnOnce() -> Result<Option<StuckState>, usize>,
    {
        let fp = Self::plan_key_fp(comp, plan);
        {
            let map = self.progress.lock().expect("progress cache poisoned");
            if let Some(cached) = map.get(fp, |(id, p)| *id == comp.0 && p == plan) {
                self.progress_stats.hit();
                return cached.clone();
            }
        }
        self.progress_stats.miss();
        let computed = compute();
        let mut map = self.progress.lock().expect("progress cache poisoned");
        map.insert_if_absent(fp, (comp.0, plan.clone()), computed.clone());
        computed
    }

    /// Incremental invalidation for a repository mutation at `loc`:
    /// evicts exactly the per-plan verdicts whose plan binds a request
    /// to the touched location, and returns how many entries fell.
    ///
    /// This is what keeps a long-lived cache sound under a *dynamic*
    /// repository. The contract and compliance layers are pure
    /// functions of the expressions they are keyed by, so they can
    /// never go stale; the validity and progress layers, by contrast,
    /// consult the repository through `symbolic_successors`, but only
    /// at the locations the plan binds — a verdict for a plan that
    /// never mentions `loc` is untouched by any change there. Publish,
    /// update and retract all funnel through here: publishing a
    /// location can flip a previously `UnknownLocation`-doomed plan
    /// just as surely as retracting it can doom a valid one.
    pub fn invalidate_location(&self, loc: &Location) -> u64 {
        let keep = |key: &(usize, Plan)| !key.1.iter().any(|(_, l)| l == loc);
        let mut evicted = 0u64;
        evicted += self
            .validity
            .lock()
            .expect("validity cache poisoned")
            .retain(keep);
        evicted += self
            .progress
            .lock()
            .expect("progress cache poisoned")
            .retain(keep);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Invalidation for a policy-registry mutation: security verdicts
    /// depend on the registry through every policy the composition
    /// activates, so the whole validity layer is dropped. Progress,
    /// compliance and contract entries never consult the registry and
    /// survive. Returns the number of entries evicted.
    pub fn invalidate_registry(&self) -> u64 {
        let evicted = self
            .validity
            .lock()
            .expect("validity cache poisoned")
            .clear();
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            contract: self.contract_stats.snapshot(),
            compliance: self.compliance_stats.snapshot(),
            validity: self.validity_stats.snapshot(),
            progress: self.progress_stats.snapshot(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufs_hexpr::builder::*;

    #[test]
    fn contract_layer_memoizes_values_and_errors() {
        let cache = VerifyCache::new();
        let good = recv("q", eps());
        let c1 = cache.contract_of(&good).unwrap();
        let c2 = cache.contract_of(&good).unwrap();
        assert_eq!(c1, c2);
        let bad = Hist::mu("h", Hist::var("h"));
        assert!(cache.contract_of(&bad).is_err());
        assert!(cache.contract_of(&bad).is_err());
        let stats = cache.stats();
        assert_eq!(stats.contract, (2, 2));
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
    }

    #[test]
    fn compliance_layer_memoizes() {
        let cache = VerifyCache::new();
        let client = cache.contract_of(&send("a", eps())).unwrap();
        let server = cache.contract_of(&recv("a", eps())).unwrap();
        assert!(cache.compliance_witness(&client, &server).is_none());
        assert!(cache.compliance_witness(&client, &server).is_none());
        let mismatched = cache.contract_of(&recv("b", eps())).unwrap();
        assert!(cache.compliance_witness(&client, &mismatched).is_some());
        let stats = cache.stats();
        assert_eq!(stats.compliance, (1, 2));
    }

    #[test]
    fn plan_keyed_layers_memoize_closures() {
        let cache = VerifyCache::new();
        let h = ev0("a");
        let plan = Plan::new().with(1u32, "s");
        let mut calls = 0;
        for _ in 0..3 {
            let r = cache.validity(&h, &plan, || {
                calls += 1;
                Ok(Verdict::Valid)
            });
            assert_eq!(r, Ok(Verdict::Valid));
        }
        assert_eq!(calls, 1);
        let mut progress_calls = 0;
        for _ in 0..2 {
            let r = cache.progress(&h, &plan, || {
                progress_calls += 1;
                Err(7)
            });
            assert_eq!(r, Err(7));
        }
        assert_eq!(progress_calls, 1);
        let stats = cache.stats();
        assert_eq!(stats.validity, (2, 1));
        assert_eq!(stats.progress, (1, 1));
        assert!(stats.to_string().contains("hit rate"));
    }

    #[test]
    fn interned_lookups_agree_with_expression_lookups() {
        let cache = VerifyCache::new();
        let h = ev0("a");
        let plan = Plan::new().with(1u32, "s");
        let comp = cache.intern(&h);
        assert_eq!(comp, cache.intern(&h), "interning is idempotent");
        cache
            .validity_interned(comp, &plan, || Ok(Verdict::Valid))
            .unwrap();
        // The expression-keyed wrapper resolves to the same entry.
        let r = cache.validity(&h, &plan, || unreachable!("must hit"));
        assert_eq!(r, Ok(Verdict::Valid));
        cache.progress_interned(comp, &plan, || Ok(None)).unwrap();
        cache
            .progress(&h, &plan, || unreachable!("must hit"))
            .unwrap();
    }

    #[test]
    fn distinct_compositions_do_not_collide() {
        let cache = VerifyCache::new();
        let plan = Plan::new().with(1u32, "s");
        let r1 = cache.validity(&ev0("a"), &plan, || Ok(Verdict::Valid));
        let r2 = cache.validity(&ev0("b"), &plan, || Err(ValidityError::BoundExceeded(1)));
        assert!(r1.is_ok());
        assert!(r2.is_err());
        // Re-querying the first composition still hits.
        let r3 = cache.validity(&ev0("a"), &plan, || unreachable!());
        assert_eq!(r3, Ok(Verdict::Valid));
    }

    #[test]
    fn location_invalidation_evicts_only_mentioning_plans() {
        let cache = VerifyCache::new();
        let h = ev0("a");
        let touching = Plan::new().with(1u32, "s").with(2u32, "t");
        let unrelated = Plan::new().with(1u32, "u");
        cache
            .validity(&h, &touching, || Ok(Verdict::Valid))
            .unwrap();
        cache
            .validity(&h, &unrelated, || Ok(Verdict::Valid))
            .unwrap();
        cache.progress(&h, &touching, || Ok(None)).unwrap();
        cache.progress(&h, &unrelated, || Ok(None)).unwrap();
        // Touch `t`: only the plans binding `t` fall, in both layers.
        let evicted = cache.invalidate_location(&Location::new("t"));
        assert_eq!(evicted, 2);
        assert_eq!(cache.stats().evictions, 2);
        let mut recomputed = false;
        cache
            .validity(&h, &touching, || {
                recomputed = true;
                Ok(Verdict::Valid)
            })
            .unwrap();
        assert!(recomputed, "evicted entry must be recomputed");
        cache
            .validity(&h, &unrelated, || unreachable!("survivor must hit"))
            .unwrap();
        cache
            .progress(&h, &unrelated, || unreachable!("survivor must hit"))
            .unwrap();
        // A location no plan mentions evicts nothing.
        assert_eq!(cache.invalidate_location(&Location::new("zzz")), 0);
    }

    #[test]
    fn registry_invalidation_clears_validity_only() {
        let cache = VerifyCache::new();
        let h = ev0("a");
        let plan = Plan::new().with(1u32, "s");
        cache.validity(&h, &plan, || Ok(Verdict::Valid)).unwrap();
        cache.progress(&h, &plan, || Ok(None)).unwrap();
        assert_eq!(cache.invalidate_registry(), 1);
        let mut recomputed = false;
        cache
            .validity(&h, &plan, || {
                recomputed = true;
                Ok(Verdict::Valid)
            })
            .unwrap();
        assert!(recomputed);
        // Progress never consults the registry: still cached.
        cache
            .progress(&h, &plan, || unreachable!("progress must survive"))
            .unwrap();
    }

    #[test]
    fn stats_since_reports_the_delta() {
        let cache = VerifyCache::new();
        let h = ev0("a");
        let plan = Plan::new().with(1u32, "s");
        cache.validity(&h, &plan, || Ok(Verdict::Valid)).unwrap();
        let mark = cache.stats();
        cache.validity(&h, &plan, || unreachable!()).unwrap();
        let delta = cache.stats().since(&mark);
        assert_eq!(delta.validity, (1, 0));
        assert_eq!(delta.contract, (0, 0));
        assert_eq!(delta.evictions, 0);
    }

    #[test]
    fn distinct_plans_do_not_collide() {
        let cache = VerifyCache::new();
        let h = ev0("a");
        let p1 = Plan::new().with(1u32, "x");
        let p2 = Plan::new().with(1u32, "y");
        let r1 = cache.validity(&h, &p1, || Ok(Verdict::Valid));
        let r2 = cache.validity(&h, &p2, || Err(ValidityError::BoundExceeded(1)));
        assert!(r1.is_ok());
        assert!(r2.is_err());
    }
}
