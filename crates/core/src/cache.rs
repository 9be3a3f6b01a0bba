//! Memoisation of plan verification, keyed by content.
//!
//! Verifying a plan space recomputes the same sub-results over and over:
//! a repository of `s` services and a client with `r` requests only has
//! `r·s` distinct `(request body, service)` compliance pairs, while the
//! plan space has up to `sʳ` candidates. [`VerifyCache`] memoizes three
//! layers:
//!
//! 1. **projection** — `Contract::from_service(H)`, keyed by `H`;
//! 2. **compliance** — `compliant(client_side, server_side)` witnesses,
//!    keyed by the pair of contracts;
//! 3. **verdicts** — a plan's security and progress verdict, keyed by
//!    the client, the plan, and the [`StateFingerprints`] of what the
//!    verdict reads: the policy registry and the services the plan
//!    binds (§5). The broker's composed products ([`crate::product`])
//!    and the lint engine share this layer, so a verdict the
//!    `--deny-lint` gate paid for is a hit for the next `plan` read.
//!
//! Every entry is keyed by its inputs, so no mutation invalidates
//! anything. Keys bucket on the *stable* structural hashes of
//! `sufs_hexpr::shash` (hit-rates are reproducible run over run).
//! Projection and compliance compare the full key, so a collision costs
//! a bucket scan. Verdict rows compare the client and the plan in full
//! but *trust* the 64-bit fingerprints of the bound services and the
//! registry: two distinct states whose fingerprints collide would share
//! a row. Those fingerprints come only from [`StateView::of`], so a
//! caller cannot pair a row with a state it did not fingerprint.
//! Lookups compare *borrowed* keys; a key is cloned into the table only
//! on a miss. Each layer is cleared wholesale once it holds
//! [`CACHE_LIMIT`] entries; a composed product keeps its own rows, so
//! its re-derivation never depends on what this bound evicted. The maps
//! sit behind mutexes so the broker's connection threads and its lint
//! engine can share one cache; the atomic hit/miss counters are read
//! via [`VerifyCache::stats`].

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sufs_contract::{compliant, Contract, ContractError, StuckWitness};
use sufs_hexpr::shash::stable_hash_of;
use sufs_hexpr::{Hist, Location};
use sufs_net::{Plan, Repository};
use sufs_policy::PolicyRegistry;

use crate::verify::{check_plan, PlanVerdict, VerifyError};

/// Past this many entries a cache layer is cleared wholesale: a crude
/// bound on a long-lived cache, since every entry is re-derivable. The
/// lint engine's analysis maps use the same limit.
pub const CACHE_LIMIT: usize = 1 << 16;

/// A fingerprint-bucketed map: the outer key is the stable structural
/// hash of the full key, the bucket holds the full `(key, value)` pairs
/// that share it. Buckets are almost always singletons; a collision
/// costs a short scan with full-key equality. Holds at most `limit`
/// entries: an insert into a full map clears it first.
#[derive(Debug)]
struct Bucketed<K, V> {
    buckets: HashMap<u64, Vec<(K, V)>>,
    len: usize,
    limit: usize,
}

impl<K, V> Default for Bucketed<K, V> {
    fn default() -> Self {
        Self::with_limit(CACHE_LIMIT)
    }
}

impl<K, V> Bucketed<K, V> {
    fn with_limit(limit: usize) -> Self {
        Bucketed {
            buckets: HashMap::new(),
            len: 0,
            limit: limit.max(1),
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
        if self.get(fingerprint, |k| *k == key).is_some() {
            return;
        }
        if self.len >= self.limit {
            self.buckets.clear();
            self.len = 0;
        }
        self.buckets
            .entry(fingerprint)
            .or_default()
            .push((key, value));
        self.len += 1;
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
    /// Plan-verdict lookups served from / added to the cache.
    pub verdict: (u64, u64),
}

impl CacheStats {
    /// Total hits across all layers.
    pub fn hits(&self) -> u64 {
        self.contract.0 + self.compliance.0 + self.verdict.0
    }

    /// Total misses across all layers.
    pub fn misses(&self) -> u64 {
        self.contract.1 + self.compliance.1 + self.verdict.1
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
            verdict: d(self.verdict, earlier.verdict),
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

/// The fingerprint of one location: its behaviour and its capacity
/// (`u64::MAX` when unbounded).
pub type LocationFp = (u64, u64);

/// What a verdict over some bound locations reads, as fingerprints: the
/// registry's, then each location's in order (`None` if unpublished).
pub type Reads = (u64, Vec<Option<LocationFp>>);

/// The one definition of what a plan verdict reads from a repository
/// state: a `(behaviour, capacity)` fingerprint per published location
/// plus one fingerprint of the policy registry. The composed product
/// compares these to decide whether it is current, and verdict rows are
/// keyed by the entries of the locations a plan binds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateFingerprints {
    locations: BTreeMap<Location, LocationFp>,
    registry: u64,
}

impl StateFingerprints {
    /// Fingerprints `repo` and `registry`.
    pub fn of(repo: &Repository, registry: &PolicyRegistry) -> StateFingerprints {
        let locations = repo
            .iter()
            .map(|(loc, service)| {
                let capacity = repo.capacity(loc).flatten().map_or(u64::MAX, |n| n as u64);
                (loc.clone(), (stable_hash_of(service), capacity))
            })
            .collect();
        // `UsageAutomaton` has no `Hash`, but its `Debug` rendering is a
        // pure function of its fields.
        let policies: Vec<u64> = registry
            .iter()
            .map(|a| stable_hash_of(&format!("{a:?}")))
            .collect();
        StateFingerprints {
            locations,
            registry: stable_hash_of(&policies),
        }
    }

    /// Every published location with its fingerprint, in order.
    pub fn locations(&self) -> &BTreeMap<Location, LocationFp> {
        &self.locations
    }

    /// The policy registry's fingerprint.
    pub fn registry(&self) -> u64 {
        self.registry
    }

    /// The fingerprints a verdict binding `locs` reads: the registry
    /// and those locations, nothing else.
    pub fn reads<'a>(&self, locs: impl IntoIterator<Item = &'a Location>) -> Reads {
        let locations = locs
            .into_iter()
            .map(|loc| self.locations.get(loc).copied())
            .collect();
        (self.registry, locations)
    }

    /// The regions that differ from `earlier`: one per location
    /// published, retracted or changed in between, plus one for a
    /// registry change.
    pub fn changed_regions(&self, earlier: &StateFingerprints) -> usize {
        let changed = self
            .locations
            .iter()
            .filter(|(loc, fp)| earlier.locations.get(*loc) != Some(fp))
            .count();
        let retracted = earlier
            .locations
            .keys()
            .filter(|loc| !self.locations.contains_key(*loc))
            .count();
        changed + retracted + usize::from(self.registry != earlier.registry)
    }
}

/// A repository and registry together with their [`StateFingerprints`]:
/// the state argument of [`VerifyCache::verdict`]. Only [`StateView::of`]
/// builds one, so the fingerprints a verdict row is keyed by are always
/// those of the state it was computed over.
#[derive(Debug)]
pub struct StateView<'a> {
    repo: &'a Repository,
    registry: &'a PolicyRegistry,
    fingerprints: StateFingerprints,
}

impl<'a> StateView<'a> {
    /// Fingerprints `repo` and `registry` once.
    pub fn of(repo: &'a Repository, registry: &'a PolicyRegistry) -> StateView<'a> {
        StateView {
            repo,
            registry,
            fingerprints: StateFingerprints::of(repo, registry),
        }
    }

    /// The repository.
    pub fn repo(&self) -> &'a Repository {
        self.repo
    }

    /// The fingerprints of the repository and registry.
    pub fn fingerprints(&self) -> &StateFingerprints {
        &self.fingerprints
    }
}

type ContractMap = Bucketed<Hist, Result<Contract, ContractError>>;
type ComplianceMap = Bucketed<(Contract, Contract), Option<StuckWitness>>;
/// `(client, plan, what the plan's verdict reads)`, bucketed on the plan
/// and its reads: distinct clients sharing both share a bucket, never a
/// row.
type VerdictMap = Bucketed<(Arc<Hist>, Plan, Reads), PlanVerdict>;

/// The verification memo table; see the module docs for its three layers.
///
/// Cheap to create, internally synchronised, and safe to share by
/// reference across threads. Every entry is a function of its key, so
/// one cache may serve any number of repositories, registries and
/// clients, before and after any mutation.
#[derive(Debug, Default)]
pub struct VerifyCache {
    contracts: Mutex<ContractMap>,
    compliance: Mutex<ComplianceMap>,
    verdicts: Mutex<VerdictMap>,
    contract_stats: Layer,
    compliance_stats: Layer,
    verdict_stats: Layer,
}

impl VerifyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
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

    /// The memoized verdict of `plan` for `client` over `state`.
    ///
    /// The row is keyed by the client, the plan, the registry
    /// fingerprint and the fingerprints of the locations the plan binds
    /// — nothing else, because a verdict reads the repository only at
    /// the locations its plan binds: the request bodies of
    /// `composed_requests`, and the capacity and load that
    /// `symbolic_successors` consult. A mutation anywhere else leaves
    /// the row current. The caller checks the client's well-formedness
    /// (once per client, not per plan).
    ///
    /// # Errors
    ///
    /// As plan verification; errors are not memoized.
    pub fn verdict(
        &self,
        client: &Arc<Hist>,
        plan: &Plan,
        state: &StateView<'_>,
    ) -> Result<PlanVerdict, VerifyError> {
        // The plan is part of the key, so its bound locations need no
        // deduplication: `reads` is a function of the plan and the state.
        let reads = state.fingerprints.reads(plan.iter().map(|(_, loc)| loc));
        let fp = stable_hash_of(&(plan, &reads));
        {
            let map = self.verdicts.lock().expect("verdict cache poisoned");
            if let Some(cached) = map.get(fp, |(c, p, r)| p == plan && *r == reads && c == client) {
                self.verdict_stats.hit();
                return Ok(cached.clone());
            }
        }
        self.verdict_stats.miss();
        let computed = check_plan(client, plan, state.repo, state.registry, Some(self))?;
        let mut map = self.verdicts.lock().expect("verdict cache poisoned");
        map.insert_if_absent(fp, (client.clone(), plan.clone(), reads), computed.clone());
        Ok(computed)
    }

    /// A no-op that evicts nothing and returns 0: every entry is keyed
    /// by the inputs it was computed from, so a repository mutation at
    /// `_loc` cannot make one stale. No program code calls this; it
    /// exists for the benchmark harness (`perfbench`), whose simulated
    /// mutations still call it.
    pub fn invalidate_location(&self, _loc: &Location) -> u64 {
        0
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            contract: self.contract_stats.snapshot(),
            compliance: self.compliance_stats.snapshot(),
            verdict: self.verdict_stats.snapshot(),
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
        assert!(stats.to_string().contains("hit rate"));
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
    fn bucketed_map_clears_past_its_limit() {
        let mut map: Bucketed<u32, u32> = Bucketed::with_limit(3);
        for k in 0..3 {
            map.insert_if_absent(u64::from(k), k, k * 10);
        }
        // Re-inserting a present key neither grows nor clears the map.
        map.insert_if_absent(0, 0, 99);
        assert_eq!(map.len, 3);
        assert_eq!(map.get(0, |k| *k == 0), Some(&0));
        // The fourth distinct key clears the full map first.
        map.insert_if_absent(3, 3, 30);
        assert_eq!(map.len, 1);
        assert_eq!(map.get(3, |k| *k == 3), Some(&30));
        assert!((0..3).all(|k| map.get(u64::from(k), |s| *s == k).is_none()));
        // A collision bucket counts each of its entries.
        map.insert_if_absent(7, 4, 40);
        map.insert_if_absent(7, 5, 50);
        assert_eq!(map.len, 3);
        assert_eq!(map.get(7, |k| *k == 5), Some(&50));
    }

    #[test]
    fn verdict_layer_keys_on_the_bound_state_only() {
        let cache = VerifyCache::new();
        let client = Arc::new(request(1u32, None, seq([send("q", eps())])));
        let registry = PolicyRegistry::new();
        let mut repo = Repository::new();
        repo.publish("s", recv("q", eps()));
        repo.publish("t", recv("q", eps()));
        let plan = Plan::new().with(1u32, "s");
        let verdict = |repo: &Repository| {
            let state = StateView::of(repo, &registry);
            cache.verdict(&client, &plan, &state).unwrap()
        };
        assert!(verdict(&repo).is_valid());
        assert!(verdict(&repo).is_valid());
        assert_eq!(cache.stats().verdict, (1, 1));
        // A mutation at a location the plan does not bind is a hit …
        repo.publish("t", recv("zz", eps()));
        assert!(verdict(&repo).is_valid());
        assert_eq!(cache.stats().verdict, (2, 1));
        // … one at the bound location is a miss with a fresh verdict.
        repo.publish("s", recv("zz", eps()));
        assert!(!verdict(&repo).is_valid());
        assert_eq!(cache.stats().verdict, (2, 2));
    }

    #[test]
    fn verdict_rows_compare_the_client_in_full() {
        let cache = VerifyCache::new();
        let registry = PolicyRegistry::new();
        let mut repo = Repository::new();
        repo.publish("s", recv("q", eps()));
        let state = StateView::of(&repo, &registry);
        let plan = Plan::new().with(1u32, "s");
        // Two distinct clients with the same plan over the same state
        // share a bucket but never a row.
        let good = Arc::new(request(1u32, None, send("q", eps())));
        let bad = Arc::new(request(1u32, None, send("zz", eps())));
        assert!(cache.verdict(&good, &plan, &state).unwrap().is_valid());
        assert!(!cache.verdict(&bad, &plan, &state).unwrap().is_valid());
        assert_eq!(cache.stats().verdict, (0, 2));
        // An equal behaviour behind another pointer is the same client.
        let again = Arc::new(request(1u32, None, send("q", eps())));
        assert!(cache.verdict(&again, &plan, &state).unwrap().is_valid());
        assert_eq!(cache.stats().verdict, (1, 2));
    }

    #[test]
    fn changed_regions_counts_locations_and_the_registry() {
        let mut repo = Repository::new();
        repo.publish("a", recv("q", eps()));
        repo.publish("b", recv("q", eps()));
        let registry = PolicyRegistry::new();
        let before = StateFingerprints::of(&repo, &registry);
        assert_eq!(before.changed_regions(&before), 0);
        repo.publish("a", recv("r", eps()));
        repo.retract(&Location::new("b"));
        repo.publish("c", recv("q", eps()));
        let mut policies = PolicyRegistry::new();
        policies.register(sufs_policy::catalog::blacklist("access"));
        let after = StateFingerprints::of(&repo, &policies);
        assert_eq!(after.changed_regions(&before), 4);
    }

    #[test]
    fn stats_since_reports_the_delta() {
        let cache = VerifyCache::new();
        let client = cache.contract_of(&send("a", eps())).unwrap();
        let server = cache.contract_of(&recv("a", eps())).unwrap();
        cache.compliance_witness(&client, &server);
        let mark = cache.stats();
        cache.compliance_witness(&client, &server);
        let delta = cache.stats().since(&mark);
        assert_eq!(delta.compliance, (1, 0));
        assert_eq!(delta.contract, (0, 0));
    }
}
