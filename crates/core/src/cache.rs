//! Memoisation of the pure sub-checks of plan verification.
//!
//! Verifying a plan space recomputes the same sub-results over and over:
//! the seed pipeline projected `Contract::from_service` and re-ran the
//! Theorem 1 product automaton for the same `(request body, service)`
//! pair once *per candidate plan*, although a repository of `s` services
//! and a client with `r` requests only ever has `r·s` distinct pairs —
//! while the plan space has up to `sʳ` candidates. [`VerifyCache`]
//! memoizes the two sub-checks that are pure functions of their inputs:
//!
//! 1. **projection** — `Contract::from_service(H)`, keyed by `H`;
//! 2. **compliance** — `compliant(client_side, server_side)` witnesses,
//!    keyed by the pair of contracts.
//!
//! Both are keyed by the full values they read, so an entry can never
//! go stale: no repository or registry mutation needs to invalidate
//! anything. Per-plan verdicts (security and progress) are *not* cached
//! here; each consumer keeps them in exactly one content-addressed
//! place — the broker's composed product ([`crate::product`]), patched
//! by fingerprint diff, and the lint engine's verdict rows.
//!
//! Keys bucket on the *stable* structural hashes exposed by
//! `sufs_hexpr::shash` (so hit-rates are reproducible run over run) but
//! compare the full key value: a fingerprint collision costs a bucket
//! scan, never a wrong verdict. Lookups hash and compare *borrowed*
//! keys — the key value is cloned into the table only on a miss, so a
//! hit costs one fingerprint pass and no allocation. Both maps sit
//! behind mutexes so one cache can be shared across the broker's
//! connection threads; hit/miss counters are atomic and can be
//! snapshotted at any point via [`VerifyCache::stats`].

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sufs_contract::{compliant, Contract, ContractError, StuckWitness};
use sufs_hexpr::shash::stable_hash_of;
use sufs_hexpr::{Hist, Location};

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
}

impl CacheStats {
    /// Total hits across both layers.
    pub fn hits(&self) -> u64 {
        self.contract.0 + self.compliance.0
    }

    /// Total misses across both layers.
    pub fn misses(&self) -> u64 {
        self.contract.1 + self.compliance.1
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

type ContractMap = Bucketed<Hist, Result<Contract, ContractError>>;
type ComplianceMap = Bucketed<(Contract, Contract), Option<StuckWitness>>;

/// The verification memo table; see the module docs for its two layers.
///
/// Cheap to create, internally synchronised, and safe to share by
/// reference across threads. Every entry is a pure function of its key,
/// so one cache may serve any number of repositories, registries and
/// clients, before and after any mutation.
#[derive(Debug, Default)]
pub struct VerifyCache {
    contracts: Mutex<ContractMap>,
    compliance: Mutex<ComplianceMap>,
    contract_stats: Layer,
    compliance_stats: Layer,
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

    /// A no-op that evicts nothing and returns 0: every entry is keyed
    /// by the full values it was computed from, so a repository
    /// mutation at `_loc` cannot make one stale. No program code calls
    /// this; it exists for the benchmark harness (`perfbench`), whose
    /// simulated mutations still call it.
    pub fn invalidate_location(&self, _loc: &Location) -> u64 {
        0
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            contract: self.contract_stats.snapshot(),
            compliance: self.compliance_stats.snapshot(),
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
