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
//!   progress checks, run once and stored, together with the list of
//!   valid plans in plan order.
//!
//! A query then *reads off* valid plans: the first `k` from the valid
//! list in time proportional to `k`, or the whole report from the
//! verdict map; neither walks the candidate space.
//!
//! # Incremental maintenance
//!
//! A product records the [`StateFingerprints`] of the repository and
//! registry it was derived from. On the next query after a `publish`/
//! `retract`/`retract_policy` those fingerprints differ, and the product
//! is re-derived. Re-derivation costs what the mutation changed: by
//! Thm. 1 compliance is pairwise per (request body, service), and under
//! §5 a plan's verdict reads only the registry and the locations the
//! plan binds. So the product keeps, and re-derives only where a
//! location's fingerprint moved:
//!
//! * **per-location requests** — for each published location, the
//!   requests its service exposes (ids and bodies) and its projection;
//!   re-read only at a location whose *behaviour* changed;
//! * **edge columns** — an edge row is kept while its request body is
//!   unchanged, and only the columns of locations whose behaviour changed
//!   are re-checked (a capacity moves no edge); a new body gets a whole
//!   new row;
//! * **the surviving set** — carried over as is when the location set,
//!   every location's exposed ids, the edge relation and whether pruning
//!   is active are all unchanged, since the depth-first closure reads
//!   nothing else; otherwise `plans::surviving_plans` runs again;
//! * **verdict rows** — indexed by the locations their plan binds. A row
//!   is looked up again only if its plan binds a location whose
//!   fingerprint (behaviour *or* capacity, since verdicts read
//!   capacities) moved, or for every plan when the registry moved; every
//!   other row is kept without a lookup, however small the shared
//!   [`VerifyCache`]'s bound. A looked-up row comes from that cache,
//!   whose layers are keyed the same way, so on a gated broker it was
//!   usually already paid for by the lint engine sharing the cache.
//!
//! A cold build is the same path with every location changed and no
//! surviving set to carry. A re-derived product equals a cold rebuild by
//! construction: everything it keeps is a function of inputs whose
//! fingerprints did not move, and everything it recomputes is computed
//! as a cold build would. A re-derivation that fails leaves no product
//! behind: the store drops the entry and the next query builds afresh.
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

use sufs_contract::{Contract, ContractError};
use sufs_hexpr::requests::requests;
use sufs_hexpr::shash::stable_hash_of;
use sufs_hexpr::{wf, Hist, Location, RequestId};
use sufs_net::{Plan, Repository};
use sufs_policy::PolicyRegistry;

use crate::cache::{StateFingerprints, StateView, VerifyCache};
use crate::plans::{self, PlanSpaceExceeded};
use crate::report::VerifyReport;
use crate::verify::{
    unique_bodies, Engine, PlanVerdict, SynthStats, Synthesis, SynthesisOptions, VerifyError,
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
    /// re-derives the product.
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

/// The requests one service (or the client) opens, outermost first:
/// each id with its body, the client side of the session.
type Requests = Vec<(RequestId, Hist)>;

fn requests_of(h: &Hist) -> Requests {
    requests(h).into_iter().map(|r| (r.id, r.body)).collect()
}

/// What the product keeps of one published location: derived from its
/// behaviour alone, so a capacity-only change keeps it.
#[derive(Debug, Clone)]
struct Site {
    /// The requests the service exposes.
    exposed: Requests,
    /// The service's projection.
    contract: Result<Contract, ContractError>,
}

impl Site {
    /// The ids of the exposed requests, in order.
    fn ids(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.exposed.iter().map(|(id, _)| *id)
    }
}

/// One request's row of the edge relation.
#[derive(Debug, Clone)]
struct EdgeRow {
    /// The request's body.
    body: Hist,
    /// The body's projection.
    client_side: Result<Contract, ContractError>,
    /// `location → admissible`, one cell per published location.
    cells: BTreeMap<Location, bool>,
}

/// Whether a request whose body projects to `client_side` may bind a
/// service projecting to `server_side`. An edge stays admissible on
/// projection errors, so full verification — not the prune — surfaces
/// them, mirroring the enumerative prune predicate.
fn admissible(
    client_side: &Result<Contract, ContractError>,
    server_side: &Result<Contract, ContractError>,
    cache: &VerifyCache,
) -> bool {
    match (client_side, server_side) {
        (Ok(c), Ok(s)) => cache.compliance_witness(c, s).is_none(),
        _ => true,
    }
}

/// The composed product for one client over one repository state.
#[derive(Debug, Clone, Default)]
struct Product {
    /// The repository and registry state the product was derived from.
    state: StateFingerprints,
    /// The requests the client itself opens.
    own: Requests,
    /// Every published location with what its behaviour exposes.
    sites: BTreeMap<Location, Site>,
    /// Whether compliance pruning is sound here; when it is not
    /// (ambiguous bodies) the product materializes every candidate.
    prune_active: bool,
    /// `request × location → admissible` (empty without pruning).
    edges: BTreeMap<RequestId, EdgeRow>,
    /// The admissible cells of `edges`.
    admissible_edges: usize,
    /// Every surviving plan's verdict, in plan order.
    verdicts: Vec<PlanVerdict>,
    /// For each location, the indices in `verdicts` of the plans
    /// binding it, ascending.
    binders: BTreeMap<Location, Vec<usize>>,
    /// The valid plans among `verdicts`, in plan order.
    valid: Vec<Plan>,
    /// Subtrees cut while enumerating the surviving set.
    pruned_subtrees: usize,
}

/// What moved between the state a product was derived from and the
/// current one.
#[derive(Debug, Default)]
struct Moved {
    /// Every location whose fingerprint moved, in order: the rows of the
    /// plans binding one are looked up again.
    locations: Vec<Location>,
    /// Those among them whose behaviour moved, in order: their sites and
    /// edge columns are re-derived.
    behaviours: Vec<Location>,
    /// Whether the registry moved: every row is looked up again.
    registry: bool,
}

impl Moved {
    fn between(earlier: &StateFingerprints, now: &StateFingerprints) -> Moved {
        let mut moved = Moved {
            registry: earlier.registry() != now.registry(),
            ..Moved::default()
        };
        for (loc, was, is) in now.changed_locations(earlier) {
            if was.map(|fp| fp.0) != is.map(|fp| fp.0) {
                moved.behaviours.push(loc.clone());
            }
            moved.locations.push(loc.clone());
        }
        moved
    }

    /// The changed regions: moved locations, plus one for the registry.
    fn regions(&self) -> usize {
        self.locations.len() + usize::from(self.registry)
    }
}

/// Derives the product for `client` over `state`: re-derives `prior`
/// in place over what `moved` names, or builds from scratch without one
/// — the same path, with every location and the registry moved. See the
/// module docs.
fn build_product(
    client: &Arc<Hist>,
    state: &StateView<'_>,
    cap: usize,
    cache: &VerifyCache,
    prior: Option<(Product, Moved)>,
) -> Result<Product, VerifyError> {
    let cold = prior.is_none();
    let (mut product, moved) = prior.unwrap_or_else(|| {
        let product = Product {
            own: requests_of(client),
            ..Product::default()
        };
        let moved = Moved {
            registry: true,
            ..Moved::between(&product.state, state.fingerprints())
        };
        (product, moved)
    });
    product.rederive(client, state, cap, cache, &moved, cold)?;
    Ok(product)
}

impl Product {
    fn total_edges(&self) -> usize {
        self.edges.len() * self.sites.len()
    }

    /// Brings the product from `self.state` to `state`, of which
    /// `moved` is the difference. On an error the product is
    /// half-updated and must be dropped.
    fn rederive(
        &mut self,
        client: &Arc<Hist>,
        state: &StateView<'_>,
        cap: usize,
        cache: &VerifyCache,
        moved: &Moved,
        cold: bool,
    ) -> Result<(), VerifyError> {
        let repo = state.repo();

        // Sites. `ids_moved`: the location set or some exposed id list
        // changed; `bodies_moved`: some exposed request changed.
        let (mut ids_moved, mut bodies_moved) = (cold, cold);
        for loc in &moved.behaviours {
            let site = repo.get(loc).map(|service| Site {
                exposed: requests_of(service),
                contract: cache.contract_of(service),
            });
            let was = match site {
                Some(site) => self.sites.insert(loc.clone(), site),
                None => self.sites.remove(loc),
            };
            match (was, self.sites.get(loc)) {
                (Some(was), Some(is)) => {
                    ids_moved |= !was.ids().eq(is.ids());
                    bodies_moved |= was.exposed != is.exposed;
                }
                _ => (ids_moved, bodies_moved) = (true, true),
            }
        }

        // Edge rows: a row is kept while its request's body is
        // unchanged, and only its changed columns are re-checked; a
        // request with a new body gets a new row over every location.
        let was_pruning = self.prune_active;
        let mut edges_moved = false;
        let mut fresh: Vec<(RequestId, Hist)> = Vec::new();
        if bodies_moved {
            let bodies = unique_bodies(
                self.own
                    .iter()
                    .chain(self.sites.values().flat_map(|s| &s.exposed))
                    .map(|(id, body)| (*id, body)),
            );
            self.prune_active = bodies.is_some();
            let bodies = bodies.unwrap_or_default();
            let before = self.edges.len();
            self.edges
                .retain(|r, row| bodies.get(r).is_some_and(|b| **b == row.body));
            edges_moved = self.edges.len() != before;
            fresh = bodies
                .into_iter()
                .filter(|(r, _)| !self.edges.contains_key(r))
                .map(|(r, body)| (r, body.clone()))
                .collect();
        }
        for loc in &moved.behaviours {
            let site = self.sites.get(loc);
            for row in self.edges.values_mut() {
                let cell = site.map(|s| admissible(&row.client_side, &s.contract, cache));
                let was = match cell {
                    Some(a) => row.cells.insert(loc.clone(), a),
                    None => row.cells.remove(loc),
                };
                edges_moved |= was != cell;
            }
        }
        for (r, body) in fresh {
            edges_moved = true;
            let client_side = cache.contract_of(&body);
            let cells = self
                .sites
                .iter()
                .map(|(loc, site)| (loc.clone(), admissible(&client_side, &site.contract, cache)))
                .collect();
            self.edges.insert(
                r,
                EdgeRow {
                    body,
                    client_side,
                    cells,
                },
            );
        }
        if edges_moved {
            self.admissible_edges = self
                .edges
                .values()
                .map(|row| row.cells.values().filter(|a| **a).count())
                .sum();
        }

        // Rows to look up, in plan order.
        let mut touched: Vec<usize> = Vec::new();
        let carry = !(ids_moved || edges_moved || was_pruning != self.prune_active);
        if !carry {
            let edges = &self.edges;
            let (surviving, pruned_subtrees) =
                plans::surviving_plans(client, repo, cap, &mut |_, r, loc| {
                    matches!(
                        edges.get(&r).and_then(|row| row.cells.get(loc)),
                        Some(false)
                    )
                })?;
            // Both sequences are in plan order: a merge pairs each
            // surviving plan with its resident row, if any. A new plan
            // gets a placeholder row that the lookup below fills.
            let mut resident = std::mem::take(&mut self.verdicts).into_iter().peekable();
            let mut verdicts = Vec::with_capacity(surviving.len());
            let mut binders: BTreeMap<Location, Vec<usize>> = BTreeMap::new();
            for plan in surviving {
                while resident.next_if(|v| v.plan < plan).is_some() {}
                for (_, loc) in plan.iter() {
                    let rows = binders.entry(loc.clone()).or_default();
                    if rows.last() != Some(&verdicts.len()) {
                        rows.push(verdicts.len());
                    }
                }
                match resident.next_if(|v| v.plan == plan) {
                    Some(row) => verdicts.push(row),
                    None => {
                        touched.push(verdicts.len());
                        verdicts.push(PlanVerdict {
                            plan,
                            violations: Vec::new(),
                        });
                    }
                }
            }
            self.verdicts = verdicts;
            self.binders = binders;
            self.pruned_subtrees = pruned_subtrees;
        }
        // A resident row is looked up again iff it reads a moved
        // fingerprint: its plan binds a moved location, or the registry
        // moved.
        if moved.registry {
            touched = (0..self.verdicts.len()).collect();
        } else {
            touched.extend(
                moved
                    .locations
                    .iter()
                    .filter_map(|loc| self.binders.get(loc))
                    .flatten()
                    .copied(),
            );
            touched.sort_unstable();
            touched.dedup();
        }
        // A new plan set always re-lists the valid plans; a carried one
        // only when a looked-up row flips validity.
        let mut relist = !carry;
        for i in touched {
            let verdict = cache.verdict(client, &self.verdicts[i].plan, state)?.0;
            relist |= verdict.is_valid() != self.verdicts[i].is_valid();
            self.verdicts[i] = verdict;
        }
        if relist {
            self.valid = valid_plans(&self.verdicts);
        }
        self.state = state.fingerprints().clone();
        Ok(())
    }
}

/// The valid plans among `verdicts`, in their order.
fn valid_plans(verdicts: &[PlanVerdict]) -> Vec<Plan> {
    verdicts
        .iter()
        .filter(|v| v.is_valid())
        .map(|v| v.plan.clone())
        .collect()
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
        let (verdicts, stats) =
            self.with_entry(client, repo, registry, opts, shared, |p| p.verdicts.clone())?;
        Ok(Synthesis {
            report: VerifyReport::new(verdicts),
            stats,
        })
    }

    /// The production read-off: the first `k` valid plans plus the
    /// total valid count, straight from the resident product. A product
    /// lists its valid plans when it is built, so on a current product
    /// this copies `k` plans and reads one length, however wide the plan
    /// space is — the broker's `max_valid` fast path. A query that
    /// first builds or re-derives the product also pays for that.
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
                (p.valid.iter().take(k).cloned().collect(), p.valid.len())
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
                let moved = Moved::between(&entries[i].product.state, state.fingerprints());
                let patched = moved.regions();
                if patched > 0 {
                    let prior = (std::mem::take(&mut entries[i].product), moved);
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
        info.admissible_edges = entry.product.admissible_edges;
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
    fn moved_counts_locations_and_the_registry() {
        let mut repo = Repository::new();
        repo.publish("a", recv("q", eps()));
        repo.publish("b", recv("q", eps()));
        repo.publish("d", recv("q", eps()));
        let registry = PolicyRegistry::new();
        let before = StateFingerprints::of(&repo, &registry);
        assert_eq!(Moved::between(&before, &before).regions(), 0);
        repo.publish("a", recv("r", eps()));
        repo.retract(&Location::new("b"));
        repo.publish("c", recv("q", eps()));
        repo.publish_bounded("d", recv("q", eps()), 2);
        let mut policies = PolicyRegistry::new();
        policies.register(sufs_policy::catalog::blacklist("access"));
        let after = StateFingerprints::of(&repo, &policies);
        let moved = Moved::between(&before, &after);
        assert_eq!(moved.regions(), 5);
        let names = |locs: &[Location]| {
            locs.iter()
                .map(|l| l.as_str().to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&moved.locations), ["a", "b", "c", "d"]);
        // A capacity-only change moves no behaviour.
        assert_eq!(names(&moved.behaviours), ["a", "b", "c"]);
        assert!(moved.registry);
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

    /// `(hits + misses)` per layer: the lookups a read made.
    fn lookups(s: &Synthesis) -> (u64, u64, u64) {
        let d = s.stats.cache.expect("cache stats");
        (
            d.contract.0 + d.contract.1,
            d.compliance.0 + d.compliance.1,
            d.verdict.0 + d.verdict.1,
        )
    }

    /// A warm store over `mixed_repo` (2 requests, 4 locations, 2² = 4
    /// surviving plans), its shared cache and its repository.
    fn warm_store() -> (ProductStore, VerifyCache, Repository) {
        let store = ProductStore::new();
        let cache = VerifyCache::new();
        let repo = mixed_repo();
        let opts = SynthesisOptions::default();
        store
            .synthesize(
                &client2(),
                &repo,
                &PolicyRegistry::new(),
                &opts,
                Some(&cache),
            )
            .unwrap();
        (store, cache, repo)
    }

    /// Reads `store` after a cold build over the same state, and checks
    /// the two agree.
    fn read_checked(
        store: &ProductStore,
        cache: &VerifyCache,
        repo: &Repository,
        registry: &PolicyRegistry,
    ) -> Synthesis {
        let opts = SynthesisOptions::default();
        // A cold build through the shared cache first, as a lint gate
        // would: every verdict the warm read needs is then a hit, and
        // its remaining lookups are the product's own.
        let cold = ProductStore::new()
            .synthesize(&client2(), repo, registry, &opts, Some(cache))
            .unwrap();
        let warm = store
            .synthesize(&client2(), repo, registry, &opts, Some(cache))
            .unwrap();
        assert_eq!(warm.stats.cache.unwrap().verdict.1, 0);
        assert_eq!(warm.report.verdicts(), cold.report.verdicts());
        assert_eq!(
            warm.stats.product,
            Some(ProductInfo {
                reused: true,
                patched: warm.stats.product.unwrap().patched,
                ..cold.stats.product.unwrap()
            })
        );
        warm
    }

    #[test]
    fn a_body_only_publish_rechecks_one_column_and_the_rows_binding_it() {
        let (store, cache, mut repo) = warm_store();
        // The same conversation after one more event: a new body at one
        // of the four locations, compliant as before.
        repo.publish(
            "good0",
            seq([ev0("tick"), recv("q", choose([("a", eps())]))]),
        );
        let read = read_checked(&store, &cache, &repo, &PolicyRegistry::new());
        // One projection (the new body), requests × 1 compliance checks
        // instead of requests × 4, and a verdict lookup for each of the
        // three surviving plans binding good0, not for good1ʳ good1ʳ.
        assert_eq!(lookups(&read), (1, 2, 3));
        assert_eq!(read.report.len(), 4);
    }

    #[test]
    fn a_registry_only_change_looks_up_every_row_and_no_edge() {
        let (store, cache, repo) = warm_store();
        let mut registry = PolicyRegistry::new();
        registry.register(sufs_policy::catalog::blacklist("access"));
        let read = read_checked(&store, &cache, &repo, &registry);
        assert_eq!(lookups(&read), (0, 0, 4));
        assert_eq!(read.stats.product.unwrap().patched, 1);
    }

    #[test]
    fn a_capacity_only_change_keeps_the_edges_but_looks_up_the_rows_binding_it() {
        let (store, cache, mut repo) = warm_store();
        // Verdicts read capacities, compliance does not.
        repo.publish_bounded("good1", recv("q", choose([("a", eps())])), 1);
        let read = read_checked(&store, &cache, &repo, &PolicyRegistry::new());
        assert_eq!(lookups(&read), (0, 0, 3));
        let info = read.stats.product.unwrap();
        assert_eq!((info.admissible_edges, info.total_edges), (4, 8));
    }

    #[test]
    fn retracting_and_republishing_a_location_rechecks_its_column() {
        let (store, cache, mut repo) = warm_store();
        let good1 = Location::new("good1");
        let service = repo.get(&good1).unwrap().clone();
        repo.retract(&good1);
        let read = read_checked(&store, &cache, &repo, &PolicyRegistry::new());
        // The column goes with the location, and so do the plans
        // binding it; no lookup at all.
        assert_eq!(lookups(&read), (0, 0, 0));
        assert_eq!(read.stats.product.unwrap().total_edges, 6);
        assert_eq!(read.report.len(), 1);
        repo.publish(good1, service);
        let read = read_checked(&store, &cache, &repo, &PolicyRegistry::new());
        // Its projection and one check per request are done again.
        assert_eq!(lookups(&read), (1, 2, 3));
        assert_eq!(read.stats.product.unwrap().total_edges, 8);
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
