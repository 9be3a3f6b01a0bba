//! The broker daemon: a long-running TCP server hosting a dynamic
//! repository.
//!
//! The broker is the paper's `Br` made operational over time: clients
//! publish, update and retract services and policies while other
//! clients keep asking for valid plans and executions. Every query is
//! answered from the client's composed product ([`ProductStore`]),
//! which re-validates against the current repository and registry
//! fingerprints, so a publish at `ℓ` only re-verifies plans that bind
//! `ℓ` — every other verdict is carried over. Product builds and the lint
//! engine share one long-lived [`VerifyCache`] of projection,
//! compliance and plan-verdict rows keyed by content, which no
//! mutation can make stale: nothing is invalidated, and a verdict the
//! `--deny-lint` gate computed is not computed again by the next read.
//!
//! # Concurrency model
//!
//! One thread per admitted connection. `plan`/`run` requests hold the
//! repository read lock for the duration of the query, so many queries
//! proceed in parallel; mutations take the write lock, so a query sees
//! either the whole mutation or none of it, and the product it reads
//! is re-derived against exactly the state it sees. Admission control is
//! explicit: past `max_clients` concurrent connections the broker
//! *replies* `busy` and closes — it never silently stalls the accept
//! queue.
//!
//! # Durability (opt-in)
//!
//! With [`BrokerConfig::state_dir`] set, every state-mutating request
//! is appended to a checksummed write-ahead journal and **fsynced
//! before its reply goes out** ([`crate::wal`]); the journal is
//! periodically compacted into an atomic snapshot
//! ([`crate::snapshot`]), and startup replays snapshot + journal
//! suffix through the same request handlers the wire uses. A bounded
//! idempotency window keyed by client `req_id`s answers retried
//! mutations with their recorded replies, making retries exactly-once.
//! Without a state directory nothing here runs — the broker behaves
//! exactly as before.
//!
//! # Replication (opt-in)
//!
//! With [`BrokerConfig::follow`] set the broker starts as a *follower*:
//! it bootstraps from the upstream's snapshot, applies its journal
//! record stream through the same replay path recovery uses, rejects
//! client mutations with `not_primary`, and serves reads (`plan`,
//! `run`, `repo`, `stats`) from the replicated state. A primary serves
//! any number of `replicate` streams; with [`BrokerConfig::ack`] set to
//! quorum its mutation replies additionally report whether a majority
//! of the configured cluster acknowledged the record. See
//! [`crate::replication`].
//!
//! # Shutdown
//!
//! [`BrokerHandle::shutdown`] (or a `shutdown` request) flips the drain
//! flag, wakes the acceptor, and shuts the read side of every open
//! connection: in-flight requests complete and their replies are
//! delivered — a reply is written only after its WAL fsync, so an `ok`
//! seen by a client during the drain is always durable — new opens are
//! rejected, follower queues are flushed, the replication pull loop is
//! joined, and [`BrokerHandle::join`] returns once every handler
//! thread has drained.

use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sufs_core::plans::DEFAULT_PLAN_CAP;
use sufs_core::scenario::parse_scenario;
use sufs_core::{Engine, ProductStore, SynthesisOptions, VerifyCache};
use sufs_hexpr::{parse_hist, Hist, Location};
use sufs_lint::{LintEngine, Severity};
use sufs_net::faults::RecoveryTable;
use sufs_net::{ChoiceMode, FaultPlan, MonitorMode, Network, Outcome, Plan, Repository, Scheduler};
use sufs_policy::PolicyRegistry;
use sufs_rng::{SeedableRng, StdRng};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::proto::{self, read_frame, write_frame, FrameError};
use crate::replication::{self, AckMode, ElectionMode, Replication};
use crate::snapshot;
use crate::wal::{ReplaySummary, Wal, WalRecord};

/// Retried-mutation ids remembered per broker (the idempotency window).
const DEDUP_WINDOW: usize = 512;

/// Journal payload bytes that force a snapshot even before the
/// record-count threshold is reached.
const SNAPSHOT_MAX_BYTES: u64 = 8 << 20;

/// Configuration for [`Broker::spawn`].
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Bind address; use port 0 to let the OS pick (the bound address
    /// is reported by [`BrokerHandle::addr`]).
    pub addr: String,
    /// Admission cap: connections past this many concurrent clients
    /// get an explicit `busy` reply instead of queueing.
    pub max_clients: usize,
    /// Cap on the surviving candidate plans of one client's product;
    /// a `plan` request may lower it, never raise it.
    pub plan_cap: usize,
    /// Step budget for `run` requests.
    pub fuel: usize,
    /// Durable state directory. `None` (the default) keeps the PR-4
    /// in-memory behaviour; `Some(dir)` journals every mutation to
    /// `dir/journal.wal` (fsync before reply), compacts into
    /// `dir/snapshot.json`, and recovers both on startup.
    pub state_dir: Option<PathBuf>,
    /// Journal records that trigger a snapshot compaction.
    pub snapshot_every: u64,
    /// Start as a follower of this primary: bootstrap from its
    /// snapshot, apply its record stream, reject client mutations with
    /// `not_primary` until promoted. `None` (the default) starts a
    /// primary.
    pub follow: Option<String>,
    /// Mutation acknowledgement mode; quorum waits for a majority of
    /// `cluster_size` before reporting `"quorum": true`.
    pub ack: AckMode,
    /// Total voting nodes (primary included) a quorum is measured
    /// against. Fixed by configuration, *not* by live connections:
    /// counting only connected followers would let a partitioned
    /// minority believe it has a majority.
    pub cluster_size: usize,
    /// How long a quorum-mode mutation waits for follower acks before
    /// degrading to `"quorum": false`.
    pub ack_timeout: Duration,
    /// Follower redial backoff after the upstream connection fails.
    pub follow_retry: Duration,
    /// Replication heartbeat interval; followers treat `4 ×` this of
    /// silence as a dead upstream and redial.
    pub replication_tick: Duration,
    /// Opt-in lint gate: reject client mutations that introduce a new
    /// diagnostic at or above this severity (`Severity::Error` for
    /// `--deny-lint error`, `Severity::Warning` for `--deny-lint
    /// warnings`). `None` (the default) disables gating.
    pub deny_lint: Option<Severity>,
    /// Failover mode: `Manual` (the default) keeps promotion an
    /// operator action; `Auto` lets followers elect a new primary when
    /// the upstream heartbeat goes silent.
    pub election: ElectionMode,
    /// Upper bound of the seeded randomized candidacy delay — the
    /// window simultaneous detectors spread their candidacies over.
    pub election_timeout: Duration,
    /// Seed for the per-node election RNG (perturbed by the advertise
    /// address, so identically seeded nodes still draw distinct
    /// delays).
    pub election_seed: u64,
    /// The address this node is reachable at by its *peers* — carried
    /// in vote/announce traffic and heartbeat peer views. Defaults to
    /// the bound listener address, which is only wrong when clients
    /// reach the node through a proxy (the chaos harness does).
    pub advertise: Option<String>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_clients: 64,
            plan_cap: DEFAULT_PLAN_CAP,
            fuel: 100_000,
            state_dir: None,
            snapshot_every: 1024,
            follow: None,
            ack: AckMode::Local,
            cluster_size: 1,
            ack_timeout: Duration::from_secs(5),
            follow_retry: Duration::from_millis(250),
            replication_tick: Duration::from_millis(500),
            deny_lint: None,
            election: ElectionMode::Manual,
            election_timeout: Duration::from_secs(1),
            election_seed: 0,
            advertise: None,
        }
    }
}

/// A bounded FIFO of recently applied mutation ids and the exact
/// replies they produced — the server half of exactly-once retries.
pub(crate) struct DedupWindow {
    entries: VecDeque<(String, Json)>,
    cap: usize,
}

impl DedupWindow {
    fn new(cap: usize) -> Self {
        DedupWindow {
            entries: VecDeque::new(),
            cap,
        }
    }

    fn get(&self, id: &str) -> Option<&Json> {
        self.entries
            .iter()
            .find(|(k, _)| k == id)
            .map(|(_, reply)| reply)
    }

    pub(crate) fn insert(&mut self, id: String, reply: Json) {
        self.entries.retain(|(k, _)| *k != id);
        self.entries.push_back((id, reply));
        while self.entries.len() > self.cap {
            self.entries.pop_front();
        }
    }

    /// Replaces the whole window — a follower adopting its bootstrap
    /// snapshot's idempotency state.
    pub(crate) fn replace(&mut self, entries: Vec<(String, Json)>) {
        self.entries.clear();
        for (id, reply) in entries {
            self.insert(id, reply);
        }
    }

    pub(crate) fn export(&self) -> Vec<(String, Json)> {
        self.entries.iter().cloned().collect()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The durable half of a broker running with a state directory.
///
/// Lock order, everywhere: resource lock (`repo`/`registry`) →
/// `dedup` → `wal` → `repl.followers`. Mutation handlers append to the
/// journal while still holding the resource write lock, so journal
/// order is exactly apply order; the snapshotter takes both resource
/// *read* locks first, which blocks every mutation and freezes the
/// journal tip while the state is captured. Record broadcast and
/// follower registration both happen under the `wal` lock, which is
/// what makes the replication stream exactly journal order with no
/// gaps at join time.
pub(crate) struct Durability {
    pub(crate) dir: PathBuf,
    pub(crate) wal: Mutex<Wal>,
    pub(crate) dedup: Mutex<DedupWindow>,
    snapshot_every: u64,
    /// At most one connection thread compacts at a time.
    snapshotting: AtomicBool,
}

/// Where a request entered the broker; decides journaling, quorum
/// waits, and the follower role check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// Over the wire: journal + broadcast + (maybe) quorum wait, and
    /// reject mutations on a follower.
    Client,
    /// Startup journal replay: re-apply without re-journaling.
    Replay,
    /// The upstream's record stream: apply; the caller journals under
    /// the primary's sequence number.
    Replication,
}

/// What `Broker::spawn` found on disk, applied once `Shared` exists.
struct RecoveryPlan {
    started: Instant,
    covered_seq: u64,
    from_snapshot: bool,
    pending: Vec<WalRecord>,
    summary: ReplaySummary,
    dir: PathBuf,
}

/// Everything the connection threads share.
///
/// Lock order among the resource locks: `repo` → `registry` →
/// `clients` → `lint` (then the durability chain, see [`Durability`]).
/// `cmd_retract_policy` takes a `repo` *read* lock before its
/// `registry` write lock for exactly this reason.
pub(crate) struct Shared {
    pub(crate) repo: RwLock<Repository>,
    pub(crate) registry: RwLock<PolicyRegistry>,
    /// Registered client behaviours (from `publish_scenario`), sorted
    /// by name — the client set repository-wide lint passes analyze.
    pub(crate) clients: RwLock<Vec<(String, Hist)>>,
    /// Projection, compliance and plan-verdict rows shared by every
    /// product build and by the lint engine; keyed by content, so never
    /// invalidated.
    pub(crate) cache: Arc<VerifyCache>,
    /// Composed products, one per distinct client behaviour: the only
    /// synthesis engine behind `plan` and `run`. Fingerprint-validated
    /// against the live repository/registry on every query, so
    /// mutations need no explicit product invalidation.
    pub(crate) products: ProductStore,
    /// The incremental lint engine behind the `lint` command and the
    /// `--deny-lint` gate.
    pub(crate) lint: Mutex<LintEngine>,
    /// The configured gate severity; `None` disables gating.
    pub(crate) deny_lint: Option<Severity>,
    pub(crate) metrics: Metrics,
    plan_cap: usize,
    fuel: usize,
    pub(crate) shutting_down: AtomicBool,
    /// Read halves of admitted connections, shut down on drain so idle
    /// handlers wake up and exit.
    conns: Mutex<Vec<TcpStream>>,
    /// Journal + snapshot + idempotency window; `None` without
    /// `--state-dir` (the in-memory PR-4 behaviour, unchanged).
    pub(crate) durability: Option<Durability>,
    /// Role, follower registry, sequence marks; always present (a
    /// plain single node is a primary with no followers).
    pub(crate) repl: Replication,
    /// Weak back-reference to this very `Arc<Shared>`, set right after
    /// construction — lets handler threads (which only see `&Shared`)
    /// spawn pull/announcer threads that need an owned clone.
    pub(crate) self_ref: Mutex<Weak<Shared>>,
}

impl Shared {
    /// Upgrades the self-reference; `None` only during the short
    /// construction window before `Broker::spawn` stores it.
    pub(crate) fn strong(&self) -> Option<Arc<Shared>> {
        self.self_ref.lock().expect("self_ref lock").upgrade()
    }
}

/// The broker daemon; see the module docs for the protocol and the
/// concurrency model.
pub struct Broker;

impl Broker {
    /// Binds `config.addr`, starts the acceptor thread, and returns a
    /// handle to the running daemon.
    ///
    /// With `config.state_dir` set, startup first recovers the durable
    /// state: the snapshot is loaded (if any), the journal is opened
    /// (truncating a torn tail), and every journal record past the
    /// snapshot's coverage is re-applied through the regular request
    /// handlers before the listener starts accepting. Recovery then
    /// warm-starts synthesis: the composed product of every registered
    /// client is rebuilt (priming the verification cache along the
    /// way) before the first connection is admitted, so the post-crash
    /// `plan` burst pays read-off price, not full re-verification.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, and — with a state directory — any
    /// snapshot/journal corruption that torn-tail tolerance cannot
    /// excuse (a snapshot that fails to parse, a journal with a foreign
    /// magic header).
    pub fn spawn(config: BrokerConfig) -> io::Result<BrokerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let mut repo = Repository::new();
        let mut registry = PolicyRegistry::new();
        let mut clients: Vec<(String, Hist)> = Vec::new();
        let mut recovery: Option<RecoveryPlan> = None;
        let durability = match &config.state_dir {
            None => None,
            Some(dir) => {
                let started = Instant::now();
                std::fs::create_dir_all(dir)?;
                let mut dedup = DedupWindow::new(DEDUP_WINDOW);
                let mut covered_seq = 0u64;
                let mut from_snapshot = false;
                if let Some(snap) = snapshot::load(dir)? {
                    covered_seq = snap.covered_seq;
                    repo = snap.repository;
                    registry = snap.registry;
                    clients = snap.clients;
                    for (id, reply) in snap.dedup {
                        dedup.insert(id, reply);
                    }
                    from_snapshot = true;
                }
                let (mut wal, records, summary) = Wal::open(&dir.join(snapshot::JOURNAL_FILE))?;
                // An empty (post-compaction) journal restarts at seq 1;
                // the snapshot's coverage mark keeps new records sorted
                // after everything it already holds.
                wal.ensure_seq_at_least(covered_seq + 1);
                let pending: Vec<WalRecord> = records
                    .into_iter()
                    .filter(|r| r.seq > covered_seq)
                    .collect();
                recovery = Some(RecoveryPlan {
                    started,
                    covered_seq,
                    from_snapshot,
                    pending,
                    summary,
                    dir: dir.clone(),
                });
                Some(Durability {
                    dir: dir.clone(),
                    wal: Mutex::new(wal),
                    dedup: Mutex::new(dedup),
                    snapshot_every: config.snapshot_every.max(1),
                    snapshotting: AtomicBool::new(false),
                })
            }
        };

        let repl = Replication::new(&config);
        let cache = Arc::new(VerifyCache::new());
        let shared = Arc::new(Shared {
            repo: RwLock::new(repo),
            registry: RwLock::new(registry),
            clients: RwLock::new(clients),
            cache: Arc::clone(&cache),
            products: ProductStore::new(),
            lint: Mutex::new(LintEngine::with_cache(cache)),
            deny_lint: config.deny_lint,
            metrics: Metrics::new(),
            plan_cap: config.plan_cap,
            fuel: config.fuel,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            durability,
            repl,
            self_ref: Mutex::new(Weak::new()),
        });
        *shared.self_ref.lock().expect("self_ref lock") = Arc::downgrade(&shared);
        shared.repl.set_advertise(
            config
                .advertise
                .clone()
                .filter(|a| !a.is_empty())
                .unwrap_or_else(|| addr.to_string()),
        );
        if let Some(plan) = recovery {
            replay_journal(&shared, plan);
            warm_start(&shared);
        }
        // The recovered journal tip seeds the replication sequence mark
        // (a promoted follower keeps counting from here).
        if let Some(d) = shared.durability.as_ref() {
            let applied = d.wal.lock().expect("wal lock").next_seq().saturating_sub(1);
            shared.repl.applied_seq.store(applied, Ordering::SeqCst);
        }
        // Persisted epoch/term/vote survive restarts — a rebooted voter
        // must not double-vote in a term it already voted in.
        replication::load_meta(&shared);
        if let Some(upstream) = config.follow.clone() {
            replication::spawn_puller(&shared, upstream);
        } else if config.election == ElectionMode::Auto {
            // A primary under automatic failover announces its epoch so
            // healed stale nodes and re-started followers find it.
            replication::spawn_announcer(&shared);
        }
        let accept_shared = Arc::clone(&shared);
        let max_clients = config.max_clients;
        let acceptor = thread::spawn(move || {
            accept_loop(&listener, &accept_shared, max_clients);
        });
        Ok(BrokerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }
}

/// A handle to a running broker.
pub struct BrokerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl BrokerHandle {
    /// The address the daemon is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful shutdown: new connections are rejected,
    /// idle connections are closed, in-flight requests complete.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared, self.addr);
    }

    /// Waits for the daemon to drain; implies [`BrokerHandle::shutdown`]
    /// if it was not already requested.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Blocks until the daemon drains on its own — i.e. until a
    /// `shutdown` request arrives over the wire. Unlike
    /// [`BrokerHandle::join`], this does *not* initiate the shutdown;
    /// it is the foreground mode of `sufs serve`.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Stops the daemon abruptly, **without** draining — the
    /// in-process equivalent of `kill -9` for crash-recovery tests.
    /// Both sides of every connection are severed, so in-flight
    /// replies are cut off mid-socket; the only state that survives is
    /// what the write-ahead journal has already fsynced, which is
    /// precisely the crash contract the recovery path promises.
    pub fn kill(mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        {
            let conns = self.shared.conns.lock().expect("conns lock");
            for conn in conns.iter() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        // A killed follower must stop applying records *now*: an
        // in-process "dead machine" with a live pull thread would keep
        // mutating the state dir behind the crash test's back.
        replication::stop_puller(&self.shared);
        // Wake the acceptor so it observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for BrokerHandle {
    fn drop(&mut self) {
        begin_shutdown(&self.shared, self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Re-applies the journal suffix through the regular request handlers
/// and logs a one-line recovery summary. Runs before the acceptor
/// starts, so no client can observe a half-recovered repository.
fn replay_journal(shared: &Shared, plan: RecoveryPlan) {
    let d = shared
        .durability
        .as_ref()
        .expect("replay requires durability");
    for record in &plan.pending {
        // The handler re-applies the mutation; all four mutation
        // commands are upserts/deletes, so re-application is exact.
        let _ = handle_request_from(&record.request, shared, Source::Replay);
        if let Some(id) = record.request.str_field("req_id") {
            // The *recorded* reply wins over the recomputed one: it is
            // what the client was actually told, and a retry must see
            // exactly that.
            d.dedup
                .lock()
                .expect("dedup lock")
                .insert(id.to_owned(), record.reply.clone());
        }
    }
    // Counters accumulated during replay would misreport the daemon's
    // live traffic; recovery has its own metrics.
    shared.metrics.mutations.store(0, Ordering::Relaxed);
    shared
        .metrics
        .replayed_records
        .store(plan.pending.len() as u64, Ordering::Relaxed);
    shared.metrics.observe_recovery(plan.started.elapsed());
    eprintln!(
        "sufs-broker: recovered from {}: {}, {} journal record(s) replayed, {} torn byte(s) discarded, {:.1}ms",
        plan.dir.display(),
        if plan.from_snapshot {
            format!("snapshot through seq {}", plan.covered_seq)
        } else {
            "no snapshot".to_owned()
        },
        plan.pending.len(),
        plan.summary.truncated_bytes,
        plan.started.elapsed().as_secs_f64() * 1e3,
    );
}

/// Warm-starts synthesis from recovered state, before the listener
/// admits its first connection: every registered client's composed
/// product is (re)built through the shared cache, so the first
/// post-recovery `plan` burst reads plans off instead of paying a full
/// cold re-verification. A client whose product cannot be built (e.g.
/// its plan space exceeds the configured cap) is skipped — the query
/// path reports the same error on demand.
fn warm_start(shared: &Shared) {
    let started = Instant::now();
    let repo = shared.repo.read().expect("repo lock");
    let registry = shared.registry.read().expect("registry lock");
    let clients = shared.clients.read().expect("clients lock");
    let mut warmed = 0usize;
    for (_, client) in clients.iter() {
        if shared
            .products
            .read_valid(
                client,
                &repo,
                &registry,
                &store_opts(shared.plan_cap),
                Some(&shared.cache),
                0,
            )
            .is_ok()
        {
            warmed += 1;
        }
    }
    shared
        .metrics
        .warmed_products
        .store(warmed as u64, Ordering::Relaxed);
    if !clients.is_empty() {
        eprintln!(
            "sufs-broker: warm start: {warmed}/{} client product(s) rebuilt, {:.1}ms",
            clients.len(),
            started.elapsed().as_secs_f64() * 1e3,
        );
    }
}

/// Answers a retried mutation from the idempotency window. Callers
/// hold the mutated resource's write lock, so a hit here can never
/// interleave with the original application. Replayed and replicated
/// records never dedup — their sources already deduplicated them.
///
/// On a quorum-mode broker the recorded reply's `"quorum"` field is
/// re-evaluated against the *current* committed mark: a mutation that
/// timed out on its first attempt reports `"quorum": true` on a retry
/// once the record has reached a majority, which is what lets clients
/// "retry the same req_id until quorum" without re-applying anything.
fn dedup_check(shared: &Shared, request: &Json, source: Source) -> Option<Json> {
    if source != Source::Client {
        return None;
    }
    let d = shared.durability.as_ref()?;
    let id = request.str_field("req_id")?;
    let mut hit = d.dedup.lock().expect("dedup lock").get(id).cloned()?;
    shared.metrics.dedup_hits.fetch_add(1, Ordering::Relaxed);
    if shared.repl.ack_mode == AckMode::Quorum {
        if let Some(seq) = hit.u64_field("seq") {
            let committed = if shared.repl.needed_acks() == 0 {
                true
            } else {
                shared.repl.committed_seq.load(Ordering::SeqCst) >= seq
            };
            hit.set("quorum", committed);
        }
    }
    Some(hit)
}

/// Seals a successful client mutation: journals it (fsync **before**
/// the reply leaves the handler) when it changed state, broadcasts the
/// record to every follower, waits for quorum when configured, and
/// records its `req_id` in the idempotency window. Callers still hold
/// the resource write lock, so journal order is exactly apply order.
fn finish_mutation(
    shared: &Shared,
    request: &Json,
    mut reply: Json,
    changed: bool,
    source: Source,
) -> Json {
    let Some(d) = shared.durability.as_ref() else {
        return reply;
    };
    if changed && source == Source::Client {
        let seq = {
            let mut wal = d.wal.lock().expect("wal lock");
            match wal.append(request, &reply) {
                Err(e) => {
                    // The mutation is applied in memory but not durable;
                    // the client must not mistake it for acknowledged.
                    return proto::error("internal", format!("journal append failed: {e}"));
                }
                Ok(seq) => {
                    reply.set("seq", seq);
                    // Broadcast under the WAL lock: appends are the only
                    // writers of follower queues, so stream order is
                    // exactly journal order.
                    if let Ok(frame) = proto::encode_frame(
                        &Json::obj().with(
                            "rec",
                            Json::obj()
                                .with("seq", seq)
                                .with("req", request.clone())
                                .with("reply", reply.clone()),
                        ),
                    ) {
                        shared.repl.broadcast(seq, &frame, &shared.metrics);
                    }
                    seq
                }
            }
        };
        shared.repl.applied_seq.fetch_max(seq, Ordering::SeqCst);
        shared
            .metrics
            .journal_records
            .fetch_add(1, Ordering::Relaxed);
        if shared.repl.ack_mode == AckMode::Quorum {
            let acked = shared.repl.wait_quorum(seq, &shared.shutting_down);
            if !acked {
                shared
                    .metrics
                    .quorum_timeouts
                    .fetch_add(1, Ordering::Relaxed);
            }
            reply.set("quorum", acked);
        }
    }
    if let Some(id) = request.str_field("req_id") {
        d.dedup
            .lock()
            .expect("dedup lock")
            .insert(id.to_owned(), reply.clone());
    }
    reply
}

/// Compacts the journal into a snapshot once it crosses the configured
/// thresholds. Runs on the connection thread *after* its handler
/// returned (no handler locks held); takes `repo.read` →
/// `registry.read` → `dedup` → `wal` — with both resource read locks
/// held no mutation is in flight, so the journal tip is frozen and
/// matches the captured state exactly.
fn maybe_snapshot(shared: &Shared) {
    let Some(d) = shared.durability.as_ref() else {
        return;
    };
    {
        let wal = d.wal.lock().expect("wal lock");
        if !snapshot::due(
            wal.records_since_truncate(),
            wal.bytes_since_truncate(),
            d.snapshot_every,
            SNAPSHOT_MAX_BYTES,
        ) {
            return;
        }
    }
    if d.snapshotting.swap(true, Ordering::SeqCst) {
        return; // another connection thread is already compacting
    }
    let repo = shared.repo.read().expect("repo lock");
    let registry = shared.registry.read().expect("registry lock");
    let clients = shared.clients.read().expect("clients lock");
    let dedup = d.dedup.lock().expect("dedup lock");
    let mut wal = d.wal.lock().expect("wal lock");
    let covered = wal.next_seq().saturating_sub(1);
    let entries = dedup.export();
    let result = snapshot::write(&d.dir, covered, &repo, &registry, &clients, &entries)
        .and_then(|()| wal.truncate());
    match result {
        Ok(()) => {
            shared.metrics.snapshots.fetch_add(1, Ordering::Relaxed);
        }
        // The journal is kept intact on failure: durability degrades to
        // "journal keeps growing", never to losing state.
        Err(e) => eprintln!("sufs-broker: snapshot failed (journal kept): {e}"),
    }
    d.snapshotting.store(false, Ordering::SeqCst);
}

/// Flips the drain flag, wakes the acceptor with a throwaway connect,
/// and shuts the read side of every admitted connection.
///
/// The flag flips **before** any connection is touched, and every
/// handler re-checks it between reading a request and applying it, so
/// a mutation racing the drain resolves deterministically: either it
/// was applied and fsynced before its `ok` reply went out (the write
/// side stays intact), or the client sees `shutting_down`/EOF and the
/// mutation was never applied. There is no in-between where an
/// acknowledged fsync is lost or an unapplied mutation is acked.
fn begin_shutdown(shared: &Shared, addr: SocketAddr) {
    if shared.shutting_down.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    // Stop pulling from the upstream before the listener closes, so a
    // follower's state stops moving the moment its drain is observable.
    replication::stop_puller(shared);
    // Flush follower queues (ship everything already journaled, then
    // stop) and wake any mutation blocked in a quorum wait.
    shared.repl.drain_followers();
    // Wake the acceptor so it observes the flag.
    let _ = TcpStream::connect(addr);
    // Wake every handler blocked on an idle read: a read-side shutdown
    // surfaces as a clean EOF, while in-flight replies still go out on
    // the intact write side.
    let conns = shared.conns.lock().expect("conns lock");
    for conn in conns.iter() {
        let _ = conn.shutdown(Shutdown::Read);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, max_clients: usize) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            if let Ok(mut s) = stream {
                let _ = write_frame(&mut s, &proto::error("shutting_down", "broker is draining"));
            }
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        handlers.retain(|h| !h.is_finished());
        // Admission control: the count of *live* handler threads is the
        // number of admitted clients still being served.
        if handlers.len() >= max_clients {
            let mut stream = stream;
            shared.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
            // The `unsolicited` tag marks this as an admission
            // rejection written before any request was read: a client
            // that finds it where a reply should be knows its request
            // was never processed and can safely redial, instead of
            // conflating the frame with (say) a pong.
            let _ = write_frame(
                &mut stream,
                &proto::error(
                    "busy",
                    format!("broker at capacity ({max_clients} clients); retry later"),
                )
                .with("unsolicited", true),
            );
            continue; // dropping the stream closes it
        }
        shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
        if let Ok(read_half) = stream.try_clone() {
            shared.conns.lock().expect("conns lock").push(read_half);
        }
        let shared = Arc::clone(shared);
        let addr = listener.local_addr().ok();
        handlers.push(thread::spawn(move || {
            serve_connection(stream, &shared, addr);
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Serves one admitted connection until it closes, errors, or the
/// broker drains.
fn serve_connection(mut stream: TcpStream, shared: &Shared, addr: Option<SocketAddr>) {
    loop {
        let request = match read_frame(&mut stream) {
            Ok(Some(req)) => req,
            Ok(None) => break,
            Err(e) => {
                // An oversized announcement gets a *structured* reply
                // before the close, so well-behaved clients can tell
                // "my frame was too big" from line noise.
                let kind = match FrameError::from_io(&e) {
                    Some(FrameError::TooLarge { .. }) => "frame_too_large",
                    _ => "bad_request",
                };
                let _ = write_frame(&mut stream, &proto::error(kind, e.to_string()));
                break;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            let _ = write_frame(
                &mut stream,
                &proto::error("shutting_down", "broker is draining"),
            );
            break;
        }
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        // `replicate` turns this connection into a record stream: the
        // handler owns the socket until the follower drops or the
        // broker drains.
        if request.str_field("cmd") == Some("replicate") {
            replication::serve_replica(&mut stream, &request, shared);
            break;
        }
        let is_shutdown = request.str_field("cmd") == Some("shutdown");
        let reply = handle_request_from(&request, shared, Source::Client);
        if reply.bool_field("ok") == Some(false) {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        let reply_sent = write_frame(&mut stream, &reply).is_ok();
        // Compaction runs after the handler released its locks (and
        // after the reply went out, so it never adds request latency).
        maybe_snapshot(shared);
        if !reply_sent {
            break;
        }
        if is_shutdown && reply.bool_field("ok") == Some(true) {
            if let Some(addr) = addr {
                begin_shutdown(shared, addr);
            }
            break;
        }
    }
    // Drop this connection's registered read half so the drain list
    // does not grow without bound over the daemon's lifetime.
    if let Ok(peer) = stream.peer_addr() {
        let mut conns = shared.conns.lock().expect("conns lock");
        conns.retain(|c| c.peer_addr().ok() != Some(peer));
    }
}

/// Dispatches one request to its command handler.
pub(crate) fn handle_request_from(request: &Json, shared: &Shared, source: Source) -> Json {
    let Some(cmd) = request.str_field("cmd") else {
        return proto::error("bad_request", "request object lacks a `cmd` field");
    };
    match cmd {
        "ping" => proto::ok().with("pong", true),
        "publish" => cmd_publish(request, shared, source),
        "publish_scenario" => cmd_publish_scenario(request, shared, source),
        "retract" => cmd_retract(request, shared, source),
        "retract_policy" => cmd_retract_policy(request, shared, source),
        "repo" => cmd_repo(shared),
        "plan" => cmd_plan(request, shared),
        "run" => cmd_run(request, shared),
        "lint" => crate::lint::cmd_lint(shared),
        "stats" => cmd_stats(shared),
        "promote" => replication::cmd_promote(shared),
        "vote" => replication::cmd_vote(request, shared),
        "announce" => replication::cmd_announce(request, shared),
        // `replicate` hijacks the whole connection and is intercepted
        // in `serve_connection`; reaching the dispatcher means it came
        // from a journal or replication stream, where it is nonsense.
        "replicate" => proto::error("bad_request", "`replicate` is a connection-level command"),
        "shutdown" => proto::ok().with("draining", true),
        other => proto::error("bad_request", format!("unknown command `{other}`")),
    }
}

/// Rejects client mutations on a follower; replayed and replicated
/// records always apply (that is what a follower is *for*).
fn reject_on_follower(shared: &Shared, source: Source) -> Option<Json> {
    if source == Source::Client && !shared.repl.is_primary() {
        return Some(replication::not_primary(shared));
    }
    None
}

fn require_str<'a>(request: &'a Json, field: &str) -> Result<&'a str, Json> {
    request
        .str_field(field)
        .ok_or_else(|| proto::error("bad_request", format!("missing string field `{field}`")))
}

/// `publish`: parse, well-formedness-check and insert a service.
fn cmd_publish(request: &Json, shared: &Shared, source: Source) -> Json {
    if let Some(reject) = reject_on_follower(shared, source) {
        return reject;
    }
    let location = match require_str(request, "location") {
        Ok(l) => l,
        Err(e) => return e,
    };
    let text = match require_str(request, "service") {
        Ok(t) => t,
        Err(e) => return e,
    };
    let service = match parse_hist(text) {
        Ok(h) => h,
        Err(e) => return proto::error("parse", e.to_string()),
    };
    let capacity = request.u64_field("capacity").map(|c| c as usize);
    let mut repo = shared.repo.write().expect("repo lock");
    if let Some(hit) = dedup_check(shared, request, source) {
        return hit;
    }
    // The lint gate needs the registry and client set alongside the
    // repository; both read locks follow `repo` in the lock order.
    let gate_locks = crate::lint::gate_active(shared, source).then(|| {
        (
            shared.registry.read().expect("registry lock"),
            shared.clients.read().expect("clients lock"),
        )
    });
    let gate = match &gate_locks {
        None => None,
        Some((registry, clients)) => match crate::lint::prepare(shared, &repo, registry, clients) {
            Ok(g) => Some(g),
            Err(reply) => return reply,
        },
    };
    let saved = gate.as_ref().map(|_| repo.clone());
    let result = match capacity {
        Some(cap) => repo.try_publish_bounded(location, service, cap),
        None => repo.try_publish(location, service),
    };
    match result {
        Ok(event) => {
            if let (Some(gate), Some((registry, clients))) = (&gate, &gate_locks) {
                if let Err(reply) = crate::lint::check(shared, gate, &repo, registry, clients) {
                    *repo = saved.expect("saved state when gating");
                    return reply;
                }
            }
            shared.metrics.mutations.fetch_add(1, Ordering::Relaxed);
            let reply = proto::ok().with("event", event.to_string());
            finish_mutation(shared, request, reply, true, source)
        }
        Err(e) => proto::error("ill_formed", e.to_string()),
    }
}

/// `publish_scenario`: merge every `service` and `policy` declaration of
/// a scenario text into the live repository/registry in one request.
fn cmd_publish_scenario(request: &Json, shared: &Shared, source: Source) -> Json {
    if let Some(reject) = reject_on_follower(shared, source) {
        return reject;
    }
    let text = match require_str(request, "text") {
        Ok(t) => t,
        Err(e) => return e,
    };
    let scenario = match parse_scenario(text) {
        Ok(sc) => sc,
        Err(e) => return proto::error("parse", e.to_string()),
    };
    // Take every lock before mutating anything, so no query
    // interleaves between the repository, registry and client updates.
    let mut repo = shared.repo.write().expect("repo lock");
    let mut registry = shared.registry.write().expect("registry lock");
    let mut clients = shared.clients.write().expect("clients lock");
    if let Some(hit) = dedup_check(shared, request, source) {
        return hit;
    }
    let gate = if crate::lint::gate_active(shared, source) {
        match crate::lint::prepare(shared, &repo, &registry, &clients) {
            Ok(g) => Some(g),
            Err(reply) => return reply,
        }
    } else {
        None
    };
    let saved = gate
        .as_ref()
        .map(|_| (repo.clone(), registry.clone(), clients.clone()));
    let mut services = 0u64;
    for (loc, service) in scenario.repository.iter() {
        // The scenario parser already ran the well-formedness check.
        match scenario.repository.capacity(loc).flatten() {
            Some(cap) => repo.try_publish_bounded(loc.clone(), service.clone(), cap),
            None => repo.try_publish(loc.clone(), service.clone()),
        }
        .expect("scenario services are well-formed");
        services += 1;
    }
    let mut policies = 0u64;
    for automaton in scenario.registry.iter() {
        registry.register(automaton.clone());
        policies += 1;
    }
    // Scenario clients join the broker's registered client set (upsert
    // by name, kept sorted) — the population the repository-wide lint
    // passes analyze.
    let mut client_count = 0u64;
    for (name, hist) in &scenario.clients {
        match clients.binary_search_by(|(n, _)| n.as_str().cmp(name.as_str())) {
            Ok(i) => clients[i].1 = hist.clone(),
            Err(i) => clients.insert(i, (name.clone(), hist.clone())),
        }
        client_count += 1;
    }
    let changed = services + policies + client_count > 0;
    if changed {
        if let Some(gate) = &gate {
            if let Err(reply) = crate::lint::check(shared, gate, &repo, &registry, &clients) {
                let (r, g, c) = saved.expect("saved state when gating");
                *repo = r;
                *registry = g;
                *clients = c;
                return reply;
            }
        }
        shared.metrics.mutations.fetch_add(1, Ordering::Relaxed);
    }
    let reply = proto::ok()
        .with("services", services)
        .with("policies", policies)
        .with("clients", client_count);
    finish_mutation(shared, request, reply, changed, source)
}

/// `retract`: withdraw a service; new plans stop seeing it immediately.
fn cmd_retract(request: &Json, shared: &Shared, source: Source) -> Json {
    if let Some(reject) = reject_on_follower(shared, source) {
        return reject;
    }
    let location = match require_str(request, "location") {
        Ok(l) => Location::new(l),
        Err(e) => return e,
    };
    let mut repo = shared.repo.write().expect("repo lock");
    if let Some(hit) = dedup_check(shared, request, source) {
        return hit;
    }
    let gate_locks = crate::lint::gate_active(shared, source).then(|| {
        (
            shared.registry.read().expect("registry lock"),
            shared.clients.read().expect("clients lock"),
        )
    });
    let gate = match &gate_locks {
        None => None,
        Some((registry, clients)) => match crate::lint::prepare(shared, &repo, registry, clients) {
            Ok(g) => Some(g),
            Err(reply) => return reply,
        },
    };
    let saved = gate.as_ref().map(|_| repo.clone());
    let event = repo.retract(&location);
    if event.changed() {
        if let (Some(gate), Some((registry, clients))) = (&gate, &gate_locks) {
            if let Err(reply) = crate::lint::check(shared, gate, &repo, registry, clients) {
                *repo = saved.expect("saved state when gating");
                return reply;
            }
        }
        shared.metrics.mutations.fetch_add(1, Ordering::Relaxed);
    }
    let reply = proto::ok()
        .with("event", event.to_string())
        .with("changed", event.changed());
    finish_mutation(shared, request, reply, event.changed(), source)
}

/// `retract_policy`: unregister a policy automaton; histories that
/// reference it fail to resolve from then on.
fn cmd_retract_policy(request: &Json, shared: &Shared, source: Source) -> Json {
    if let Some(reject) = reject_on_follower(shared, source) {
        return reject;
    }
    let name = match require_str(request, "name") {
        Ok(n) => n,
        Err(e) => return e,
    };
    // Lock order is `repo` → `registry`, so the gate's repository view
    // must be taken *before* the registry write lock.
    let gate_repo =
        crate::lint::gate_active(shared, source).then(|| shared.repo.read().expect("repo lock"));
    let mut registry = shared.registry.write().expect("registry lock");
    if let Some(hit) = dedup_check(shared, request, source) {
        return hit;
    }
    let gate_clients = gate_repo
        .as_ref()
        .map(|_| shared.clients.read().expect("clients lock"));
    let gate = match (&gate_repo, &gate_clients) {
        (Some(repo), Some(clients)) => {
            match crate::lint::prepare(shared, repo, &registry, clients) {
                Ok(g) => Some(g),
                Err(reply) => return reply,
            }
        }
        _ => None,
    };
    let saved = gate.as_ref().and_then(|_| registry.get(name).cloned());
    let removed = registry.remove(name).is_some();
    if removed {
        if let (Some(gate), Some(repo), Some(clients)) = (&gate, &gate_repo, &gate_clients) {
            if let Err(reply) = crate::lint::check(shared, gate, repo, &registry, clients) {
                registry.register(saved.expect("removed policy was fetched before removal"));
                return reply;
            }
        }
        shared.metrics.mutations.fetch_add(1, Ordering::Relaxed);
    }
    let reply = proto::ok().with("changed", removed);
    finish_mutation(shared, request, reply, removed, source)
}

/// `repo`: the current contents, for clients and smoke tests.
fn cmd_repo(shared: &Shared) -> Json {
    let repo = shared.repo.read().expect("repo lock");
    let registry = shared.registry.read().expect("registry lock");
    let client_names: Vec<Json> = shared
        .clients
        .read()
        .expect("clients lock")
        .iter()
        .map(|(name, _)| Json::str(name.clone()))
        .collect();
    let services: Vec<Json> = repo
        .iter()
        .map(|(loc, service)| {
            let entry = Json::obj()
                .with("location", loc.to_string())
                .with("service", service.to_string());
            match repo.capacity(loc).flatten() {
                Some(cap) => entry.with("capacity", cap),
                None => entry,
            }
        })
        .collect();
    let policies: Vec<Json> = registry
        .iter()
        .map(|a| Json::str(a.name().to_owned()))
        .collect();
    proto::ok()
        .with("services", services)
        .with("policies", policies)
        .with("clients", client_names)
}

/// The product-store options for a query capped at `plan_cap`.
fn store_opts(plan_cap: usize) -> SynthesisOptions {
    SynthesisOptions {
        plan_cap,
        engine: Engine::Compositional,
        ..SynthesisOptions::default()
    }
}

/// One verdict as a wire object: the plan (display form and a
/// `bindings` map), validity, and the violation messages. Shared by the
/// broker's `plan` reply and `sufs verify --json`.
pub fn verdict_json(verdict: &sufs_core::PlanVerdict) -> Json {
    let violations: Vec<Json> = verdict
        .violations
        .iter()
        .map(|v| Json::str(v.to_string()))
        .collect();
    let mut bindings = Json::obj();
    for (r, loc) in verdict.plan.iter() {
        bindings.set(&r.to_string(), loc.to_string());
    }
    Json::obj()
        .with("plan", verdict.plan.to_string())
        .with("bindings", bindings)
        .with("valid", verdict.is_valid())
        .with("violations", violations)
}

/// `plan`: read the client's valid plans off its composed product in
/// the shared store; the broker's core query.
fn cmd_plan(request: &Json, shared: &Shared) -> Json {
    let text = match require_str(request, "client") {
        Ok(t) => t,
        Err(e) => return e,
    };
    let client = match parse_hist(text) {
        Ok(h) => h,
        Err(e) => return proto::error("parse", e.to_string()),
    };
    // One engine answers. A caller naming another one expects a
    // different report shape, so it is refused rather than served.
    if let Some(engine) = request.get("engine") {
        if engine.as_str() != Some(Engine::Compositional.as_str()) {
            return proto::error(
                "bad_request",
                format!("field `engine` must be \"compositional\", got {engine}"),
            );
        }
    }
    // A request may lower the daemon's plan cap, never raise it: the
    // product walk runs under the store lock.
    let plan_cap = match request.u64_field("plan_cap") {
        Some(cap) => usize::try_from(cap).map_or(shared.plan_cap, |c| c.min(shared.plan_cap)),
        None => shared.plan_cap,
    };
    let opts = store_opts(plan_cap);
    let repo = shared.repo.read().expect("repo lock");
    let registry = shared.registry.read().expect("registry lock");
    let start = Instant::now();
    if let Some(k) = request.u64_field("max_valid") {
        // The production query shape — "give me a valid orchestration":
        // the first k valid plans plus the total count, read straight
        // off the resident product without materialising the verdict
        // map, so the reply and its cost stay constant however wide the
        // plan space is.
        let read = shared.products.read_valid(
            &client,
            &repo,
            &registry,
            &opts,
            Some(&shared.cache),
            usize::try_from(k).unwrap_or(usize::MAX),
        );
        let (valid, total, stats) = match read {
            Ok(r) => r,
            Err(e) => return proto::error("verify", e.to_string()),
        };
        shared.metrics.observe_synthesis(start.elapsed());
        shared.metrics.plans.fetch_add(1, Ordering::Relaxed);
        let valid: Vec<Json> = valid.iter().map(|p| Json::str(p.to_string())).collect();
        return proto::ok()
            .with("valid", valid)
            .with("valid_total", total)
            .with("stats", synth_stats_json(&stats));
    }
    // The full report: every candidate surviving the compliance cut,
    // with its verdict.
    let synthesis =
        match shared
            .products
            .synthesize(&client, &repo, &registry, &opts, Some(&shared.cache))
        {
            Ok(s) => s,
            Err(e) => return proto::error("verify", e.to_string()),
        };
    shared.metrics.observe_synthesis(start.elapsed());
    shared.metrics.plans.fetch_add(1, Ordering::Relaxed);
    let verdicts: Vec<Json> = synthesis
        .report
        .verdicts()
        .iter()
        .map(verdict_json)
        .collect();
    let valid: Vec<Json> = synthesis
        .report
        .valid_plans()
        .map(|p| Json::str(p.to_string()))
        .collect();
    proto::ok()
        .with("valid", valid)
        .with("verdicts", verdicts)
        .with("stats", synth_stats_json(&synthesis.stats))
}

/// [`sufs_core::SynthStats`] as a wire object. Shared by the broker's
/// `plan` reply and `sufs verify --json`.
pub fn synth_stats_json(stats: &sufs_core::SynthStats) -> Json {
    let mut stats_json = Json::obj()
        .with("candidates", stats.candidates)
        .with("pruned_subtrees", stats.pruned_subtrees)
        .with("prune_active", stats.prune_active)
        .with("engine", stats.engine.as_str())
        .with("elapsed_us", stats.elapsed.as_micros() as u64);
    if let Some(product) = &stats.product {
        stats_json.set(
            "product",
            Json::obj()
                .with("reused", product.reused)
                .with("patched", product.patched)
                .with("admissible_edges", product.admissible_edges)
                .with("total_edges", product.total_edges),
        );
    }
    if let Some(cache) = &stats.cache {
        stats_json.set(
            "cache",
            Json::obj()
                .with("hits", cache.hits())
                .with("misses", cache.misses()),
        );
    }
    stats_json
}

/// Parses a `r=loc,...` plan spec (the `sufs run --plan` syntax).
fn parse_plan_spec(spec: &str) -> Result<Plan, String> {
    let mut plan = Plan::new();
    for binding in spec.split(',').filter(|s| !s.is_empty()) {
        let (r, loc) = binding
            .split_once('=')
            .ok_or_else(|| format!("bad plan binding `{binding}` (want r=loc)"))?;
        let r: u32 = r
            .trim_start_matches('r')
            .parse()
            .map_err(|_| format!("bad request id `{r}`"))?;
        plan.bind(r, loc);
    }
    Ok(plan)
}

/// `run`: execute a client against the live repository, with the PR-1
/// fault/recovery machinery available over the wire.
fn cmd_run(request: &Json, shared: &Shared) -> Json {
    let text = match require_str(request, "client") {
        Ok(t) => t,
        Err(e) => return e,
    };
    let client = match parse_hist(text) {
        Ok(h) => h,
        Err(e) => return proto::error("parse", e.to_string()),
    };
    let faults = match request.str_field("faults") {
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(f) => Some(f),
            Err(e) => return proto::error("bad_request", e),
        },
        None => None,
    };
    let recover = request.bool_field("recover").unwrap_or(false);
    let committed = request.bool_field("committed").unwrap_or(false);
    let seed = request.u64_field("seed").unwrap_or(0);
    let fuel = request
        .u64_field("fuel")
        .map(|f| f as usize)
        .unwrap_or(shared.fuel);

    let repo = shared.repo.read().expect("repo lock");
    let registry = shared.registry.read().expect("registry lock");

    let forced = match request.str_field("plan") {
        Some(spec) => match parse_plan_spec(spec) {
            Ok(p) => Some(p),
            Err(e) => return proto::error("bad_request", e),
        },
        None => None,
    };
    // The plan-sorted valid plans the run needs, read off the client's
    // product: the first one when no plan is forced, all of them as the
    // fallback chain when recovery is armed. No valid plan refuses an
    // unforced run — a structured error, never a hang or a stale answer.
    let mut chain = Vec::new();
    if forced.is_none() || recover {
        let k = if recover { usize::MAX } else { 1 };
        let start = Instant::now();
        let read = shared.products.read_valid(
            &client,
            &repo,
            &registry,
            &store_opts(shared.plan_cap),
            Some(&shared.cache),
            k,
        );
        let (valid, _, stats) = match read {
            Ok(r) => r,
            Err(e) => return proto::error("verify", e.to_string()),
        };
        shared.metrics.observe_synthesis(start.elapsed());
        if forced.is_none() && valid.is_empty() {
            return proto::error(
                "no_valid_plan",
                format!(
                    "no valid plan among {} surviving candidate(s) for this client",
                    stats.candidates
                ),
            );
        }
        chain = valid;
    }
    let plan = match forced {
        Some(p) => p,
        None => chain[0].clone(),
    };

    let monitor = if request.bool_field("monitor").unwrap_or(false) {
        MonitorMode::Enforcing
    } else {
        MonitorMode::Audit
    };
    let choice = if committed {
        ChoiceMode::Committed
    } else {
        ChoiceMode::Angelic
    };
    let mut scheduler = Scheduler::new(&repo, &registry, monitor, choice);
    if let Some(f) = faults {
        scheduler = scheduler.with_faults(f);
    }
    if recover {
        scheduler = scheduler.with_recovery(RecoveryTable::new().with_chain(chain));
    }
    let mut network = Network::new();
    network.add_client(Location::new("client"), client, plan.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let result = match scheduler.run(network, &mut rng, fuel) {
        Ok(r) => r,
        Err(e) => return proto::error("verify", e.to_string()),
    };
    shared.metrics.runs.fetch_add(1, Ordering::Relaxed);
    let recovered = matches!(result.outcome, Outcome::RecoveredVia { .. });
    if recovered {
        shared.metrics.failed_over.fetch_add(1, Ordering::Relaxed);
    }
    let outcome = match &result.outcome {
        Outcome::Completed => "completed".to_owned(),
        Outcome::RecoveredVia { plan, .. } => format!("recovered via {plan}"),
        Outcome::SecurityAbort { policy, .. } => format!("security abort ({policy})"),
        Outcome::Deadlock { component, .. } => format!("deadlock (component {component})"),
        Outcome::OutOfFuel => "out of fuel".to_owned(),
        Outcome::FaultAbort { component } => format!("fault abort (component {component})"),
        Outcome::TimedOut { component } => format!("timed out (component {component})"),
    };
    proto::ok()
        .with("plan", plan.to_string())
        .with("outcome", outcome)
        .with("success", result.outcome.is_success())
        .with("recovered", recovered)
        .with("steps", result.trace.len())
        .with("faults", result.faults.len())
        .with("violations", result.violations.len())
}

/// `stats`: every counter plus the live cache hit-rate, the
/// replication role/lag view, and — on a durable broker — the
/// journal's live state.
fn cmd_stats(shared: &Shared) -> Json {
    let cache = shared.cache.stats();
    let products = shared.products.stats();
    let repo_len = shared.repo.read().expect("repo lock").len();
    let clients_len = shared.clients.read().expect("clients lock").len();
    let mut reply = proto::ok()
        .with("services", repo_len)
        .with("clients", clients_len)
        .with(
            "stats",
            shared.metrics.snapshot(cache.hits(), cache.misses()),
        )
        .with(
            "products",
            Json::obj()
                .with("entries", products.entries)
                .with("builds", products.builds)
                .with("patches", products.patches)
                .with("reads", products.reads)
                .with("evictions", products.evictions)
                .with(
                    "warmed",
                    shared.metrics.warmed_products.load(Ordering::Relaxed),
                ),
        )
        .with("replication", replication::stats_section(shared));
    if let Some(d) = shared.durability.as_ref() {
        let dedup_len = d.dedup.lock().expect("dedup lock").len();
        let wal = d.wal.lock().expect("wal lock");
        reply.set(
            "journal",
            Json::obj()
                .with("state_dir", d.dir.display().to_string())
                .with("records_since_snapshot", wal.records_since_truncate())
                .with("bytes_since_snapshot", wal.bytes_since_truncate())
                .with("next_seq", wal.next_seq())
                .with("snapshot_every", d.snapshot_every)
                .with("dedup_window", dedup_len),
        );
    }
    reply
}
