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
//! One thread per admitted connection. The repository, the policy
//! registry and the registered clients — the state a plan's validity
//! is judged against — sit behind one `RwLock<State>`. `plan`/`run`
//! requests hold its read guard for the duration of the query, so many
//! queries proceed in parallel. Every mutation runs one pipeline: parse
//! outside the lock, then dedup, lint gate, apply and seal under the
//! write guard, so a query sees either the whole mutation or none of
//! it, and the product it reads is re-derived against exactly the state
//! it sees. Lock order, everywhere: `state` → `lint` → `dedup` → `wal`
//! → `repl.followers`. Admission control is explicit: past
//! `max_clients` concurrent connections the broker *replies* `busy` and
//! closes — it never silently stalls the accept queue.
//!
//! # Durability (opt-in)
//!
//! With [`BrokerConfig::state_dir`] set, every state-mutating request
//! is appended to a checksummed write-ahead journal and **fsynced
//! before its reply goes out** ([`crate::wal`]); the journal is
//! periodically compacted into an atomic snapshot
//! ([`crate::snapshot`]), and startup replays snapshot + journal
//! suffix through the same mutation pipeline the wire uses. A bounded
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
use sufs_core::scenario::{parse_scenario, Scenario};
use sufs_core::{Engine, ProductStore, SynthesisOptions, VerifyCache, VerifyError};
use sufs_hexpr::{parse_hist, wf, Hist, Location};
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
/// Lock order, everywhere: `state` → `lint` → `dedup` → `wal` →
/// `repl.followers`. A mutation appends to the journal while still
/// holding the state write guard, so journal order is exactly apply
/// order; the snapshotter takes the state *read* guard first, which
/// blocks every mutation and freezes the journal tip while the state
/// is captured. Record broadcast and
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
/// waits, dedup, the lint gate and the follower role check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// Over the wire: dedup + lint gate + journal + broadcast + (maybe)
    /// quorum wait, and reject mutations on a follower.
    Client,
    /// A journal record, re-applied at startup or shipped by the
    /// upstream: apply only; the caller keeps the recorded reply and
    /// sequence number.
    Record,
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

/// The broker's mutable state: the repository and policies a plan's
/// validity is judged against, plus the registered clients.
#[derive(Clone, Default)]
pub(crate) struct State {
    pub(crate) repo: Repository,
    pub(crate) registry: PolicyRegistry,
    /// Registered client behaviours (from `publish_scenario`), sorted
    /// by name — the client set repository-wide lint passes analyze.
    pub(crate) clients: Vec<(String, Hist)>,
}

/// Everything the connection threads share. Lock order: see
/// [`Durability`].
pub(crate) struct Shared {
    pub(crate) state: RwLock<State>,
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

        let mut state = State::default();
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
                    state = State {
                        repo: snap.repository,
                        registry: snap.registry,
                        clients: snap.clients,
                    };
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
            state: RwLock::new(state),
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

/// Re-applies the journal suffix through the mutation pipeline and
/// logs a one-line recovery summary. Runs before the acceptor starts,
/// so no client can observe a half-recovered repository.
fn replay_journal(shared: &Shared, plan: RecoveryPlan) {
    let d = shared
        .durability
        .as_ref()
        .expect("replay requires durability");
    for record in &plan.pending {
        // Every mutation is an upsert or a delete, so re-application is
        // exact.
        let _ = handle_request_from(&record.request, shared, Source::Record);
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
    let state = shared.state.read().expect("state lock");
    let mut warmed = 0usize;
    for (_, client) in &state.clients {
        if shared
            .products
            .read_valid(
                client,
                &state.repo,
                &state.registry,
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
    if !state.clients.is_empty() {
        eprintln!(
            "sufs-broker: warm start: {warmed}/{} client product(s) rebuilt, {:.1}ms",
            state.clients.len(),
            started.elapsed().as_secs_f64() * 1e3,
        );
    }
}

/// Answers a retried mutation from the idempotency window. The caller
/// holds the state write guard, so a hit here can never interleave
/// with the original application. Journal records never dedup — their
/// sources already deduplicated them.
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
/// records its `req_id` in the idempotency window. The caller still
/// holds the state write guard, so journal order is exactly apply
/// order.
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
/// returned (no handler locks held); takes `state.read` → `dedup` →
/// `wal` — with the state read guard held no mutation is in flight, so
/// the journal tip is frozen and matches the captured state exactly.
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
    let state = shared.state.read().expect("state lock");
    let dedup = d.dedup.lock().expect("dedup lock");
    let mut wal = d.wal.lock().expect("wal lock");
    let covered = wal.next_seq().saturating_sub(1);
    let entries = dedup.export();
    let result = snapshot::write(
        &d.dir,
        covered,
        &state.repo,
        &state.registry,
        &state.clients,
        &entries,
    )
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
        "publish" | "publish_scenario" | "retract" | "retract_policy" => {
            mutate(cmd, request, shared, source).unwrap_or_else(|reply| reply)
        }
        "repo" => cmd_repo(shared),
        "plan" => cmd_plan(request, shared).unwrap_or_else(|reply| reply),
        "run" => cmd_run(request, shared).unwrap_or_else(|reply| reply),
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

fn require_str<'a>(request: &'a Json, field: &str) -> Result<&'a str, Json> {
    request
        .str_field(field)
        .ok_or_else(|| proto::error("bad_request", format!("missing string field `{field}`")))
}

/// An optional request field read with `read` (`Json::as_u64`,
/// `Json::as_bool`, ...): `None` when absent, `bad_request` when present
/// with any other shape — a malformed option is refused, never read as
/// its default.
fn optional<'a, T>(
    request: &'a Json,
    field: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, Json> {
    request
        .get(field)
        .map(|value| {
            read(value).ok_or_else(|| {
                proto::error("bad_request", format!("malformed field `{field}`: {value}"))
            })
        })
        .transpose()
}

/// A count that fits this platform's `usize`.
fn as_usize(value: &Json) -> Option<usize> {
    value.as_u64().and_then(|n| usize::try_from(n).ok())
}

/// One state-changing request, parsed and ready to apply.
enum Mutation {
    /// `publish`: insert or replace one service.
    Publish {
        location: String,
        service: Hist,
        capacity: Option<usize>,
    },
    /// `publish_scenario`: merge every `service`, `policy` and client
    /// declaration of a scenario text.
    Scenario(Scenario),
    /// `retract`: withdraw a service; new plans stop seeing it
    /// immediately.
    Retract(Location),
    /// `retract_policy`: unregister a policy automaton; histories that
    /// reference it fail to resolve from then on.
    RetractPolicy(String),
}

impl Mutation {
    /// Parses the request of mutation command `cmd`; runs before any
    /// lock is taken. Missing or malformed fields are reported before
    /// parse errors.
    fn parse(cmd: &str, request: &Json) -> Result<Mutation, Json> {
        match cmd {
            "publish" => {
                let location = require_str(request, "location")?;
                let text = require_str(request, "service")?;
                let capacity = optional(request, "capacity", as_usize)?;
                let service = parse_hist(text).map_err(|e| proto::error("parse", e.to_string()))?;
                Ok(Mutation::Publish {
                    location: location.to_owned(),
                    service,
                    capacity,
                })
            }
            "publish_scenario" => {
                let text = require_str(request, "text")?;
                parse_scenario(text)
                    .map(Mutation::Scenario)
                    .map_err(|e| proto::error("parse", e.to_string()))
            }
            "retract" => Ok(Mutation::Retract(Location::new(require_str(
                request, "location",
            )?))),
            "retract_policy" => Ok(Mutation::RetractPolicy(
                require_str(request, "name")?.to_owned(),
            )),
            other => unreachable!("`{other}` is not a mutation command"),
        }
    }

    /// Applies the mutation in place and returns its reply and whether
    /// the state changed. A `publish` always counts as a change, so a
    /// re-publish of the same body is journaled like any other.
    ///
    /// # Errors
    ///
    /// An `ill_formed` reply for a service that fails the
    /// well-formedness check; the state is left untouched.
    fn apply(self, state: &mut State) -> Result<(Json, bool), Json> {
        match self {
            Mutation::Publish {
                location,
                service,
                capacity,
            } => {
                let event = match capacity {
                    Some(cap) => state.repo.try_publish_bounded(location, service, cap),
                    None => state.repo.try_publish(location, service),
                }
                .map_err(|e| proto::error("ill_formed", e.to_string()))?;
                Ok((proto::ok().with("event", event.to_string()), true))
            }
            Mutation::Scenario(scenario) => {
                let mut services = 0u64;
                for (loc, service) in scenario.repository.iter() {
                    // The scenario parser already ran the
                    // well-formedness check.
                    match scenario.repository.capacity(loc).flatten() {
                        Some(cap) => {
                            state
                                .repo
                                .try_publish_bounded(loc.clone(), service.clone(), cap)
                        }
                        None => state.repo.try_publish(loc.clone(), service.clone()),
                    }
                    .expect("scenario services are well-formed");
                    services += 1;
                }
                let mut policies = 0u64;
                for automaton in scenario.registry.iter() {
                    state.registry.register(automaton.clone());
                    policies += 1;
                }
                // Scenario clients join the broker's registered client
                // set (upsert by name, kept sorted) — the population the
                // repository-wide lint passes analyze.
                let mut clients = 0u64;
                for (name, hist) in scenario.clients {
                    match state
                        .clients
                        .binary_search_by(|(n, _)| n.as_str().cmp(name.as_str()))
                    {
                        Ok(i) => state.clients[i].1 = hist,
                        Err(i) => state.clients.insert(i, (name, hist)),
                    }
                    clients += 1;
                }
                let reply = proto::ok()
                    .with("services", services)
                    .with("policies", policies)
                    .with("clients", clients);
                Ok((reply, services + policies + clients > 0))
            }
            Mutation::Retract(location) => {
                let event = state.repo.retract(&location);
                let reply = proto::ok()
                    .with("event", event.to_string())
                    .with("changed", event.changed());
                Ok((reply, event.changed()))
            }
            Mutation::RetractPolicy(name) => {
                let removed = state.registry.remove(&name).is_some();
                Ok((proto::ok().with("changed", removed), removed))
            }
        }
    }
}

/// The one mutation path: reject on a follower, parse outside the
/// lock, then — under the state write guard — answer a retry from the
/// idempotency window, apply, let the `--deny-lint` gate judge the
/// change (reverting it on rejection), and seal it. Only a gated
/// mutation pays for the state backup.
fn mutate(cmd: &str, request: &Json, shared: &Shared, source: Source) -> Result<Json, Json> {
    // Journal records always apply: that is what a follower is *for*.
    if source == Source::Client && !shared.repl.is_primary() {
        return Err(replication::not_primary(shared));
    }
    let mutation = Mutation::parse(cmd, request)?;
    let mut state = shared.state.write().expect("state lock");
    if let Some(hit) = dedup_check(shared, request, source) {
        return Ok(hit);
    }
    let gate = crate::lint::gate_active(shared, source)
        .then(|| crate::lint::prepare(shared, &state).map(|gate| (gate, state.clone())))
        .transpose()?;
    let (reply, changed) = mutation.apply(&mut state)?;
    if changed {
        if let Some((gate, backup)) = gate {
            if let Err(reply) = crate::lint::check(shared, &gate, &state) {
                *state = backup;
                return Err(reply);
            }
        }
        shared.metrics.mutations.fetch_add(1, Ordering::Relaxed);
    }
    Ok(finish_mutation(shared, request, reply, changed, source))
}

/// `repo`: the current contents, for clients and smoke tests.
fn cmd_repo(shared: &Shared) -> Json {
    let state = shared.state.read().expect("state lock");
    let State {
        repo,
        registry,
        clients,
    } = &*state;
    let client_names: Vec<Json> = clients
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
fn cmd_plan(request: &Json, shared: &Shared) -> Result<Json, Json> {
    let text = require_str(request, "client")?;
    let client = parse_hist(text).map_err(|e| proto::error("parse", e.to_string()))?;
    // One engine answers. A caller naming another one expects a
    // different report shape, so it is refused rather than served.
    if let Some(engine) = request.get("engine") {
        if engine.as_str() != Some(Engine::Compositional.as_str()) {
            return Err(proto::error(
                "bad_request",
                format!("field `engine` must be \"compositional\", got {engine}"),
            ));
        }
    }
    // A request may lower the daemon's plan cap, never raise it: the
    // product walk runs under the store lock.
    let plan_cap = match optional(request, "plan_cap", Json::as_u64)? {
        Some(cap) => usize::try_from(cap).map_or(shared.plan_cap, |c| c.min(shared.plan_cap)),
        None => shared.plan_cap,
    };
    let max_valid = optional(request, "max_valid", Json::as_u64)?;
    let opts = store_opts(plan_cap);
    let state = shared.state.read().expect("state lock");
    let start = Instant::now();
    if let Some(k) = max_valid {
        // The production query shape — "give me a valid orchestration":
        // the first k valid plans plus the total count, read straight
        // off the resident product without materialising the verdict
        // map, so the reply and its cost stay constant however wide the
        // plan space is.
        let (valid, total, stats) = shared
            .products
            .read_valid(
                &client,
                &state.repo,
                &state.registry,
                &opts,
                Some(&shared.cache),
                usize::try_from(k).unwrap_or(usize::MAX),
            )
            .map_err(|e| proto::error("verify", e.to_string()))?;
        shared.metrics.observe_synthesis(start.elapsed());
        shared.metrics.plans.fetch_add(1, Ordering::Relaxed);
        let valid: Vec<Json> = valid.iter().map(|p| Json::str(p.to_string())).collect();
        return Ok(proto::ok()
            .with("valid", valid)
            .with("valid_total", total)
            .with("stats", synth_stats_json(&stats)));
    }
    // The full report: every candidate surviving the compliance cut,
    // with its verdict.
    let synthesis = shared
        .products
        .synthesize(
            &client,
            &state.repo,
            &state.registry,
            &opts,
            Some(&shared.cache),
        )
        .map_err(|e| proto::error("verify", e.to_string()))?;
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
    Ok(proto::ok()
        .with("valid", valid)
        .with("verdicts", verdicts)
        .with("stats", synth_stats_json(&synthesis.stats)))
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
fn cmd_run(request: &Json, shared: &Shared) -> Result<Json, Json> {
    let text = require_str(request, "client")?;
    let client = parse_hist(text).map_err(|e| proto::error("parse", e.to_string()))?;
    let faults = optional(request, "faults", Json::as_str)?
        .map(FaultPlan::parse)
        .transpose()
        .map_err(|e| proto::error("bad_request", e))?;
    let recover = optional(request, "recover", Json::as_bool)?.unwrap_or(false);
    let choice = match optional(request, "committed", Json::as_bool)? {
        Some(true) => ChoiceMode::Committed,
        _ => ChoiceMode::Angelic,
    };
    let monitor = match optional(request, "monitor", Json::as_bool)? {
        Some(true) => MonitorMode::Enforcing,
        _ => MonitorMode::Audit,
    };
    let seed = optional(request, "seed", Json::as_u64)?.unwrap_or(0);
    let fuel = optional(request, "fuel", as_usize)?.unwrap_or(shared.fuel);
    let forced = optional(request, "plan", Json::as_str)?
        .map(parse_plan_spec)
        .transpose()
        .map_err(|e| proto::error("bad_request", e))?;
    // An ill-formed client may have an infinite state space: refuse it
    // as `plan` does, whether or not a forced plan skips the product.
    wf::check(&client)
        .map_err(|e| proto::error("verify", VerifyError::IllFormedClient(e).to_string()))?;

    let state = shared.state.read().expect("state lock");
    // The plan-sorted valid plans the run needs, read off the client's
    // product: the first one when no plan is forced, all of them as the
    // fallback chain when recovery is armed. No valid plan refuses an
    // unforced run — a structured error, never a hang or a stale answer.
    let mut chain = Vec::new();
    if forced.is_none() || recover {
        let k = if recover { usize::MAX } else { 1 };
        let start = Instant::now();
        let (valid, _, stats) = shared
            .products
            .read_valid(
                &client,
                &state.repo,
                &state.registry,
                &store_opts(shared.plan_cap),
                Some(&shared.cache),
                k,
            )
            .map_err(|e| proto::error("verify", e.to_string()))?;
        shared.metrics.observe_synthesis(start.elapsed());
        if forced.is_none() && valid.is_empty() {
            return Err(proto::error(
                "no_valid_plan",
                format!(
                    "no valid plan among {} surviving candidate(s) for this client",
                    stats.candidates
                ),
            ));
        }
        chain = valid;
    }
    let plan = match forced {
        Some(p) => p,
        None => chain[0].clone(),
    };

    let mut scheduler = Scheduler::new(&state.repo, &state.registry, monitor, choice);
    if let Some(f) = faults {
        scheduler = scheduler.with_faults(f);
    }
    if recover {
        scheduler = scheduler.with_recovery(RecoveryTable::new().with_chain(chain));
    }
    let mut network = Network::new();
    network.add_client(Location::new("client"), client, plan.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let result = scheduler
        .run(network, &mut rng, fuel)
        .map_err(|e| proto::error("verify", e.to_string()))?;
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
    Ok(proto::ok()
        .with("plan", plan.to_string())
        .with("outcome", outcome)
        .with("success", result.outcome.is_success())
        .with("recovered", recovered)
        .with("steps", result.trace.len())
        .with("faults", result.faults.len())
        .with("violations", result.violations.len()))
}

/// `stats`: every counter plus the live cache hit-rate, the
/// replication role/lag view, and — on a durable broker — the
/// journal's live state.
fn cmd_stats(shared: &Shared) -> Json {
    let cache = shared.cache.stats();
    let products = shared.products.stats();
    let (repo_len, clients_len) = {
        let state = shared.state.read().expect("state lock");
        (state.repo.len(), state.clients.len())
    };
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
