//! WAL-shipping replication: primaries stream journal records to
//! followers; followers can be promoted when the primary is lost.
//!
//! # Design
//!
//! Replication reuses the crash-recovery machinery end to end. A
//! follower joining (or *re*-joining) a primary always receives a full
//! snapshot bootstrap — the exact JSON document
//! [`crate::snapshot::write`] persists — followed by the live stream of
//! journal records, each shipped as the same `{seq, req, reply}` tuple
//! the on-disk journal holds. The follower applies every record through
//! the same mutation pipeline startup replay uses, journals it under the
//! *primary's* sequence number, and acknowledges the applied sequence.
//! Because bootstrap replaces the follower's entire state, a node that
//! diverged (e.g. an old primary that applied mutations which never
//! reached quorum before it was killed) converges simply by rejoining:
//! no epochs or truncation protocol are needed for correctness.
//!
//! # Acknowledgement modes
//!
//! Under `AckMode::Local` a mutation is acknowledged once the local
//! fsync completes (PR-5 behaviour). Under `AckMode::Quorum` the reply
//! additionally waits until a majority of the configured cluster —
//! `cluster_size / 2` followers besides the primary itself — has
//! acknowledged the record, and reports the outcome in a `"quorum"`
//! field. A timeout degrades to `"quorum": false` (the mutation *is*
//! applied and journaled locally); clients that need machine-loss
//! durability retry the same `req_id` until they see `"quorum": true` —
//! the idempotency window re-evaluates quorum on every retry, so the
//! retry is cheap and exactly-once.
//!
//! # Ordering
//!
//! Records are broadcast to follower queues *while the WAL append lock
//! is held*, and appends happen while the state write guard is held,
//! so every follower observes records in exactly the journal order.
//! Follower registration takes the same state → dedup → wal →
//! followers lock chain as the snapshotter, which freezes the journal
//! tip while the bootstrap document is rendered: a joining follower can
//! neither miss a record nor receive one twice (records at or below the
//! bootstrap's coverage are skipped by sequence number).
//!
//! # Promotion
//!
//! `promote` severs the follower's upstream link, joins its pull
//! thread, flips the role to primary, and bumps the *cluster epoch*;
//! its journal already continues the primary's numbering, so new
//! mutations extend the same sequence. The new primary's announcer
//! thread then re-points the surviving followers at it — no restarts.
//! Operators (or the chaos harness) promote the follower with the
//! highest `applied_seq`: the stream is a journal prefix, so that
//! follower contains every record any quorum ever acknowledged.
//!
//! # Election
//!
//! With `--election auto` nobody has to run `promote`. A follower
//! whose upstream goes silent for the heartbeat timeout (4 replication
//! ticks) becomes a candidate: it sleeps a seeded random slice of
//! `--election-timeout` (simultaneous detectors converge instead of
//! splitting every vote), bumps its *term* past the highest term or
//! epoch it has seen, votes for itself, and canvasses its known peers
//! with `{"cmd":"vote","term":T,"ballot":B,"node":ID,"epoch":E}` where
//! the ballot `B` is its `applied_seq`. A peer grants iff the
//! candidate's epoch is current, the term is not behind its own, its
//! own upstream is also silent, `(ballot, node)` is at least its own
//! `(applied_seq, advertise)` — highest replicated prefix wins, node
//! id breaks ties — and it has not already voted for someone else in
//! that term (the vote is persisted in `cluster.meta`, so a crashed
//! voter cannot double-vote after restart). A strict majority of the
//! configured cluster — own vote included — promotes the candidate
//! with `epoch = term`.
//!
//! Safety: any vote majority intersects any quorum-ack majority, and
//! the ballot rule means the winner's prefix contains every
//! quorum-acked record; one-vote-per-term plus the epoch check inside
//! promotion gives at most one primary per epoch. Liveness: losers
//! retry with fresh randomized delays, and a candidate that reaches a
//! live primary during the canvass re-points at it instead.
//!
//! The winner's announcer broadcasts `{"cmd":"announce","epoch":E,
//! "primary":ID}`: followers of the dead primary re-point their
//! stream, and a *stale* primary healing from a partition demotes
//! itself on the higher epoch (fencing) — or, if it can dial out but
//! not be dialed, learns the same from the refusal reply to its own
//! announce. Re-joining always bootstraps a full snapshot, so a stale
//! primary's un-replicated tail (never quorum-acked, by majority
//! intersection) is discarded.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sufs_rng::{Rng, SeedableRng, StdRng};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::proto::{self, encode_frame, read_frame, write_frame};
use crate::server::{handle_request_from, BrokerConfig, Shared, Source, State};
use crate::snapshot;

/// Frames a slow follower may have queued before the primary declares
/// it lost; past this the connection is severed and the follower
/// re-bootstraps when it redials.
const QUEUE_CAP: usize = 65_536;

/// Upper bound on one upstream connection attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Consecutive announce failures before a peer address is dropped from
/// the announcer's target set (it is re-learned if the node ever
/// rejoins the replication stream).
const PEER_PRUNE_FAILURES: u32 = 40;

/// File under the state directory holding the persisted cluster
/// metadata: epoch, term, and the last granted vote. Persisting the
/// vote is what keeps "one vote per term" true across a crash-restart
/// inside a single election.
pub(crate) const META_FILE: &str = "cluster.meta";

/// Whether followers elect a new primary on their own when the
/// upstream dies, or wait for an operator's `promote`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElectionMode {
    /// PR-6 behaviour: promotion is an explicit operator action.
    Manual,
    /// Followers that lose the upstream heartbeat run a seeded
    /// randomized-timeout election; the winner promotes itself and the
    /// losers re-point their replication stream at it.
    Auto,
}

impl ElectionMode {
    /// Parses the `--election` CLI value.
    ///
    /// # Errors
    ///
    /// A message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "manual" => Ok(ElectionMode::Manual),
            "auto" => Ok(ElectionMode::Auto),
            other => Err(format!(
                "unknown election mode `{other}` (want auto|manual)"
            )),
        }
    }

    /// The wire/CLI name of this mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            ElectionMode::Manual => "manual",
            ElectionMode::Auto => "auto",
        }
    }
}

/// How a mutation is acknowledged to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Acknowledge after the local WAL fsync (single-node durability).
    Local,
    /// Additionally wait for a majority of the configured cluster to
    /// acknowledge the record; the reply's `"quorum"` field reports
    /// whether the wait succeeded within the timeout.
    Quorum,
}

impl AckMode {
    /// Parses the `--ack` CLI value.
    ///
    /// # Errors
    ///
    /// A message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "local" => Ok(AckMode::Local),
            "quorum" => Ok(AckMode::Quorum),
            other => Err(format!("unknown ack mode `{other}` (want local|quorum)")),
        }
    }

    /// The wire/CLI name of this mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            AckMode::Local => "local",
            AckMode::Quorum => "quorum",
        }
    }
}

/// Which side of the replication stream this broker is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// Accepts mutations and serves `replicate` streams.
    Primary,
    /// Applies the upstream's records; rejects client mutations with
    /// `not_primary`.
    Follower {
        /// The primary's address, re-dialled until promotion.
        upstream: String,
    },
}

impl Role {
    /// The wire name of this role.
    pub fn name(&self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower { .. } => "follower",
        }
    }
}

/// Primary-side state for one connected follower.
pub(crate) struct FollowerConn {
    /// The follower's peer address, for `stats`.
    pub(crate) peer: String,
    /// The replication connection; the writer thread drains `queue`
    /// into it, the `serve_replica` thread reads acks from it.
    stream: TcpStream,
    /// Encoded record frames awaiting the writer thread.
    queue: Mutex<VecDeque<Vec<u8>>>,
    qcv: Condvar,
    /// Abandon: stop shipping, drop the queue.
    closed: AtomicBool,
    /// Drain: ship everything queued, then stop.
    draining: AtomicBool,
    /// Highest sequence number the follower acknowledged.
    pub(crate) acked_seq: AtomicU64,
    /// Highest sequence number queued for shipping.
    pub(crate) sent_seq: AtomicU64,
    /// Ship times of in-flight records, popped on ack to feed the
    /// replication-latency histogram.
    inflight: Mutex<VecDeque<(u64, Instant)>>,
    /// The address *other nodes* can dial this follower at, from its
    /// `replicate` handshake; feeds the heartbeat peer list and lets
    /// the announcer skip nodes that already follow us.
    pub(crate) advertise: Option<String>,
}

impl FollowerConn {
    fn new(peer: String, stream: TcpStream, baseline_seq: u64, advertise: Option<String>) -> Self {
        FollowerConn {
            peer,
            stream,
            queue: Mutex::new(VecDeque::new()),
            qcv: Condvar::new(),
            closed: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            acked_seq: AtomicU64::new(0),
            sent_seq: AtomicU64::new(baseline_seq),
            inflight: Mutex::new(VecDeque::new()),
            advertise,
        }
    }

    fn enqueue(&self, seq: u64, frame: &[u8]) {
        let mut queue = self.queue.lock().expect("queue lock");
        if queue.len() >= QUEUE_CAP {
            // The follower is too far behind to catch up by streaming;
            // sever so it re-bootstraps from a fresh snapshot instead
            // of growing an unbounded queue on the primary.
            drop(queue);
            self.abandon();
            return;
        }
        queue.push_back(frame.to_vec());
        self.sent_seq.store(seq, Ordering::SeqCst);
        self.inflight
            .lock()
            .expect("inflight lock")
            .push_back((seq, Instant::now()));
        self.qcv.notify_all();
    }

    fn abandon(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.queue.lock().expect("queue lock").clear();
        let _ = self.stream.shutdown(Shutdown::Both);
        self.qcv.notify_all();
    }

    /// The writer thread: ships queued frames, emits a heartbeat after
    /// `tick` of idleness, exits once closed (immediately) or draining
    /// (after the queue empties). Heartbeats carry the primary's epoch
    /// (fencing: a follower drops a stale upstream on sight) and its
    /// live peer view (how followers learn who to canvass when the
    /// primary later dies).
    fn writer_loop(self: &Arc<Self>, shared: &Shared) {
        let tick = shared.repl.tick;
        let mut stream = &self.stream;
        // Heartbeats carry the epoch and the peer view. They must keep
        // flowing *under load* too — once per tick alongside the record
        // stream — or a follower that bootstrapped from a momentarily
        // thin view would never learn who else to canvass when the
        // primary dies.
        let mut last_hb = Instant::now();
        loop {
            let frame = {
                let mut queue = self.queue.lock().expect("queue lock");
                loop {
                    if self.closed.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(frame) = queue.pop_front() {
                        break Some(frame);
                    }
                    if self.draining.load(Ordering::SeqCst) {
                        return; // queue flushed; the broker is draining
                    }
                    if last_hb.elapsed() >= tick {
                        break None; // fall through to the heartbeat send
                    }
                    let (guard, _) = self.qcv.wait_timeout(queue, tick).expect("queue lock");
                    queue = guard;
                }
            };
            let frame = match frame {
                Some(frame) => frame,
                None => {
                    let hb = Json::obj()
                        .with("hb", self.sent_seq.load(Ordering::SeqCst))
                        .with("epoch", shared.repl.epoch.load(Ordering::SeqCst))
                        .with("peers", cluster_view(shared));
                    last_hb = Instant::now();
                    match encode_frame(&hb) {
                        Ok(frame) => frame,
                        Err(_) => continue,
                    }
                }
            };
            if std::io::Write::write_all(&mut stream, &frame).is_err() {
                self.closed.store(true, Ordering::SeqCst);
                return;
            }
            if last_hb.elapsed() >= tick {
                let hb = Json::obj()
                    .with("hb", self.sent_seq.load(Ordering::SeqCst))
                    .with("epoch", shared.repl.epoch.load(Ordering::SeqCst))
                    .with("peers", cluster_view(shared));
                last_hb = Instant::now();
                if let Ok(frame) = encode_frame(&hb) {
                    if std::io::Write::write_all(&mut stream, &frame).is_err() {
                        self.closed.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
        }
    }
}

/// Replication state shared by every connection thread of a broker.
pub(crate) struct Replication {
    /// Primary or follower; flipped (once) by `promote`.
    pub(crate) role: std::sync::RwLock<Role>,
    pub(crate) ack_mode: AckMode,
    /// Total voting nodes the operator configured, primary included.
    pub(crate) cluster_size: usize,
    /// How long a quorum-mode mutation waits for follower acks.
    pub(crate) ack_timeout: Duration,
    /// Follower redial backoff.
    pub(crate) follow_retry: Duration,
    /// Heartbeat interval; followers treat `4 * tick` of silence as a
    /// dead upstream and redial.
    pub(crate) tick: Duration,
    /// Connected followers (primary side). Also the condvar anchor for
    /// quorum waits.
    pub(crate) followers: Mutex<Vec<Arc<FollowerConn>>>,
    ack_cv: Condvar,
    /// Highest journal sequence applied on this node.
    pub(crate) applied_seq: AtomicU64,
    /// Highest sequence known quorum-acknowledged; monotone.
    pub(crate) committed_seq: AtomicU64,
    /// Cluster epoch: set to the winning term by every promotion
    /// (elected or manual) and adopted from higher-epoch primaries.
    /// Fencing key: a primary that sees a higher epoch is stale and
    /// demotes itself.
    pub(crate) epoch: AtomicU64,
    /// Highest election term this node has participated in (as
    /// candidate or voter); monotone, always `>= epoch`.
    pub(crate) term: AtomicU64,
    /// `(term, node)` of the last granted vote — one vote per term.
    voted: Mutex<(u64, String)>,
    /// Auto-elect on upstream loss, or wait for the operator.
    pub(crate) election: ElectionMode,
    /// Base of the randomized candidacy delay: after detecting primary
    /// loss a follower waits a seeded random `0..election_timeout`
    /// before canvassing votes, so simultaneous detectors converge.
    pub(crate) election_timeout: Duration,
    /// Seeded randomness for candidacy delays (per-node, so two nodes
    /// with the same config seed still diverge via their advertise
    /// address).
    election_rng: Mutex<StdRng>,
    election_seed: u64,
    /// This node's address as peers should dial it (the bound address
    /// unless the config overrides it).
    advertise: Mutex<String>,
    /// Known peer addresses → consecutive probe failures. Grown from
    /// `replicate` handshakes, votes, and heartbeat peer views (always
    /// merged, never replaced); shrunk only by announce/canvass
    /// failures.
    peers: Mutex<BTreeMap<String, u32>>,
    /// Serializes role transitions (promotion, demotion, re-point) so
    /// an election win, a manual `promote`, and an `announce` adoption
    /// can never interleave.
    transition: Mutex<()>,
    /// Last instant a frame arrived from the upstream; a follower whose
    /// upstream spoke within `4 × tick` denies votes (leader
    /// stickiness — a flaky candidate cannot depose a live primary).
    last_upstream_ok: Mutex<Option<Instant>>,
    /// At most one announcer thread per broker.
    announcer_spawned: AtomicBool,
    /// Bumped to stop the pull loop (promotion, re-point, shutdown);
    /// a pure thread-generation counter, unrelated to the cluster
    /// epoch.
    puller_gen: AtomicU64,
    /// The live upstream connection, severed on promote/shutdown.
    upstream_conn: Mutex<Option<TcpStream>>,
    /// The pull-loop thread, joined on promote/shutdown.
    puller: Mutex<Option<JoinHandle<()>>>,
}

impl Replication {
    pub(crate) fn new(config: &BrokerConfig) -> Self {
        let role = match &config.follow {
            Some(upstream) => Role::Follower {
                upstream: upstream.clone(),
            },
            None => Role::Primary,
        };
        Replication {
            role: std::sync::RwLock::new(role),
            ack_mode: config.ack,
            cluster_size: config.cluster_size.max(1),
            ack_timeout: config.ack_timeout,
            follow_retry: config.follow_retry,
            tick: config.replication_tick,
            followers: Mutex::new(Vec::new()),
            ack_cv: Condvar::new(),
            applied_seq: AtomicU64::new(0),
            committed_seq: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            term: AtomicU64::new(0),
            voted: Mutex::new((0, String::new())),
            election: config.election,
            election_timeout: config.election_timeout.max(Duration::from_millis(1)),
            election_rng: Mutex::new(StdRng::seed_from_u64(config.election_seed)),
            election_seed: config.election_seed,
            advertise: Mutex::new(String::new()),
            peers: Mutex::new(BTreeMap::new()),
            transition: Mutex::new(()),
            last_upstream_ok: Mutex::new(None),
            announcer_spawned: AtomicBool::new(false),
            puller_gen: AtomicU64::new(0),
            upstream_conn: Mutex::new(None),
            puller: Mutex::new(None),
        }
    }

    /// Fixes this node's advertised address (known only after bind) and
    /// derives its per-node election randomness from it, so a cluster
    /// sharing one config seed still gets divergent candidacy delays.
    pub(crate) fn set_advertise(&self, addr: String) {
        *self.election_rng.lock().expect("rng lock") =
            StdRng::seed_from_u64(self.election_seed ^ fnv1a(&addr));
        *self.advertise.lock().expect("advertise lock") = addr;
    }

    pub(crate) fn advertise(&self) -> String {
        self.advertise.lock().expect("advertise lock").clone()
    }

    /// Remembers a peer address (a follower's advertise, a candidate's
    /// node id) for announcing and canvassing. Never records self.
    pub(crate) fn note_peer(&self, addr: &str) {
        if addr.is_empty() || addr == self.advertise() {
            return;
        }
        self.peers
            .lock()
            .expect("peers lock")
            .entry(addr.to_owned())
            .or_insert(0);
    }

    /// Merges the primary's peer view (minus self) into the known set.
    /// A merge — never a replacement — because a view legitimately
    /// thins while a node is down, and adopting that thin view would
    /// forget the rejoining node exactly when the next failure needs
    /// it: two survivors each knowing only a dead primary can never
    /// elect. Surplus stale addresses are garbage-collected by the
    /// probe paths instead ([`Replication::peer_failed`] after enough
    /// consecutive announce or canvass failures, never below a full
    /// cluster's worth).
    fn merge_peers(&self, view: &[Json]) {
        let me = self.advertise();
        let mut peers = self.peers.lock().expect("peers lock");
        for addr in view.iter().filter_map(Json::as_str) {
            if !addr.is_empty() && addr != me {
                peers.entry(addr.to_owned()).or_insert(0);
            }
        }
    }

    /// A probe (announce, canvass) reached `addr`: reset its failure
    /// count.
    fn peer_ok(&self, addr: &str) {
        if let Some(fails) = self.peers.lock().expect("peers lock").get_mut(addr) {
            *fails = 0;
        }
    }

    /// A probe could not reach `addr`; after enough consecutive
    /// failures the address is dropped — but never below the
    /// `cluster_size - 1` entries a full cluster needs. A crashed node
    /// that will restart at the same address must stay known however
    /// long it is down (forgetting it can wedge the next election);
    /// only *surplus* addresses — nodes that rejoined somewhere else —
    /// are garbage, and only they are collected.
    fn peer_failed(&self, addr: &str) {
        let mut peers = self.peers.lock().expect("peers lock");
        if let Some(fails) = peers.get_mut(addr) {
            *fails += 1;
            if *fails > PEER_PRUNE_FAILURES && peers.len() > self.cluster_size.saturating_sub(1) {
                peers.remove(addr);
            }
        }
    }

    /// The peer addresses to canvass or announce to, excluding self.
    pub(crate) fn peer_list(&self) -> Vec<String> {
        let me = self.advertise();
        self.peers
            .lock()
            .expect("peers lock")
            .keys()
            .filter(|a| **a != me)
            .cloned()
            .collect()
    }

    /// Votes (own included) a candidate needs: a strict majority of the
    /// configured cluster.
    pub(crate) fn majority(&self) -> usize {
        self.cluster_size / 2 + 1
    }

    /// Whether the upstream spoke recently enough that this follower
    /// should refuse to help depose it.
    fn upstream_healthy(&self) -> bool {
        if self.is_primary() {
            return false;
        }
        self.last_upstream_ok
            .lock()
            .expect("upstream-ok lock")
            .is_some_and(|t| t.elapsed() < self.tick * 4)
    }

    fn touch_upstream(&self) {
        *self.last_upstream_ok.lock().expect("upstream-ok lock") = Some(Instant::now());
    }

    fn last_contact(&self) -> Option<Instant> {
        *self.last_upstream_ok.lock().expect("upstream-ok lock")
    }

    /// Adopts a higher epoch observed on the wire (handshake,
    /// heartbeat); returns whether anything changed.
    fn adopt_epoch(&self, epoch: u64) -> bool {
        let prev = self.epoch.fetch_max(epoch, Ordering::SeqCst);
        self.term.fetch_max(epoch, Ordering::SeqCst);
        prev < epoch
    }

    pub(crate) fn is_primary(&self) -> bool {
        matches!(*self.role.read().expect("role lock"), Role::Primary)
    }

    /// The upstream address while a follower; `None` once primary.
    pub(crate) fn upstream(&self) -> Option<String> {
        match &*self.role.read().expect("role lock") {
            Role::Primary => None,
            Role::Follower { upstream } => Some(upstream.clone()),
        }
    }

    /// Follower acknowledgements a quorum needs besides the primary's
    /// own fsync: a majority of `cluster_size` voters.
    pub(crate) fn needed_acks(&self) -> usize {
        self.cluster_size / 2
    }

    /// Fans one encoded record frame out to every live follower queue.
    /// The caller holds the WAL lock, which makes broadcast order
    /// exactly journal order.
    pub(crate) fn broadcast(&self, seq: u64, frame: &[u8], metrics: &Metrics) {
        let followers = self.followers.lock().expect("followers lock");
        if followers.is_empty() {
            return;
        }
        metrics.records_shipped.fetch_add(1, Ordering::Relaxed);
        for follower in followers.iter() {
            if !follower.closed.load(Ordering::SeqCst) {
                follower.enqueue(seq, frame);
            }
        }
    }

    /// Records a follower's acknowledgement: advances its acked mark,
    /// observes ship→ack latency, refreshes `committed_seq`, and wakes
    /// quorum waiters.
    fn note_ack(&self, follower: &FollowerConn, seq: u64, metrics: &Metrics) {
        follower.acked_seq.fetch_max(seq, Ordering::SeqCst);
        {
            let mut inflight = follower.inflight.lock().expect("inflight lock");
            while inflight.front().is_some_and(|&(s, _)| s <= seq) {
                let (_, shipped) = inflight.pop_front().expect("non-empty");
                metrics.observe_replication(shipped.elapsed());
            }
        }
        let followers = self.followers.lock().expect("followers lock");
        let acked: Vec<u64> = followers
            .iter()
            .filter(|f| !f.closed.load(Ordering::SeqCst))
            .map(|f| f.acked_seq.load(Ordering::SeqCst))
            .collect();
        if let Some(committed) = committed_from(acked, self.needed_acks()) {
            self.committed_seq.fetch_max(committed, Ordering::SeqCst);
        }
        self.ack_cv.notify_all();
    }

    /// Blocks until `seq` is quorum-acknowledged, the timeout passes,
    /// or the broker drains. Called with no locks held (the mutation's
    /// state write guard excepted).
    pub(crate) fn wait_quorum(&self, seq: u64, shutting_down: &AtomicBool) -> bool {
        if self.needed_acks() == 0 {
            self.committed_seq.fetch_max(seq, Ordering::SeqCst);
            return true;
        }
        let deadline = Instant::now() + self.ack_timeout;
        let mut followers = self.followers.lock().expect("followers lock");
        loop {
            if self.committed_seq.load(Ordering::SeqCst) >= seq {
                return true;
            }
            if shutting_down.load(Ordering::SeqCst) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .ack_cv
                .wait_timeout(followers, deadline - now)
                .expect("followers lock");
            followers = guard;
        }
    }

    fn unregister(&self, follower: &Arc<FollowerConn>) {
        let mut followers = self.followers.lock().expect("followers lock");
        followers.retain(|f| !Arc::ptr_eq(f, follower));
        self.ack_cv.notify_all();
    }

    /// Marks every follower queue as draining (flush, then stop) and
    /// wakes quorum waiters; part of graceful shutdown.
    pub(crate) fn drain_followers(&self) {
        let followers = self.followers.lock().expect("followers lock");
        for follower in followers.iter() {
            follower.draining.store(true, Ordering::SeqCst);
            follower.qcv.notify_all();
        }
        self.ack_cv.notify_all();
    }
}

/// The sequence number acknowledged by at least `needed` followers:
/// the `needed`-th largest element, or `None` when `needed == 0` or too
/// few followers are connected.
fn committed_from(mut acked: Vec<u64>, needed: usize) -> Option<u64> {
    if needed == 0 || acked.len() < needed {
        return None;
    }
    acked.sort_unstable_by(|a, b| b.cmp(a));
    Some(acked[needed - 1])
}

/// The `not_primary` error for a mutation (or `replicate`) reaching a
/// follower, carrying the upstream address as a redirect hint.
pub(crate) fn not_primary(shared: &Shared) -> Json {
    let mut reply = proto::error("not_primary", "this broker is a follower");
    if let Some(upstream) = shared.repl.upstream() {
        reply.set("primary", upstream);
    }
    reply
}

/// Every cluster address this node knows: itself, every live
/// registered follower, and the accumulated peer set — the view
/// heartbeats carry and the replication handshake returns. Deliberately
/// a superset of who is *connected*: a node bootstrapping while a
/// third is down must still learn that third address, or it cannot
/// canvass it in the election that follows the next failure.
pub(crate) fn cluster_view(shared: &Shared) -> Vec<Json> {
    let mut view: BTreeSet<String> = BTreeSet::new();
    let me = shared.repl.advertise();
    if !me.is_empty() {
        view.insert(me);
    }
    for f in shared.repl.followers.lock().expect("followers lock").iter() {
        if !f.closed.load(Ordering::SeqCst) {
            if let Some(a) = &f.advertise {
                view.insert(a.clone());
            }
        }
    }
    view.extend(shared.repl.peer_list());
    view.into_iter().map(Json::str).collect()
}

/// Serves one `replicate` request: registers the follower under the
/// snapshotter's lock chain (freezing the journal tip), ships the
/// bootstrap snapshot, then streams records from a writer thread while
/// this thread consumes acks. Returns when the connection dies or the
/// broker drains.
pub(crate) fn serve_replica(stream: &mut TcpStream, request: &Json, shared: &Shared) {
    if !shared.repl.is_primary() {
        let _ = write_frame(stream, &not_primary(shared));
        return;
    }
    // Epoch fencing on the data path: a follower that already saw a
    // newer primary refuses to bootstrap from this one, and telling a
    // deposed primary so (rather than silently serving) lets it heal.
    let my_epoch = shared.repl.epoch.load(Ordering::SeqCst);
    if let Some(e) = request.u64_field("epoch") {
        if e > my_epoch {
            let _ = write_frame(
                stream,
                &proto::error(
                    "stale_epoch",
                    format!("this primary's epoch {my_epoch} is behind the cluster's {e}"),
                )
                .with("epoch", my_epoch),
            );
            return;
        }
    }
    if let Some(advertise) = request.str_field("advertise") {
        shared.repl.note_peer(advertise);
    }
    let Some(d) = shared.durability.as_ref() else {
        let _ = write_frame(
            stream,
            &proto::error(
                "not_durable",
                "replication requires --state-dir on the primary (the journal is the stream)",
            ),
        );
        return;
    };
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_owned());
    let (follower, handshake) = {
        let state = shared.state.read().expect("state lock");
        let dedup = d.dedup.lock().expect("dedup lock");
        let wal = d.wal.lock().expect("wal lock");
        let covered = wal.next_seq().saturating_sub(1);
        let doc = snapshot::render_doc(
            covered,
            &state.repo,
            &state.registry,
            &state.clients,
            &dedup.export(),
        );
        let advertise = request.str_field("advertise").map(str::to_owned);
        let follower = Arc::new(FollowerConn::new(peer, write_half, covered, advertise));
        shared
            .repl
            .followers
            .lock()
            .expect("followers lock")
            .push(Arc::clone(&follower));
        (
            follower,
            proto::ok()
                .with("snapshot", doc)
                .with("seq", covered)
                .with("epoch", my_epoch)
                .with("peers", cluster_view(shared)),
        )
    };
    shared
        .metrics
        .follower_connects
        .fetch_add(1, Ordering::Relaxed);
    if write_frame(stream, &handshake).is_err() {
        shared.repl.unregister(&follower);
        return;
    }
    let Some(shared_arc) = shared.strong() else {
        shared.repl.unregister(&follower);
        return;
    };
    let writer = {
        let follower = Arc::clone(&follower);
        std::thread::spawn(move || follower.writer_loop(&shared_arc))
    };
    while let Ok(Some(frame)) = read_frame(stream) {
        if let Some(seq) = frame.u64_field("ack") {
            shared.repl.note_ack(&follower, seq, &shared.metrics);
        }
    }
    if shared.shutting_down.load(Ordering::SeqCst) {
        // Graceful drain: ship everything already journaled, then stop.
        follower.draining.store(true, Ordering::SeqCst);
    } else {
        follower.closed.store(true, Ordering::SeqCst);
    }
    follower.qcv.notify_all();
    let _ = writer.join();
    let _ = follower.stream.shutdown(Shutdown::Both);
    shared.repl.unregister(&follower);
}

/// Spawns the follower's pull loop: dial the upstream, bootstrap from
/// its snapshot, apply + ack the record stream, redial on any failure.
/// Under `--election auto` a dead upstream additionally triggers a
/// candidacy (see [`run_election`]). Exits when the puller generation
/// is bumped (promotion/re-point) or the broker drains.
pub(crate) fn spawn_puller(shared: &Arc<Shared>, upstream: String) {
    let my_gen = shared.repl.puller_gen.load(Ordering::SeqCst);
    let handle = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || pull_loop(&shared, upstream, my_gen))
    };
    *shared.repl.puller.lock().expect("puller lock") = Some(handle);
}

fn pull_loop(shared: &Arc<Shared>, mut upstream: String, my_gen: u64) {
    shared.repl.note_peer(&upstream);
    let mut first = true;
    // When the outage began: set on the first failed session after a
    // healthy one, cleared on contact. Feeds the detect→elected
    // histogram.
    let mut down_since: Option<Instant> = None;
    while !stopped(shared, my_gen) {
        if !first {
            std::thread::sleep(shared.repl.follow_retry);
        }
        first = false;
        let session_start = Instant::now();
        let _ = pull_once(shared, &mut upstream, my_gen);
        if stopped(shared, my_gen) {
            return;
        }
        let made_contact = shared
            .repl
            .last_contact()
            .is_some_and(|t| t >= session_start);
        if made_contact {
            down_since = None;
        }
        if shared.repl.election == ElectionMode::Auto {
            let detected = *down_since.get_or_insert_with(Instant::now);
            match run_election(shared, my_gen, detected) {
                ElectionOutcome::Won | ElectionOutcome::Stopped => return,
                ElectionOutcome::RePointed(addr) => {
                    upstream = addr;
                    down_since = None;
                }
                // Lost (or no quorum reachable): keep redialling the
                // old upstream; a winner's announce re-points us, a
                // healed upstream resumes the stream, and the next
                // round of this loop runs a fresh candidacy.
                ElectionOutcome::Lost => {}
            }
        }
    }
}

fn stopped(shared: &Shared, my_gen: u64) -> bool {
    shared.shutting_down.load(Ordering::SeqCst)
        || shared.repl.puller_gen.load(Ordering::SeqCst) != my_gen
}

/// One upstream session: connect → handshake → bootstrap → apply/ack
/// until the stream dies. Every error path just returns; the caller
/// redials. A `not_primary` refusal with a redirect hint re-points
/// `upstream` in place — chasing the hint chain is how a freshly
/// (re)started follower finds the primary across past elections.
fn pull_once(shared: &Arc<Shared>, upstream: &mut String, my_gen: u64) -> io::Result<()> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let addr = upstream
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| bad(format!("upstream `{upstream}` does not resolve")))?;
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    let _ = stream.set_nodelay(true);
    // Heartbeats arrive every `tick`; a silent upstream is a dead or
    // partitioned one, and redialling is how a follower heals.
    let _ = stream.set_read_timeout(Some(shared.repl.tick * 4));
    *shared.repl.upstream_conn.lock().expect("upstream lock") = Some(stream.try_clone()?);
    if stopped(shared, my_gen) {
        return Ok(());
    }
    write_frame(
        &mut stream,
        &Json::obj()
            .with("cmd", "replicate")
            .with("from_seq", shared.repl.applied_seq.load(Ordering::SeqCst))
            .with("epoch", shared.repl.epoch.load(Ordering::SeqCst))
            .with("advertise", shared.repl.advertise()),
    )?;
    let handshake = read_frame(&mut stream)?
        .ok_or_else(|| bad("upstream closed before the replication handshake".into()))?;
    if handshake.bool_field("ok") != Some(true) {
        if handshake.str_field("kind") == Some("not_primary") {
            if let Some(hint) = handshake.str_field("primary") {
                let me = shared.repl.advertise();
                if !hint.is_empty() && hint != upstream.as_str() && hint != me {
                    repoint_inline(shared, upstream, hint);
                    return Err(bad(format!("redirected to primary at {hint}")));
                }
            }
        }
        // `busy`, `shutting_down`, `stale_epoch`, … — redial; an
        // election or an announce re-points us if it persists.
        return Err(bad(format!("upstream refused replication: {handshake}")));
    }
    // Epoch fencing before adopting any data: never bootstrap from a
    // primary that is behind the cluster epoch this node already saw.
    if let Some(up_epoch) = handshake.u64_field("epoch") {
        let mine = shared.repl.epoch.load(Ordering::SeqCst);
        if up_epoch < mine {
            return Err(bad(format!(
                "upstream epoch {up_epoch} is stale (cluster is at {mine})"
            )));
        }
        if shared.repl.adopt_epoch(up_epoch) {
            persist_meta(shared);
        }
    }
    if let Some(view) = handshake.get("peers").and_then(Json::as_arr) {
        shared.repl.merge_peers(view);
    }
    let doc = handshake
        .get("snapshot")
        .ok_or_else(|| bad("replication handshake lacks `snapshot`".into()))?;
    bootstrap(shared, doc)?;
    shared.repl.touch_upstream();
    shared
        .metrics
        .bootstraps_received
        .fetch_add(1, Ordering::Relaxed);
    let ack = |stream: &mut TcpStream, seq: u64| write_frame(stream, &Json::obj().with("ack", seq));
    ack(&mut stream, shared.repl.applied_seq.load(Ordering::SeqCst))?;
    loop {
        if stopped(shared, my_gen) {
            return Ok(());
        }
        let frame = match read_frame(&mut stream)? {
            Some(frame) => frame,
            None => return Ok(()), // upstream drained cleanly
        };
        if let Some(record) = frame.get("rec") {
            apply_replicated(shared, record)?;
            shared.repl.touch_upstream();
            ack(&mut stream, shared.repl.applied_seq.load(Ordering::SeqCst))?;
        } else if frame.get("hb").is_some() {
            if let Some(e) = frame.u64_field("epoch") {
                let mine = shared.repl.epoch.load(Ordering::SeqCst);
                if e < mine {
                    return Err(bad(format!(
                        "upstream heartbeat epoch {e} is stale (cluster is at {mine})"
                    )));
                }
                if shared.repl.adopt_epoch(e) {
                    persist_meta(shared);
                }
            }
            if let Some(view) = frame.get("peers").and_then(Json::as_arr) {
                shared.repl.merge_peers(view);
            }
            shared.repl.touch_upstream();
            ack(&mut stream, shared.repl.applied_seq.load(Ordering::SeqCst))?;
        }
    }
}

/// Re-points the pull loop's own upstream in place (redirect chasing,
/// election loss): no thread dance, just the role's upstream field and
/// the loop variable. Handler-side re-points go through
/// [`repoint_locked`] instead.
fn repoint_inline(shared: &Shared, upstream: &mut String, hint: &str) {
    {
        let mut role = shared.repl.role.write().expect("role lock");
        if let Role::Follower { upstream: u } = &mut *role {
            *u = hint.to_owned();
        }
    }
    *upstream = hint.to_owned();
    shared.repl.note_peer(hint);
    shared.metrics.repoints.fetch_add(1, Ordering::Relaxed);
}

/// Replaces this follower's entire state with the primary's bootstrap
/// snapshot. Full replacement — not a diff — is what makes rejoin after
/// divergence correct: whatever this node applied that the primary's
/// journal does not contain is discarded here.
fn bootstrap(shared: &Shared, doc: &Json) -> io::Result<()> {
    let snap = snapshot::parse_doc(doc)?;
    let covered = snap.covered_seq;
    let mut state = shared.state.write().expect("state lock");
    *state = State {
        repo: snap.repository,
        registry: snap.registry,
        clients: snap.clients,
    };
    if let Some(d) = shared.durability.as_ref() {
        let mut dedup = d.dedup.lock().expect("dedup lock");
        dedup.replace(snap.dedup);
        let mut wal = d.wal.lock().expect("wal lock");
        snapshot::write(
            &d.dir,
            covered,
            &state.repo,
            &state.registry,
            &state.clients,
            &dedup.export(),
        )?;
        wal.truncate()?;
        wal.ensure_seq_at_least(covered + 1);
    }
    shared.repl.applied_seq.store(covered, Ordering::SeqCst);
    Ok(())
}

/// Applies one replicated record: re-run the request through the
/// mutation pipeline (as startup replay does), journal it under the
/// primary's sequence number, and record the *primary's* reply in the
/// idempotency window so a client retry answered here matches what the
/// primary said.
fn apply_replicated(shared: &Shared, record: &Json) -> io::Result<()> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    let seq = record
        .u64_field("seq")
        .ok_or_else(|| bad("replicated record lacks `seq`"))?;
    let request = record
        .get("req")
        .ok_or_else(|| bad("replicated record lacks `req`"))?;
    let reply = record
        .get("reply")
        .ok_or_else(|| bad("replicated record lacks `reply`"))?;
    if seq <= shared.repl.applied_seq.load(Ordering::SeqCst) {
        // Straddles the bootstrap boundary (or a primary retransmit):
        // the snapshot already covers it.
        return Ok(());
    }
    let local = handle_request_from(request, shared, Source::Record);
    if local.bool_field("ok") != Some(true) && reply.bool_field("ok") == Some(true) {
        eprintln!("sufs-broker: replicated record {seq} diverged from the primary: {local}");
    }
    if let Some(d) = shared.durability.as_ref() {
        if let Some(id) = request.str_field("req_id") {
            d.dedup
                .lock()
                .expect("dedup lock")
                .insert(id.to_owned(), reply.clone());
        }
        d.wal
            .lock()
            .expect("wal lock")
            .append_at(seq, request, reply)?;
    }
    shared.repl.applied_seq.store(seq, Ordering::SeqCst);
    shared
        .metrics
        .replicated_records
        .fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Stops the pull loop deterministically: bump the generation, sever
/// the upstream socket, join the thread. Used by promotion, re-points,
/// and both shutdown paths (a "killed" node must not keep applying
/// records). Safe to call *from* the pull thread itself (an election
/// win promotes in place): the handle is dropped instead of joined and
/// the loop exits on the bumped generation.
pub(crate) fn stop_puller(shared: &Shared) {
    shared.repl.puller_gen.fetch_add(1, Ordering::SeqCst);
    if let Some(conn) = shared
        .repl
        .upstream_conn
        .lock()
        .expect("upstream lock")
        .take()
    {
        let _ = conn.shutdown(Shutdown::Both);
    }
    let handle = shared.repl.puller.lock().expect("puller lock").take();
    if let Some(handle) = handle {
        if handle.thread().id() == std::thread::current().id() {
            // Joining ourselves would deadlock; the bumped generation
            // already guarantees the loop exits right after the caller
            // returns.
            drop(handle);
        } else {
            let _ = handle.join();
        }
    }
}

/// FNV-1a over the advertise address: a stable per-node perturbation
/// for the election RNG seed.
fn fnv1a(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    hash
}

/// Persists epoch, term, and the last granted vote to the state
/// directory (no-op in-memory). The vote *must* survive a crash inside
/// an election — a restarted node double-voting in the same term could
/// elect two primaries with one epoch.
pub(crate) fn persist_meta(shared: &Shared) {
    let Some(d) = shared.durability.as_ref() else {
        return;
    };
    let repl = &shared.repl;
    // The voted lock also serializes concurrent persists, so the file
    // always holds some thread's consistent view, never a torn merge.
    let voted = repl.voted.lock().expect("voted lock");
    let doc = Json::obj()
        .with("epoch", repl.epoch.load(Ordering::SeqCst))
        .with("term", repl.term.load(Ordering::SeqCst))
        .with("voted_term", voted.0)
        .with("voted_for", voted.1.as_str());
    let tmp = d.dir.join("cluster.meta.tmp");
    if let Ok(mut f) = std::fs::File::create(&tmp) {
        use std::io::Write as _;
        if f.write_all(doc.to_string().as_bytes())
            .and_then(|()| f.sync_all())
            .is_ok()
        {
            let _ = std::fs::rename(&tmp, d.dir.join(META_FILE));
        }
    }
}

/// Loads persisted cluster metadata at startup (if any).
pub(crate) fn load_meta(shared: &Shared) {
    let Some(d) = shared.durability.as_ref() else {
        return;
    };
    let Ok(text) = std::fs::read_to_string(d.dir.join(META_FILE)) else {
        return;
    };
    let Ok(doc) = crate::json::parse(&text) else {
        return;
    };
    let repl = &shared.repl;
    repl.epoch
        .store(doc.u64_field("epoch").unwrap_or(0), Ordering::SeqCst);
    repl.term
        .store(doc.u64_field("term").unwrap_or(0), Ordering::SeqCst);
    *repl.voted.lock().expect("voted lock") = (
        doc.u64_field("voted_term").unwrap_or(0),
        doc.str_field("voted_for").unwrap_or("").to_owned(),
    );
}

/// One request/reply round trip to a peer — votes and announcements.
fn call_peer(addr: &str, request: &Json, timeout: Duration) -> io::Result<Json> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| bad(format!("peer `{addr}` does not resolve")))?;
    let mut stream = TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    write_frame(&mut stream, request)?;
    read_frame(&mut stream)?.ok_or_else(|| bad(format!("peer {addr} closed without replying")))
}

/// Sleeps `dur` in small chunks, bailing early if the pull loop was
/// stopped; returns whether the full sleep completed.
fn sleep_unless_stopped(shared: &Shared, my_gen: u64, dur: Duration) -> bool {
    let deadline = Instant::now() + dur;
    loop {
        if stopped(shared, my_gen) {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
    }
}

/// How one candidacy attempt ended.
enum ElectionOutcome {
    /// This node won and promoted itself in place.
    Won,
    /// Not enough votes (split vote, unreachable quorum); retry later.
    Lost,
    /// A live primary answered the canvass: follow it instead.
    RePointed(String),
    /// The pull loop was stopped (shutdown, or a concurrent transition
    /// already re-pointed this node).
    Stopped,
}

/// One candidacy: wait a seeded random slice of the election timeout
/// (so simultaneous detectors converge instead of splitting every
/// vote), then canvass every known peer with `(term, ballot)` where the
/// ballot is this node's `applied_seq`. A majority of the configured
/// cluster (own vote included) wins and promotes in place.
fn run_election(shared: &Arc<Shared>, my_gen: u64, detected: Instant) -> ElectionOutcome {
    let repl = &shared.repl;
    let span = repl.election_timeout.as_millis().max(1) as u64;
    let delay = {
        let mut rng = repl.election_rng.lock().expect("rng lock");
        rng.gen_range(0..span)
    };
    if !sleep_unless_stopped(shared, my_gen, Duration::from_millis(delay)) {
        return ElectionOutcome::Stopped;
    }
    // An announce may have healed the cluster during the wait.
    if repl.upstream_healthy() {
        return ElectionOutcome::Lost;
    }
    let epoch_at_start = repl.epoch.load(Ordering::SeqCst);
    let term = repl
        .term
        .load(Ordering::SeqCst)
        .max(epoch_at_start)
        .saturating_add(1);
    repl.term.store(term, Ordering::SeqCst);
    let ballot = repl.applied_seq.load(Ordering::SeqCst);
    let me = repl.advertise();
    {
        let mut voted = repl.voted.lock().expect("voted lock");
        *voted = (term, me.clone());
    }
    persist_meta(shared);
    shared
        .metrics
        .elections_started
        .fetch_add(1, Ordering::Relaxed);
    let request = Json::obj()
        .with("cmd", "vote")
        .with("term", term)
        .with("ballot", ballot)
        .with("node", me.as_str())
        .with("epoch", epoch_at_start);
    let mut votes = 1usize; // own ballot
    for peer in repl.peer_list() {
        if stopped(shared, my_gen) {
            return ElectionOutcome::Stopped;
        }
        let Ok(reply) = call_peer(&peer, &request, repl.tick * 4) else {
            repl.peer_failed(&peer);
            continue;
        };
        repl.peer_ok(&peer);
        if reply.bool_field("granted") == Some(true) {
            votes += 1;
            continue;
        }
        let peer_epoch = reply.u64_field("epoch").unwrap_or(0);
        if reply.str_field("role") == Some("primary") && peer_epoch >= epoch_at_start {
            // A live primary is reachable — this was a false alarm (or
            // the cluster already healed). Stand down and follow it.
            return ElectionOutcome::RePointed(peer);
        }
        if let Some(t) = reply.u64_field("term") {
            repl.term.fetch_max(t, Ordering::SeqCst);
        }
    }
    if votes < repl.majority() {
        return ElectionOutcome::Lost;
    }
    // Promote under the transition lock, yielding to any concurrent
    // handler-side transition (which will have bumped our generation).
    loop {
        if stopped(shared, my_gen) {
            return ElectionOutcome::Stopped;
        }
        let Ok(_guard) = repl.transition.try_lock() else {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        if !become_primary_locked(shared, term) {
            // A higher epoch landed while the votes were counted.
            return ElectionOutcome::Lost;
        }
        shared.metrics.elections_won.fetch_add(1, Ordering::Relaxed);
        shared.metrics.observe_election(detected.elapsed());
        eprintln!(
            "sufs-broker: won election for term {term} with {votes}/{} votes at seq {ballot} ({:.1}ms after detecting primary loss)",
            repl.cluster_size,
            detected.elapsed().as_secs_f64() * 1e3,
        );
        return ElectionOutcome::Won;
    }
}

/// Flips this node to primary at `term`, under the caller-held
/// transition lock. Returns `false` (no flip) if the cluster epoch
/// already reached `term` — one-vote-per-term plus this check is what
/// makes "at most one primary per epoch" hold.
fn become_primary_locked(shared: &Shared, term: u64) -> bool {
    let repl = &shared.repl;
    if repl.epoch.load(Ordering::SeqCst) >= term {
        return false;
    }
    stop_puller(shared);
    *repl.role.write().expect("role lock") = Role::Primary;
    repl.epoch.store(term, Ordering::SeqCst);
    repl.term.fetch_max(term, Ordering::SeqCst);
    *repl.last_upstream_ok.lock().expect("upstream-ok lock") = None;
    persist_meta(shared);
    shared.metrics.promotions.fetch_add(1, Ordering::Relaxed);
    shared
        .metrics
        .role_transitions
        .fetch_add(1, Ordering::Relaxed);
    if let Some(arc) = shared.strong() {
        spawn_announcer(&arc);
    }
    true
}

/// Handler-side re-point: stop the current pull loop and start one at
/// `new_upstream`. Caller holds the transition lock.
fn repoint_locked(shared: &Shared, new_upstream: &str) {
    stop_puller(shared);
    *shared.repl.role.write().expect("role lock") = Role::Follower {
        upstream: new_upstream.to_owned(),
    };
    shared.repl.note_peer(new_upstream);
    shared.metrics.repoints.fetch_add(1, Ordering::Relaxed);
    if let Some(arc) = shared.strong() {
        spawn_puller(&arc, new_upstream.to_owned());
    }
}

/// Demotes a stale primary to a follower of `new_primary`. Caller
/// holds the transition lock and has already adopted the new epoch.
/// The fencing half of self-healing: a primary that heals from a
/// partition stops accepting writes the moment it learns of the
/// higher epoch, and its un-replicated tail is discarded by the
/// bootstrap it performs as a follower.
fn demote_locked(shared: &Shared, new_primary: &str) {
    stop_puller(shared); // harmless on a primary; resets the generation
    *shared.repl.role.write().expect("role lock") = Role::Follower {
        upstream: new_primary.to_owned(),
    };
    // Whatever was still following this node belongs to a deposed
    // leadership; sever so those nodes redial and chase the redirect.
    {
        let followers = shared.repl.followers.lock().expect("followers lock");
        for f in followers.iter() {
            f.abandon();
        }
    }
    shared.repl.note_peer(new_primary);
    shared.metrics.demotions.fetch_add(1, Ordering::Relaxed);
    shared
        .metrics
        .role_transitions
        .fetch_add(1, Ordering::Relaxed);
    persist_meta(shared);
    eprintln!(
        "sufs-broker: demoted to follower of {new_primary} (cluster epoch {})",
        shared.repl.epoch.load(Ordering::SeqCst)
    );
    if let Some(arc) = shared.strong() {
        spawn_puller(&arc, new_primary.to_owned());
    }
}

/// Spawns the announcer thread (once per broker): while this node is
/// primary, it periodically announces `(epoch, self)` to every known
/// peer that is not already a registered follower. This is what
/// re-points survivors after a *manual* promotion and what heals a
/// stale primary after a partition — the stale node either receives
/// the announce (and demotes) or answers one with its lower epoch
/// (and is told the truth in the reply).
pub(crate) fn spawn_announcer(shared: &Arc<Shared>) {
    if shared.repl.announcer_spawned.swap(true, Ordering::SeqCst) {
        return;
    }
    let shared = Arc::clone(shared);
    std::thread::spawn(move || loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        if shared.repl.is_primary() {
            announce_round(&shared);
        }
        std::thread::sleep(shared.repl.tick);
    });
}

/// One announcer pass over the peers that do not currently follow us.
fn announce_round(shared: &Arc<Shared>) {
    let repl = &shared.repl;
    let epoch = repl.epoch.load(Ordering::SeqCst);
    let me = repl.advertise();
    let following: BTreeSet<String> = repl
        .followers
        .lock()
        .expect("followers lock")
        .iter()
        .filter(|f| !f.closed.load(Ordering::SeqCst))
        .filter_map(|f| f.advertise.clone())
        .collect();
    let targets: Vec<String> = repl
        .peer_list()
        .into_iter()
        .filter(|p| !following.contains(p))
        .collect();
    let request = Json::obj()
        .with("cmd", "announce")
        .with("epoch", epoch)
        .with("primary", me.as_str());
    for peer in targets {
        if shared.shutting_down.load(Ordering::SeqCst) || !repl.is_primary() {
            return;
        }
        match call_peer(&peer, &request, repl.tick * 4) {
            Ok(reply) => {
                repl.peer_ok(&peer);
                let peer_epoch = reply.u64_field("epoch").unwrap_or(0);
                if reply.bool_field("accepted") != Some(true) && peer_epoch > epoch {
                    // The cluster moved on without us: we are the stale
                    // primary. Demote towards whoever the peer says is
                    // in charge (or the peer itself).
                    let target = reply
                        .str_field("primary")
                        .filter(|p| !p.is_empty() && *p != me)
                        .unwrap_or(&peer)
                        .to_owned();
                    let _guard = repl.transition.lock().expect("transition lock");
                    if repl.is_primary() && repl.epoch.load(Ordering::SeqCst) < peer_epoch {
                        repl.adopt_epoch(peer_epoch);
                        demote_locked(shared, &target);
                    }
                    return;
                }
            }
            Err(_) => repl.peer_failed(&peer),
        }
    }
}

/// The `vote` command: grant or deny a candidate's ballot. Grant rules
/// (all must hold): the candidate's epoch is current, its term is not
/// behind ours, this node is a follower whose upstream has gone
/// silent, its `(ballot, node)` is at least ours — highest replicated
/// prefix wins, node id breaks ties — and this node has not voted for
/// a different candidate in the same term.
pub(crate) fn cmd_vote(request: &Json, shared: &Shared) -> Json {
    let repl = &shared.repl;
    let term = request.u64_field("term").unwrap_or(0);
    let ballot = request.u64_field("ballot").unwrap_or(0);
    let node = request.str_field("node").unwrap_or("").to_owned();
    let cand_epoch = request.u64_field("epoch").unwrap_or(0);
    repl.note_peer(&node);
    let my_epoch = repl.epoch.load(Ordering::SeqCst);
    let base = |granted: bool| {
        let mut reply = proto::ok()
            .with("granted", granted)
            .with("term", repl.term.load(Ordering::SeqCst))
            .with("epoch", my_epoch)
            .with("role", repl.role.read().expect("role lock").name());
        if repl.is_primary() {
            reply.set("primary", repl.advertise());
        } else if let Some(upstream) = repl.upstream() {
            reply.set("primary", upstream);
        }
        reply
    };
    let deny = |reason: &str| base(false).with("reason", reason);
    if repl.is_primary() {
        // Leader stickiness: a live primary never helps depose itself;
        // the candidate sees `role: "primary"` and stands down.
        return deny("primary");
    }
    if cand_epoch < my_epoch {
        return deny("stale_epoch");
    }
    if term < repl.term.load(Ordering::SeqCst) {
        return deny("old_term");
    }
    if repl.upstream_healthy() {
        return deny("upstream_alive");
    }
    let my_applied = repl.applied_seq.load(Ordering::SeqCst);
    let me = repl.advertise();
    if (ballot, node.as_str()) < (my_applied, me.as_str()) {
        // The candidate's replicated prefix is behind ours: electing it
        // could lose a quorum-acked record we hold.
        return deny("ballot_behind");
    }
    {
        let mut voted = repl.voted.lock().expect("voted lock");
        if voted.0 == term && voted.1 != node {
            return deny("already_voted");
        }
        *voted = (term, node.clone());
    }
    repl.term.fetch_max(term, Ordering::SeqCst);
    persist_meta(shared);
    shared.metrics.votes_granted.fetch_add(1, Ordering::Relaxed);
    base(true)
}

/// The `announce` command: a (newly promoted) primary telling this
/// node `(epoch, primary)`. A higher-or-equal epoch is adopted: a
/// follower re-points its stream, a stale primary demotes itself. A
/// lower epoch is refused, and the reply carries this node's epoch and
/// primary so the stale announcer can heal itself.
pub(crate) fn cmd_announce(request: &Json, shared: &Shared) -> Json {
    let repl = &shared.repl;
    let epoch = request.u64_field("epoch").unwrap_or(0);
    let Some(primary) = request
        .str_field("primary")
        .filter(|p| !p.is_empty())
        .map(str::to_owned)
    else {
        return proto::error("bad_request", "announce lacks a `primary` address");
    };
    repl.note_peer(&primary);
    let me = repl.advertise();
    let refuse = |repl: &Replication| {
        let mut reply = proto::ok()
            .with("accepted", false)
            .with("epoch", repl.epoch.load(Ordering::SeqCst))
            .with("role", repl.role.read().expect("role lock").name());
        if repl.is_primary() {
            reply.set("primary", repl.advertise());
        } else if let Some(upstream) = repl.upstream() {
            reply.set("primary", upstream);
        }
        reply
    };
    if epoch < repl.epoch.load(Ordering::SeqCst) {
        return refuse(repl);
    }
    let _guard = repl.transition.lock().expect("transition lock");
    // Re-check under the lock: a concurrent adoption may have advanced
    // the epoch past this announce.
    let mine = repl.epoch.load(Ordering::SeqCst);
    if epoch < mine || (epoch == mine && repl.is_primary() && primary != me) {
        return refuse(repl);
    }
    let epoch_changed = repl.adopt_epoch(epoch);
    let was_primary = repl.is_primary();
    if was_primary && primary != me {
        demote_locked(shared, &primary);
    } else if !was_primary && repl.upstream().as_deref() != Some(primary.as_str()) {
        repoint_locked(shared, &primary);
    } else if epoch_changed {
        persist_meta(shared);
    }
    proto::ok()
        .with("accepted", true)
        .with("epoch", repl.epoch.load(Ordering::SeqCst))
        .with("role", repl.role.read().expect("role lock").name())
}

/// The `promote` command: turn this follower into a primary at a
/// freshly bumped epoch and let the announcer re-point the survivors —
/// no restarts required. Idempotent — promoting a primary is an
/// acknowledged no-op.
pub(crate) fn cmd_promote(shared: &Shared) -> Json {
    let repl = &shared.repl;
    let already = || {
        proto::ok()
            .with("role", "primary")
            .with("changed", false)
            .with("epoch", repl.epoch.load(Ordering::SeqCst))
            .with("applied_seq", repl.applied_seq.load(Ordering::SeqCst))
    };
    if repl.is_primary() {
        return already();
    }
    let _guard = repl.transition.lock().expect("transition lock");
    if repl.is_primary() {
        return already();
    }
    let term = repl
        .term
        .load(Ordering::SeqCst)
        .max(repl.epoch.load(Ordering::SeqCst))
        .saturating_add(1);
    repl.term.store(term, Ordering::SeqCst);
    if !become_primary_locked(shared, term) {
        return proto::error(
            "stale_epoch",
            format!(
                "cluster epoch {} already passed this node's term {term}",
                repl.epoch.load(Ordering::SeqCst)
            ),
        );
    }
    let applied = repl.applied_seq.load(Ordering::SeqCst);
    eprintln!("sufs-broker: promoted to primary at seq {applied} (epoch {term})");
    proto::ok()
        .with("role", "primary")
        .with("changed", true)
        .with("epoch", term)
        .with("applied_seq", applied)
}

/// The `replication` section of the `stats` reply: role, ack mode,
/// sequence marks, and per-follower lag.
pub(crate) fn stats_section(shared: &Shared) -> Json {
    let repl = &shared.repl;
    let followers: Vec<Json> = repl
        .followers
        .lock()
        .expect("followers lock")
        .iter()
        .map(|f| {
            let sent = f.sent_seq.load(Ordering::SeqCst);
            let acked = f.acked_seq.load(Ordering::SeqCst);
            Json::obj()
                .with("peer", f.peer.as_str())
                .with("sent_seq", sent)
                .with("acked_seq", acked)
                .with("lag", sent.saturating_sub(acked))
        })
        .collect();
    let peers: Vec<Json> = repl.peer_list().into_iter().map(Json::str).collect();
    let mut out = Json::obj()
        .with("role", repl.role.read().expect("role lock").name())
        .with("ack_mode", repl.ack_mode.as_str())
        .with("cluster_size", repl.cluster_size)
        .with("epoch", repl.epoch.load(Ordering::SeqCst))
        .with("term", repl.term.load(Ordering::SeqCst))
        .with("election", repl.election.as_str())
        .with("applied_seq", repl.applied_seq.load(Ordering::SeqCst))
        .with("committed_seq", repl.committed_seq.load(Ordering::SeqCst))
        .with("follower_count", followers.len())
        .with("followers", followers)
        .with("peers", peers);
    if let Some(upstream) = repl.upstream() {
        out.set("upstream", upstream);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_mode_parses_both_values_and_rejects_others() {
        assert_eq!(AckMode::parse("local"), Ok(AckMode::Local));
        assert_eq!(AckMode::parse("quorum"), Ok(AckMode::Quorum));
        assert!(AckMode::parse("paxos").is_err());
        assert_eq!(AckMode::Quorum.as_str(), "quorum");
    }

    #[test]
    fn committed_seq_is_the_kth_largest_ack() {
        // cluster_size 3 → 1 follower ack suffices: the *largest* ack.
        assert_eq!(committed_from(vec![4, 9], 1), Some(9));
        // cluster_size 5 → 2 follower acks: the 2nd largest.
        assert_eq!(committed_from(vec![4, 9, 7, 2], 2), Some(7));
        // Not enough followers connected yet.
        assert_eq!(committed_from(vec![4], 2), None);
        // Local mode / single-node cluster: quorum is trivial.
        assert_eq!(committed_from(vec![], 0), None);
    }

    #[test]
    fn majority_math_matches_cluster_size() {
        for (cluster, needed) in [(1, 0), (2, 1), (3, 1), (4, 2), (5, 2), (7, 3)] {
            let config = BrokerConfig {
                cluster_size: cluster,
                ..BrokerConfig::default()
            };
            assert_eq!(
                Replication::new(&config).needed_acks(),
                needed,
                "cluster of {cluster}"
            );
        }
    }

    #[test]
    fn election_mode_parses_both_values_and_rejects_others() {
        assert_eq!(ElectionMode::parse("auto"), Ok(ElectionMode::Auto));
        assert_eq!(ElectionMode::parse("manual"), Ok(ElectionMode::Manual));
        assert!(ElectionMode::parse("raft").is_err());
        assert_eq!(ElectionMode::Auto.as_str(), "auto");
        assert_eq!(ElectionMode::Manual.as_str(), "manual");
    }

    #[test]
    fn ballot_ordering_prefers_longer_prefix_then_node_id() {
        // (applied_seq, node) tuples order exactly as the grant rule
        // compares them: prefix first, advertise string as tie-break.
        assert!((5u64, "127.0.0.1:9001") < (6u64, "127.0.0.1:9000"));
        assert!((6u64, "127.0.0.1:9000") < (6u64, "127.0.0.1:9001"));
        assert!((6u64, "127.0.0.1:9001") >= (6u64, "127.0.0.1:9001"));
    }

    #[test]
    fn majority_includes_self_vote() {
        for (cluster, needed) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3)] {
            let config = BrokerConfig {
                cluster_size: cluster,
                ..BrokerConfig::default()
            };
            assert_eq!(Replication::new(&config).majority(), needed);
        }
    }

    #[test]
    fn fnv1a_perturbs_distinct_advertise_addresses() {
        assert_ne!(fnv1a("127.0.0.1:9000"), fnv1a("127.0.0.1:9001"));
        assert_eq!(fnv1a("a"), fnv1a("a"));
    }

    #[test]
    fn role_follows_config() {
        let primary = Replication::new(&BrokerConfig::default());
        assert!(primary.is_primary());
        assert_eq!(primary.upstream(), None);
        let follower = Replication::new(&BrokerConfig {
            follow: Some("127.0.0.1:9".to_owned()),
            ..BrokerConfig::default()
        });
        assert!(!follower.is_primary());
        assert_eq!(follower.upstream(), Some("127.0.0.1:9".to_owned()));
    }
}
