//! Broker nodes, set-up, the closed-loop timed window, probes and the
//! output checks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use sufs_broker::{AckMode, Broker, BrokerClient, BrokerConfig, BrokerHandle, Json};
use sufs_core::{synthesize, SynthesisOptions};
use sufs_hexpr::Hist;
use sufs_lint::Severity;
use sufs_net::Repository;
use sufs_policy::PolicyRegistry;
use sufs_rng::{Rng, SeedableRng, StdRng};

use crate::inputs::{apply, Inputs, Kind, Op};

/// A running broker deployment: one node, or a primary and its
/// followers.
pub struct Node {
    pub primary: BrokerHandle,
    pub followers: Vec<BrokerHandle>,
    dirs: Vec<PathBuf>,
}

impl Node {
    pub fn addr(&self) -> String {
        self.primary.addr().to_string()
    }

    /// Stops every node (followers first, so none redials a drained
    /// primary) and removes their state directories.
    pub fn stop(self) {
        for f in self.followers {
            f.kill();
        }
        self.primary.join();
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Journal records between snapshot compactions on durable nodes.
const SNAPSHOT_EVERY: u64 = 1024;

/// A durable node's configuration; `cluster_size` 3 with quorum acks,
/// or 1 with local acks (the single-node reference the traced run
/// compares against).
fn durable_config(dir: &Path, follow: Option<String>, quorum: bool) -> BrokerConfig {
    BrokerConfig {
        state_dir: Some(dir.to_path_buf()),
        snapshot_every: SNAPSHOT_EVERY,
        follow,
        ack: if quorum {
            AckMode::Quorum
        } else {
            AckMode::Local
        },
        cluster_size: if quorum { 3 } else { 1 },
        ack_timeout: Duration::from_secs(2),
        follow_retry: Duration::from_millis(5),
        replication_tick: Duration::from_millis(100),
        ..BrokerConfig::default()
    }
}

/// Spawns a three-node quorum cluster under `root` and waits until
/// both followers have bootstrapped from the primary.
pub fn spawn_cluster(root: &Path, tag: &str) -> Result<Node, String> {
    let dirs: Vec<PathBuf> = (0..3).map(|i| root.join(format!("{tag}-n{i}"))).collect();
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    let primary = Broker::spawn(durable_config(&dirs[0], None, true)).map_err(|e| e.to_string())?;
    let upstream = primary.addr().to_string();
    let mut followers = Vec::new();
    for dir in &dirs[1..] {
        followers.push(
            Broker::spawn(durable_config(dir, Some(upstream.clone()), true))
                .map_err(|e| e.to_string())?,
        );
    }
    let node = Node {
        primary,
        followers,
        dirs,
    };
    let mut admin = connect(&node.addr())?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = request(&mut admin, &Json::obj().with("cmd", "stats"))?;
        let count = stats
            .get("replication")
            .and_then(|r| r.u64_field("follower_count"))
            .unwrap_or(0);
        if count == 2 {
            return Ok(node);
        }
        if Instant::now() > deadline {
            node.stop();
            return Err("followers never connected".into());
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// A single durable node with local acks under `root`.
pub fn spawn_single(root: &Path, tag: &str) -> Result<Node, String> {
    let dir = root.join(format!("{tag}-n0"));
    let _ = std::fs::remove_dir_all(&dir);
    let primary = Broker::spawn(durable_config(&dir, None, false)).map_err(|e| e.to_string())?;
    Ok(Node {
        primary,
        followers: Vec::new(),
        dirs: vec![dir],
    })
}

/// Spawns the workload's deployment.
fn spawn(inputs: &Inputs, root: &Path, tag: &str) -> Result<Node, String> {
    if inputs.durable {
        return spawn_cluster(root, tag);
    }
    let primary = Broker::spawn(BrokerConfig {
        deny_lint: inputs.gated.then_some(Severity::Error),
        ..BrokerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    Ok(Node {
        primary,
        followers: Vec::new(),
        dirs: Vec::new(),
    })
}

pub fn connect(addr: &str) -> Result<BrokerClient, String> {
    BrokerClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

pub fn request(conn: &mut BrokerClient, req: &Json) -> Result<Json, String> {
    conn.request(req).map_err(|e| e.to_string())
}

/// What in-process synthesis says a client's reply must contain.
pub struct Expected {
    /// Every valid plan, sorted.
    pub valid: Vec<String>,
}

impl Expected {
    /// Checks a `max_valid: 1` reply: its first plan is valid and the
    /// valid total matches.
    pub fn check(&self, reply: &Json) -> bool {
        if reply.bool_field("ok") != Some(true)
            || reply.u64_field("valid_total") != Some(self.valid.len() as u64)
        {
            return false;
        }
        match reply
            .get("valid")
            .and_then(Json::as_arr)
            .and_then(|v| v.first())
        {
            Some(first) => first
                .as_str()
                .is_some_and(|p| self.valid.binary_search(&p.to_owned()).is_ok()),
            None => self.valid.is_empty(),
        }
    }
}

/// Every client's expected reply over `(repo, registry)`.
pub fn expected(clients: &[Hist], repo: &Repository, registry: &PolicyRegistry) -> Vec<Expected> {
    clients
        .iter()
        .map(|c| {
            let opts = SynthesisOptions {
                prune: true,
                ..SynthesisOptions::default()
            };
            let synthesis = synthesize(c, repo, registry, &opts)
                .expect("in-process synthesis of a generated client");
            let mut valid: Vec<String> = synthesis
                .report
                .valid_plans()
                .map(|p| p.to_string())
                .collect();
            valid.sort();
            Expected { valid }
        })
        .collect()
}

/// Checks one reply of the timed window or a probe.
pub fn reply_ok(inputs: &Inputs, op: &Op, reply: &Json, expected: &[Expected]) -> bool {
    match &op.kind {
        Kind::Read(i) => expected[*i].check(reply),
        Kind::Publish { .. } | Kind::Retract { .. } => {
            reply.bool_field("ok") == Some(true)
                && reply.bool_field("changed") != Some(false)
                && (!inputs.durable || reply.bool_field("quorum") == Some(true))
        }
    }
}

/// One timed op as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub conn: u8,
    /// The op's position in its connection's endless cycle (or, for a
    /// probe, its index into [`Inputs::probes`]).
    pub pos: u64,
    pub read: bool,
    /// Send time, in ns since the window opened.
    pub start_ns: u64,
    pub ns: u64,
    /// The reply's in-broker synthesis time (`stats.elapsed_us`), reads only.
    pub elapsed_us: u32,
    /// Product regions the read repaired (`stats.product.patched`).
    pub patched: u16,
}

/// The `conn` of probe samples; their `idx` indexes [`Inputs::probes`].
pub const PROBE_CONN: u8 = u8::MAX;

impl Sample {
    fn new(
        conn: u8,
        pos: usize,
        op: &Op,
        opened: Instant,
        sent: Instant,
        now: Instant,
        reply: &Json,
    ) -> Sample {
        let stats = reply.get("stats");
        Sample {
            conn,
            pos: pos as u64,
            read: op.is_read(),
            start_ns: (sent - opened).as_nanos() as u64,
            ns: (now - sent).as_nanos() as u64,
            elapsed_us: stats.and_then(|s| s.u64_field("elapsed_us")).unwrap_or(0) as u32,
            patched: stats
                .and_then(|s| s.get("product"))
                .and_then(|p| p.u64_field("patched"))
                .unwrap_or(0) as u16,
        }
    }

    /// The op this sample timed.
    pub fn op<'a>(&self, inputs: &'a Inputs) -> &'a Op {
        if self.conn == PROBE_CONN {
            &inputs.probes[self.pos as usize]
        } else {
            let cycle = &inputs.conns[self.conn as usize];
            &cycle[self.pos as usize % cycle.len()]
        }
    }
}

/// A completed set-up: the deployment and replies to check.
pub struct Ready {
    pub node: Node,
    pub seconds: f64,
    /// Set-up replies: the scenario/base-set writes and one cold read
    /// per client, in client order.
    pub writes: Vec<Json>,
    pub reads: Vec<Json>,
}

/// Spawn → topology published → products built / followers caught up.
pub fn setup(inputs: &Inputs, root: &Path, tag: &str) -> Result<Ready, String> {
    let start = Instant::now();
    let node = spawn(inputs, root, tag)?;
    let mut admin = connect(&node.addr())?;
    let mut writes = Vec::new();
    if !inputs.scenario.is_empty() {
        writes.push(request(
            &mut admin,
            &Json::obj()
                .with("cmd", "publish_scenario")
                .with("text", inputs.scenario.as_str()),
        )?);
    }
    for op in &inputs.base {
        writes.push(request(&mut admin, &op.request)?);
    }
    let mut reads = Vec::new();
    if inputs.durable {
        wait_caught_up(&mut admin, Duration::from_secs(10))?;
    } else {
        // The first read of each client builds its product cold.
        for text in &inputs.clients {
            reads.push(request(
                &mut admin,
                &Json::obj()
                    .with("cmd", "plan")
                    .with("client", text.as_str())
                    .with("engine", "compositional")
                    .with("max_valid", 1u64),
            )?);
        }
    }
    Ok(Ready {
        node,
        seconds: start.elapsed().as_secs_f64(),
        writes,
        reads,
    })
}

/// Waits until every follower has acknowledged everything shipped.
pub fn wait_caught_up(admin: &mut BrokerClient, limit: Duration) -> Result<(), String> {
    let deadline = Instant::now() + limit;
    loop {
        let stats = request(admin, &Json::obj().with("cmd", "stats"))?;
        let repl = stats.get("replication");
        let applied = repl.and_then(|r| r.u64_field("applied_seq")).unwrap_or(0);
        let acked: Vec<u64> = repl
            .and_then(|r| r.get("followers"))
            .and_then(Json::as_arr)
            .map(|fs| fs.iter().filter_map(|f| f.u64_field("acked_seq")).collect())
            .unwrap_or_default();
        if acked.len() == 2 && acked.iter().all(|a| *a >= applied) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "followers stuck: applied {applied}, acked {acked:?}"
            ));
        }
        thread::sleep(Duration::from_millis(1));
    }
}

/// Watches every op of a window or probe burst, after its reply and
/// outside its timing (the traced run replays the op's stages here).
pub trait Observer: Send + 'static {
    fn observe(&mut self, op: &Op, sample: &Sample);
}

/// Observes nothing.
impl Observer for () {
    fn observe(&mut self, _: &Op, _: &Sample) {}
}

impl<T: Observer> Observer for Option<T> {
    fn observe(&mut self, op: &Op, sample: &Sample) {
        if let Some(o) = self {
            o.observe(op, sample);
        }
    }
}

/// The outcome of the timed window.
pub struct Window {
    pub samples: Vec<Sample>,
    /// Each connection's cycle position when the window closed.
    pub done: Vec<usize>,
    pub failed: u64,
    pub seconds: f64,
}

/// Runs every connection's op cycle in a closed loop for `seconds`, then
/// lets each connection finish its current cycle, so a window always
/// holds whole cycles (at least one): every window sees the same op mix
/// and leaves the repository as it found it. Each connection starts at
/// its position in `resume` (or at 0), with its own observer.
pub fn window<O: Observer>(
    inputs: &Arc<Inputs>,
    addr: &str,
    expected: &Arc<Vec<Expected>>,
    seconds: f64,
    resume: Option<&[usize]>,
    observers: Vec<O>,
) -> Result<(Window, Vec<O>), String> {
    let n = inputs.conns.len();
    let barrier = Arc::new(Barrier::new(n));
    let mut workers = Vec::new();
    for (c, mut observer) in observers.into_iter().enumerate().take(n) {
        let mut conn = connect(addr)?;
        let inputs = Arc::clone(inputs);
        let expected = Arc::clone(expected);
        let barrier = Arc::clone(&barrier);
        let start = resume.map_or(0, |r| r[c]);
        workers.push(thread::spawn(move || {
            let cycle = &inputs.conns[c];
            let mut samples = Vec::with_capacity(1 << 16);
            let mut failed = 0u64;
            let mut done = start;
            barrier.wait();
            let opened = Instant::now();
            let deadline = opened + Duration::from_secs_f64(seconds);
            let mut now = opened;
            while done == start || now < deadline || !done.is_multiple_of(cycle.len()) {
                let op = &cycle[done % cycle.len()];
                let sent = now;
                let reply = conn.request(&op.request);
                now = Instant::now();
                done += 1;
                let reply = match reply {
                    Ok(r) => r,
                    Err(_) => {
                        failed += 1;
                        continue;
                    }
                };
                if !reply_ok(&inputs, op, &reply, &expected) {
                    failed += 1;
                }
                let sample = Sample::new(c as u8, done - 1, op, opened, sent, now, &reply);
                observer.observe(op, &sample);
                samples.push(sample);
                now = Instant::now();
            }
            (
                samples,
                failed,
                done,
                (now - opened).as_secs_f64(),
                observer,
            )
        }));
    }
    let mut out = Window {
        samples: Vec::new(),
        done: Vec::new(),
        failed: 0,
        seconds: 0.0,
    };
    let mut observers = Vec::new();
    for w in workers {
        let (samples, failed, done, secs, observer) =
            w.join().map_err(|_| "connection thread panicked")?;
        out.samples.extend(samples);
        out.failed += failed;
        out.done.push(done);
        out.seconds = out.seconds.max(secs);
        observers.push(observer);
    }
    Ok((out, observers))
}

/// Issues the probe ops `range` on one connection; returns their
/// samples and the failure count.
pub fn probes(
    inputs: &Inputs,
    addr: &str,
    expected: &[Expected],
    range: std::ops::Range<usize>,
    observer: &mut impl Observer,
) -> Result<(Vec<Sample>, u64), String> {
    let mut conn = connect(addr)?;
    if inputs.durable {
        // Let the slower follower finish applying the window's records.
        wait_caught_up(&mut conn, Duration::from_secs(10))?;
    }
    // A probe read runs against a warm product, like a timed read.
    if let Some(op) = inputs.probes.iter().find(|o| o.is_read()) {
        request(&mut conn, &op.request)?;
    }
    let mut samples = Vec::with_capacity(inputs.probes.len());
    let mut failed = 0;
    let opened = Instant::now();
    for (idx, op) in inputs
        .probes
        .iter()
        .enumerate()
        .skip(range.start)
        .take(range.len())
    {
        let sent = Instant::now();
        let reply = conn.request(&op.request);
        let now = Instant::now();
        match reply {
            Ok(r) => {
                if !reply_ok(inputs, op, &r, expected) {
                    failed += 1;
                }
                let sample = Sample::new(PROBE_CONN, idx, op, opened, sent, now, &r);
                observer.observe(op, &sample);
                samples.push(sample);
            }
            Err(_) => failed += 1,
        }
    }
    Ok((samples, failed))
}

/// The repository after set-up and the executed window ops.
pub fn window_state(inputs: &Inputs, done: &[usize]) -> Repository {
    let (mut repo, _) = inputs.initial_state();
    // Connections touch disjoint locations, so their ops commute.
    for (cycle, &n) in inputs.conns.iter().zip(done) {
        for i in 0..n {
            apply(&mut repo, &cycle[i % cycle.len()]);
        }
    }
    repo
}

/// The broker's `repo` listing as `location → (service, capacity)`.
fn listing(conn: &mut BrokerClient) -> Result<BTreeMap<String, (String, Option<u64>)>, String> {
    let reply = request(conn, &Json::obj().with("cmd", "repo"))?;
    Ok(reply
        .get("services")
        .and_then(Json::as_arr)
        .ok_or("repo reply lacks services")?
        .iter()
        .map(|s| {
            (
                s.str_field("location").unwrap_or_default().to_owned(),
                (
                    s.str_field("service").unwrap_or_default().to_owned(),
                    s.u64_field("capacity"),
                ),
            )
        })
        .collect())
}

/// The same listing rendered from an in-process repository.
fn mirror_listing(repo: &Repository) -> BTreeMap<String, (String, Option<u64>)> {
    repo.iter()
        .map(|(loc, s)| {
            (
                loc.to_string(),
                (
                    s.to_string(),
                    repo.capacity(loc).flatten().map(|c| c as u64),
                ),
            )
        })
        .collect()
}

/// Post-window checks: the primary holds exactly the mirrored state,
/// followers hold what the primary holds, and a seeded sample of
/// clients still reads what in-process synthesis says. Returns the
/// number of checks made and how many failed.
pub fn final_checks(
    inputs: &Inputs,
    node: &Node,
    repo: &Repository,
    registry: &PolicyRegistry,
    clients: &[Hist],
) -> Result<(u64, u64, Vec<String>), String> {
    let mut admin = connect(&node.addr())?;
    let mut made = 0;
    let mut problems = Vec::new();
    let primary = listing(&mut admin)?;
    made += 1;
    if primary != mirror_listing(repo) {
        problems.push("primary repository differs from the mirrored op sequence".to_owned());
    }
    if !node.followers.is_empty() {
        wait_caught_up(&mut admin, Duration::from_secs(10))?;
    }
    for f in &node.followers {
        made += 1;
        let mut conn = connect(&f.addr().to_string())?;
        if listing(&mut conn)? != primary {
            problems.push(format!(
                "follower {} repository differs from the primary's",
                f.addr()
            ));
        }
    }
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x636865636b);
    let sample: Vec<usize> = (0..4.min(clients.len()))
        .map(|_| rng.gen_range(0..clients.len()))
        .collect();
    let picked: Vec<Hist> = sample.iter().map(|&i| clients[i].clone()).collect();
    let fresh = expected(&picked, repo, registry);
    for (k, &i) in sample.iter().enumerate() {
        made += 1;
        let reply = request(
            &mut admin,
            &Json::obj()
                .with("cmd", "plan")
                .with("client", inputs.clients[i].as_str())
                .with("engine", "compositional")
                .with("max_valid", 1u64),
        )?;
        if !fresh[k].check(&reply) {
            problems.push(format!(
                "client {i} diverged from in-process synthesis after the window"
            ));
        }
    }
    Ok((made, problems.len() as u64, problems))
}
