//! The record/replay conformance executor.
//!
//! `replay_path` loads one `.sufsrun` file (or every `*.sufsrun` in a
//! directory), executes each file's steps against its scenario, and
//! compares the canonicalized output of every step to the committed
//! golden transcript — byte for byte. In `--record` mode mismatching
//! transcripts are rewritten instead of failed, turning the same code
//! path into the golden-file recorder.
//!
//! Two properties make the harness a standing differential gate:
//!
//! * **Engine conformance.** Every `plan` step synthesizes with *both*
//!   the enumerative and the compositional engine and fails on any
//!   difference in the valid-plan set — before even looking at the
//!   golden transcript. The transcripts themselves canonicalize to the
//!   valid plans only (count plus one `✓` line per plan, in report
//!   order), because that is the surface the engines contract to agree
//!   on: the compositional product prunes refuted subtrees, so full
//!   verdict lists are engine-specific by design.
//! * **Leg conformance.** `broker_plan` steps replay the same query
//!   against a live broker (spawned lazily, one per run file, on an
//!   ephemeral port), which answers from its composed product, and
//!   require the remote answer to be byte-identical to the last
//!   in-process `plan` transcript for the same client.
//!
//! Runtime steps (`run`, `broker_run`) are seeded and use committed
//! choices, so their `BatchSummary` counters are a pure function of
//! the run file — fault schedules included.
//!
//! Run files containing failover steps (`broker_kill`,
//! `broker_promote`) get a two-node durable cluster instead of the
//! single in-process broker: a quorum-ack primary plus a live
//! follower, each journaling into its own scratch directory.
//! `broker_kill` waits for replication to drain and then fail-stops
//! the primary, so every later step replays against the promoted
//! survivor — the transcript *is* the proof that failover loses
//! nothing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sufs_broker::{AckMode, Broker, BrokerClient, BrokerConfig, Json};
use sufs_core::scenario::{parse_scenario, Scenario};
use sufs_core::{synthesize, Engine, SynthesisOptions};
use sufs_hexpr::{Hist, Location};
use sufs_lint::lint_scenario;
use sufs_net::{ChoiceMode, MonitorMode, Network, Scheduler};
use sufs_rng::{SeedableRng, StdRng};

use crate::runfile::{Op, RunFile, Step};

/// How a replay run behaves.
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// Rewrite mismatching transcripts (and write the files back)
    /// instead of failing on them. Expectations are still checked.
    pub record: bool,
    /// Skip broker-leg steps entirely (counted, not failed).
    pub no_broker: bool,
    /// Only replay files whose name contains this substring.
    pub filter: Option<String>,
    /// Worker threads over the file list; 0 or 1 = sequential.
    pub jobs: usize,
}

/// The outcome of replaying one run file.
#[derive(Debug)]
pub struct FileOutcome {
    /// The `.sufsrun` path.
    pub path: PathBuf,
    /// Steps executed (broker steps skipped under `no_broker` are not
    /// counted).
    pub steps: usize,
    /// Broker steps skipped under `no_broker`.
    pub skipped: usize,
    /// Every failure, already formatted (`step 3 (plan): …`).
    pub failures: Vec<String>,
    /// Whether `--record` rewrote the file.
    pub updated: bool,
}

impl FileOutcome {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The aggregated outcome of one replay invocation, sorted by path.
#[derive(Debug, Default)]
pub struct ReplaySummary {
    pub files: Vec<FileOutcome>,
}

impl ReplaySummary {
    pub fn passed(&self) -> usize {
        self.files.iter().filter(|f| f.passed()).count()
    }

    pub fn failed(&self) -> usize {
        self.files.len() - self.passed()
    }

    pub fn steps(&self) -> usize {
        self.files.iter().map(|f| f.steps).sum()
    }

    pub fn updated(&self) -> usize {
        self.files.iter().filter(|f| f.updated).count()
    }

    /// The transcript-diff report CI uploads as an artifact on failure:
    /// one block per failing file listing every step failure verbatim.
    pub fn diff_report(&self) -> String {
        let mut out = String::new();
        for f in self.files.iter().filter(|f| !f.passed()) {
            out.push_str(&format!("== {} ==\n", f.path.display()));
            for failure in &f.failures {
                out.push_str(failure);
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }
}

/// Replays a `.sufsrun` file or every `*.sufsrun` in a directory.
///
/// # Errors
///
/// Returns an error for an unusable path or an empty selection;
/// per-file problems (parse errors, mismatches) are reported as file
/// failures in the summary instead, so one bad file cannot hide the
/// rest of a corpus.
pub fn replay_path(path: &Path, opts: &ReplayOptions) -> Result<ReplaySummary, String> {
    let files = collect_runfiles(path, opts.filter.as_deref())?;
    if files.is_empty() {
        return Err(match &opts.filter {
            Some(f) => format!("no .sufsrun files under {} match `{f}`", path.display()),
            None => format!("no .sufsrun files under {}", path.display()),
        });
    }
    let jobs = opts.jobs.max(1).min(files.len());
    let mut summary = ReplaySummary::default();
    if jobs == 1 {
        for file in &files {
            summary.files.push(replay_file(file, opts));
        }
    } else {
        let next = AtomicUsize::new(0);
        let outcomes: Mutex<Vec<FileOutcome>> = Mutex::new(Vec::with_capacity(files.len()));
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(file) = files.get(i) else { break };
                    let outcome = replay_file(file, opts);
                    outcomes.lock().expect("outcome lock").push(outcome);
                });
            }
        });
        summary.files = outcomes.into_inner().expect("outcome lock");
        summary.files.sort_by(|a, b| a.path.cmp(&b.path));
    }
    Ok(summary)
}

fn collect_runfiles(path: &Path, filter: Option<&str>) -> Result<Vec<PathBuf>, String> {
    let matches = |p: &Path| {
        filter.is_none_or(|f| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(f))
        })
    };
    if path.is_file() {
        return Ok(if matches(path) {
            vec![path.to_path_buf()]
        } else {
            vec![]
        });
    }
    if !path.is_dir() {
        return Err(format!("{}: not a file or directory", path.display()));
    }
    let entries =
        std::fs::read_dir(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let p = entry.map_err(|e| e.to_string())?.path();
        if p.extension().is_some_and(|x| x == "sufsrun") && matches(&p) {
            files.push(p);
        }
    }
    files.sort();
    Ok(files)
}

/// A lazily-started in-process broker: one per run file, so broker
/// steps see exactly this file's published repository and parallel
/// workers never share state.
///
/// Run files with failover steps get a two-node durable cluster
/// instead: a quorum-ack primary plus one live follower. `broker_kill`
/// consumes the primary handle and re-points `client` at the survivor,
/// so every later step transparently replays against it.
struct BrokerSession {
    client: BrokerClient,
    primary: Option<sufs_broker::BrokerHandle>,
    follower: Option<sufs_broker::BrokerHandle>,
    dirs: Vec<PathBuf>,
}

impl BrokerSession {
    fn start(failover: bool) -> Result<BrokerSession, String> {
        if !failover {
            let handle = Broker::spawn(BrokerConfig::default())
                .map_err(|e| format!("cannot spawn broker: {e}"))?;
            let client = BrokerClient::connect(handle.addr())
                .map_err(|e| format!("cannot connect to broker: {e}"))?;
            return Ok(BrokerSession {
                client,
                primary: Some(handle),
                follower: None,
                dirs: Vec::new(),
            });
        }
        // Scratch state dirs must be unique across the parallel file
        // workers of one replay invocation *and* across invocations.
        static SESSION: AtomicUsize = AtomicUsize::new(0);
        let tag = SESSION.fetch_add(1, Ordering::Relaxed);
        let dirs: Vec<PathBuf> = (0..2)
            .map(|i| {
                let mut p = std::env::temp_dir();
                p.push(format!(
                    "sufs-replay-failover-{}-{tag}-n{i}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&p);
                p
            })
            .collect();
        let node = |dir: &Path, follow: Option<String>| BrokerConfig {
            state_dir: Some(dir.to_path_buf()),
            follow,
            ack: AckMode::Quorum,
            cluster_size: 2,
            ack_timeout: Duration::from_secs(2),
            follow_retry: Duration::from_millis(10),
            replication_tick: Duration::from_millis(25),
            ..BrokerConfig::default()
        };
        let primary = Broker::spawn(node(&dirs[0], None))
            .map_err(|e| format!("cannot spawn cluster primary: {e}"))?;
        let follower = Broker::spawn(node(&dirs[1], Some(primary.addr().to_string())))
            .map_err(|e| format!("cannot spawn cluster follower: {e}"))?;
        let client = BrokerClient::connect(primary.addr())
            .map_err(|e| format!("cannot connect to broker: {e}"))?;
        Ok(BrokerSession {
            client,
            primary: Some(primary),
            follower: Some(follower),
            dirs,
        })
    }

    /// Blocks until the follower has acknowledged every record the
    /// primary has sent — the durability precondition that makes
    /// killing the primary a loss-free event.
    fn await_follower_sync(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = self.client.stats().map_err(|e| e.to_string())?;
            let repl = stats.get("replication").cloned().unwrap_or_else(Json::obj);
            let synced = repl
                .get("followers")
                .and_then(Json::as_arr)
                .is_some_and(|fs| {
                    !fs.is_empty() && fs.iter().all(|f| f.u64_field("lag") == Some(0))
                });
            if synced {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err("follower never caught up with the primary".to_owned());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for BrokerSession {
    fn drop(&mut self) {
        let _ = self.client.shutdown();
        if let Some(handle) = self.primary.take() {
            if self.follower.is_some() {
                handle.kill();
            } else {
                handle.wait();
            }
        }
        if let Some(handle) = self.follower.take() {
            handle.kill();
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

struct Ctx {
    scenario: Scenario,
    text: String,
    /// Whether this run file contains failover steps, decided before
    /// the first broker step: the session must start as a cluster.
    failover: bool,
    broker: Option<BrokerSession>,
    /// Last in-process `plan` transcript per client, for the broker-leg
    /// cross-check.
    plans: BTreeMap<String, Vec<String>>,
}

impl Ctx {
    fn client(&self, step: &Step) -> Result<(String, Hist), String> {
        let name = step.client.as_deref().expect("validated at parse");
        match self.scenario.client(name) {
            Some(h) => Ok((name.to_owned(), h.clone())),
            None => Err(format!("scenario has no client `{name}`")),
        }
    }

    fn broker(&mut self) -> Result<&mut BrokerSession, String> {
        if self.broker.is_none() {
            self.broker = Some(BrokerSession::start(self.failover)?);
        }
        Ok(self.broker.as_mut().expect("just set"))
    }
}

fn replay_file(path: &Path, opts: &ReplayOptions) -> FileOutcome {
    let mut outcome = FileOutcome {
        path: path.to_path_buf(),
        steps: 0,
        skipped: 0,
        failures: Vec::new(),
        updated: false,
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            outcome.failures.push(format!("cannot read file: {e}"));
            return outcome;
        }
    };
    let mut file = match RunFile::parse(&text) {
        Ok(f) => f,
        Err(e) => {
            outcome.failures.push(format!("invalid run file: {e}"));
            return outcome;
        }
    };
    let dir = path.parent().unwrap_or(Path::new("."));
    let scenario_path = dir.join(&file.scenario);
    let scenario_text = match std::fs::read_to_string(&scenario_path) {
        Ok(t) => t,
        Err(e) => {
            outcome.failures.push(format!(
                "cannot read scenario {}: {e}",
                scenario_path.display()
            ));
            return outcome;
        }
    };
    let scenario = match parse_scenario(&scenario_text) {
        Ok(sc) => sc,
        Err(e) => {
            outcome.failures.push(format!(
                "scenario {} does not parse: {e}",
                scenario_path.display()
            ));
            return outcome;
        }
    };
    let mut ctx = Ctx {
        scenario,
        text: scenario_text,
        failover: file.steps.iter().any(|s| s.op().is_failover()),
        broker: None,
        plans: BTreeMap::new(),
    };

    let mut dirty = false;
    for (i, step) in file.steps.iter_mut().enumerate() {
        let op = step.op();
        if op.is_broker() && opts.no_broker {
            outcome.skipped += 1;
            continue;
        }
        outcome.steps += 1;
        let label = format!("step {} ({op})", i + 1);
        let (transcript, mut failures) = match execute_step(&mut ctx, step) {
            Ok(r) => r,
            Err(e) => {
                outcome.failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        if transcript != step.transcript {
            if opts.record {
                step.transcript = transcript;
                dirty = true;
            } else {
                failures.push(transcript_diff(&step.transcript, &transcript));
            }
        }
        outcome
            .failures
            .extend(failures.into_iter().map(|f| format!("{label}: {f}")));
    }

    // A failing file is never rewritten, even under `--record`:
    // expectation failures must not overwrite goldens with output the
    // author has not vetted.
    if opts.record && dirty && outcome.failures.is_empty() {
        match std::fs::write(path, file.serialize()) {
            Ok(()) => outcome.updated = true,
            Err(e) => outcome.failures.push(format!("cannot write file: {e}")),
        }
    }
    outcome
}

fn transcript_diff(golden: &[String], actual: &[String]) -> String {
    let mut out = String::from("transcript mismatch");
    out.push_str("\n  golden:");
    for line in golden {
        out.push_str(&format!("\n    | {line}"));
    }
    out.push_str("\n  actual:");
    for line in actual {
        out.push_str(&format!("\n    | {line}"));
    }
    out
}

/// Executes one step: returns the canonical transcript plus any
/// expectation failures. A hard `Err` means the step could not run at
/// all (and recording is impossible).
fn execute_step(ctx: &mut Ctx, step: &Step) -> Result<(Vec<String>, Vec<String>), String> {
    match step.op() {
        Op::Lint => step_lint(ctx, step),
        Op::Plan => step_plan(ctx, step),
        Op::Run => step_run(ctx, step),
        Op::BrokerPublish => step_broker_publish(ctx),
        Op::Wait => step_wait(ctx, step),
        Op::BrokerPlan => step_broker_plan(ctx, step),
        Op::BrokerRun => step_broker_run(ctx, step),
        Op::BrokerKill => step_broker_kill(ctx),
        Op::BrokerPromote => step_broker_promote(ctx),
    }
}

/// The canonical lint transcript: one line per diagnostic (severity,
/// code, position, subject, message — notes and witnesses are
/// presentation, not verdict) plus the severity tally.
pub fn lint_transcript(report: &sufs_lint::LintReport) -> Vec<String> {
    let mut lines: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| {
            format!(
                "{}[{}] {}:{} {}: {}",
                d.severity(),
                d.code,
                d.pos.line,
                d.pos.col,
                d.subject,
                d.message
            )
        })
        .collect();
    lines.push(format!(
        "errors={} warnings={} infos={}",
        report.errors(),
        report.warnings(),
        report.infos()
    ));
    lines
}

fn step_lint(ctx: &Ctx, step: &Step) -> Result<(Vec<String>, Vec<String>), String> {
    let report = lint_scenario(&ctx.scenario).map_err(|e| e.to_string())?;
    let mut failures = Vec::new();
    if let Some(want) = step.expect.errors {
        if report.errors() as u64 != want {
            failures.push(format!(
                "expected {want} error(s), found {}",
                report.errors()
            ));
        }
    }
    if let Some(min) = step.expect.min_errors {
        if (report.errors() as u64) < min {
            failures.push(format!(
                "expected at least {min} error(s), found {}",
                report.errors()
            ));
        }
    }
    Ok((lint_transcript(&report), failures))
}

/// The canonical plan transcript: the valid-plan count plus one `✓`
/// line per valid plan, in report order. Candidate counts and rejected
/// verdicts are deliberately excluded — the compositional engine prunes
/// refuted subtrees, so only the valid set is engine-independent.
pub fn plan_transcript(valid: &[String]) -> Vec<String> {
    let mut lines = vec![format!("valid={}", valid.len())];
    lines.extend(valid.iter().map(|p| format!("✓ {p}")));
    lines
}

fn engine_valid_plans(ctx: &Ctx, client: &Hist, engine: Engine) -> Result<Vec<String>, String> {
    let opts = SynthesisOptions {
        engine,
        ..SynthesisOptions::default()
    };
    let synthesis = synthesize(
        client,
        &ctx.scenario.repository,
        &ctx.scenario.registry,
        &opts,
    )
    .map_err(|e| e.to_string())?;
    Ok(synthesis
        .report
        .valid_plans()
        .map(|p| p.to_string())
        .collect())
}

fn check_valid_expectations(step: &Step, found: usize, failures: &mut Vec<String>) {
    if let Some(want) = step.expect.valid {
        if found as u64 != want {
            failures.push(format!("expected {want} valid plan(s), found {found}"));
        }
    }
    if let Some(min) = step.expect.min_valid {
        if (found as u64) < min {
            failures.push(format!(
                "expected at least {min} valid plan(s), found {found}"
            ));
        }
    }
}

fn step_plan(ctx: &mut Ctx, step: &Step) -> Result<(Vec<String>, Vec<String>), String> {
    let (name, client) = ctx.client(step)?;
    let enumerative = engine_valid_plans(ctx, &client, Engine::Enumerative)?;
    let compositional = engine_valid_plans(ctx, &client, Engine::Compositional)?;
    let transcript = plan_transcript(&enumerative);
    let mut failures = Vec::new();
    if enumerative != compositional {
        failures.push(
            transcript_diff(&transcript, &plan_transcript(&compositional)).replace(
                "transcript mismatch",
                "engine divergence (enumerative vs compositional)",
            ),
        );
    }
    check_valid_expectations(step, enumerative.len(), &mut failures);
    ctx.plans.insert(name, transcript.clone());
    Ok((transcript, failures))
}

fn step_run(ctx: &Ctx, step: &Step) -> Result<(Vec<String>, Vec<String>), String> {
    let (name, client) = ctx.client(step)?;
    let synthesis = synthesize(
        &client,
        &ctx.scenario.repository,
        &ctx.scenario.registry,
        &SynthesisOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let Some(plan) = synthesis.report.valid_plans().next().cloned() else {
        return Err("no valid plan to run".to_owned());
    };
    let choice = if step.committed.unwrap_or(false) {
        ChoiceMode::Committed
    } else {
        ChoiceMode::Angelic
    };
    let mut scheduler = Scheduler::new(
        &ctx.scenario.repository,
        &ctx.scenario.registry,
        MonitorMode::Audit,
        choice,
    );
    if let Some(f) = ctx.scenario.faults.clone() {
        scheduler = scheduler.with_faults(f);
    }
    if step.recover.unwrap_or(false) {
        let table = sufs_core::recovery::recovery_table(
            std::slice::from_ref(&client),
            &ctx.scenario.repository,
            &ctx.scenario.registry,
        )
        .map_err(|e| e.to_string())?;
        scheduler = scheduler.with_recovery(table);
    }
    let mut network = Network::new();
    network.add_client(Location::new(name), client, plan);
    let runs = step.runs.unwrap_or(8) as usize;
    let mut rng = StdRng::seed_from_u64(step.seed.unwrap_or(0));
    let summary = scheduler
        .run_batch(&network, runs, &mut rng, 100_000)
        .map_err(|e| e.to_string())?;
    let transcript = vec![
        summary.to_string(),
        format!(
            "secure={} unfailing={}",
            summary.is_secure(),
            summary.is_unfailing()
        ),
    ];
    let mut failures = Vec::new();
    if let Some(want) = step.expect.secure {
        if summary.is_secure() != want {
            failures.push(format!(
                "expected secure={want}, got {}",
                summary.is_secure()
            ));
        }
    }
    if let Some(want) = step.expect.unfailing {
        if summary.is_unfailing() != want {
            failures.push(format!(
                "expected unfailing={want}, got {}",
                summary.is_unfailing()
            ));
        }
    }
    Ok((transcript, failures))
}

fn check_reply(reply: Json) -> Result<Json, String> {
    if reply.bool_field("ok") == Some(true) {
        Ok(reply)
    } else {
        let kind = reply.str_field("kind").unwrap_or("error");
        let msg = reply.str_field("error").unwrap_or("unknown broker error");
        Err(format!("broker refused ({kind}): {msg}"))
    }
}

fn step_broker_publish(ctx: &mut Ctx) -> Result<(Vec<String>, Vec<String>), String> {
    let text = ctx.text.clone();
    let session = ctx.broker()?;
    let reply = check_reply(
        session
            .client
            .publish_scenario(&text)
            .map_err(|e| e.to_string())?,
    )?;
    // Cache-eviction counts depend on broker history, not the scenario:
    // excluded from the canonical transcript.
    let transcript = vec![format!(
        "services={} policies={}",
        reply.u64_field("services").unwrap_or(0),
        reply.u64_field("policies").unwrap_or(0)
    )];
    Ok((transcript, Vec::new()))
}

fn step_wait(ctx: &mut Ctx, step: &Step) -> Result<(Vec<String>, Vec<String>), String> {
    let target = step.services.expect("validated at parse") as usize;
    let session = ctx.broker()?;
    let mut seen = 0;
    for _ in 0..100 {
        let reply = check_reply(session.client.repo().map_err(|e| e.to_string())?)?;
        seen = reply
            .get("services")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        if seen >= target {
            // The transcript pins the target, not the observed count:
            // a wait-condition's verdict is "reached", never a racy
            // snapshot.
            return Ok((vec![format!("services={target}")], Vec::new()));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Err(format!(
        "wait-condition timed out: broker repository holds {seen} service(s), wanted {target}"
    ))
}

fn step_broker_plan(ctx: &mut Ctx, step: &Step) -> Result<(Vec<String>, Vec<String>), String> {
    let (name, client) = ctx.client(step)?;
    let hist = client.to_string();
    let session = ctx.broker()?;
    let reply = check_reply(session.client.plan(&hist).map_err(|e| e.to_string())?)?;
    let valid: Vec<String> = reply
        .get("valid")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| p.as_str().map(str::to_owned))
        .collect();
    let transcript = plan_transcript(&valid);
    let mut failures = Vec::new();
    if let Some(local) = ctx.plans.get(&name) {
        if *local != transcript {
            failures.push(transcript_diff(local, &transcript).replace(
                "transcript mismatch",
                "broker leg diverged from the in-process plan transcript",
            ));
        }
    }
    let found = transcript.len().saturating_sub(1);
    check_valid_expectations(step, found, &mut failures);
    Ok((transcript, failures))
}

/// Fail-stops the cluster primary. Replication is drained first —
/// killing before the follower has acked everything would test data
/// loss, not failover — and the session's client re-points at the
/// survivor, which still answers reads but refuses mutations until
/// `broker_promote`.
fn step_broker_kill(ctx: &mut Ctx) -> Result<(Vec<String>, Vec<String>), String> {
    let session = ctx.broker()?;
    if session.follower.is_none() {
        return Err("no failover cluster in this session".to_owned());
    }
    if session.primary.is_none() {
        return Err("the primary is already dead".to_owned());
    }
    session.await_follower_sync()?;
    let survivor = session.follower.as_ref().expect("checked above").addr();
    session.primary.take().expect("checked above").kill();
    session.client = BrokerClient::connect(survivor)
        .map_err(|e| format!("cannot connect to the survivor: {e}"))?;
    Ok((vec!["killed=primary survivors=1".to_owned()], Vec::new()))
}

/// Promotes the surviving follower — the explicit operator action of
/// `--election manual`. The transcript pins the post-promotion epoch,
/// so an accidental extra epoch bump anywhere in the promotion path
/// shows up as a golden-file diff.
fn step_broker_promote(ctx: &mut Ctx) -> Result<(Vec<String>, Vec<String>), String> {
    let session = ctx.broker()?;
    if session.primary.is_some() {
        return Err(
            "the primary is still alive; `broker_promote` must follow `broker_kill`".to_owned(),
        );
    }
    let reply = check_reply(session.client.promote().map_err(|e| e.to_string())?)?;
    let transcript = vec![format!(
        "role={} epoch={} changed={}",
        reply.str_field("role").unwrap_or("?"),
        reply.u64_field("epoch").unwrap_or(0),
        reply.bool_field("changed").unwrap_or(false)
    )];
    Ok((transcript, Vec::new()))
}

fn step_broker_run(ctx: &mut Ctx, step: &Step) -> Result<(Vec<String>, Vec<String>), String> {
    let (_, client) = ctx.client(step)?;
    let hist = client.to_string();
    let extra = Json::obj()
        .with("seed", step.seed.unwrap_or(0))
        .with("committed", step.committed.unwrap_or(false));
    let session = ctx.broker()?;
    let reply = session
        .client
        .run(&hist, extra)
        .map_err(|e| e.to_string())?;
    let mut failures = Vec::new();
    if reply.bool_field("ok") == Some(true) {
        if let Some(kind) = &step.expect.error {
            failures.push(format!(
                "expected broker error `{kind}`, but the run succeeded"
            ));
        }
        let transcript = vec![format!(
            "plan={} outcome={} steps={} faults={} violations={}",
            reply.str_field("plan").unwrap_or("?"),
            reply.str_field("outcome").unwrap_or("?"),
            reply.u64_field("steps").unwrap_or(0),
            reply.u64_field("faults").unwrap_or(0),
            reply.u64_field("violations").unwrap_or(0)
        )];
        Ok((transcript, failures))
    } else {
        let kind = reply.str_field("kind").unwrap_or("error").to_owned();
        match &step.expect.error {
            Some(want) if *want == kind => Ok((vec![format!("error={kind}")], failures)),
            _ => Err(format!(
                "broker refused ({kind}): {}",
                reply.str_field("error").unwrap_or("unknown broker error")
            )),
        }
    }
}
