//! The traced run: spans around every timed op, replays of each op's
//! stages through the layers' public functions, and the per-layer
//! metrics built from them and from the broker's `stats` counters.
//!
//! Every op of the traced segment (segment 1 of the timed window, and
//! the probe burst after it) becomes a root span. Right after the op's
//! reply, outside its timing, its stages are replayed on the same inputs
//! against a bench-owned mirror of the broker's state (a repository, a
//! `ProductStore` and `VerifyCache`, a `LintEngine`, a journal); each
//! replayed stage is a child span of its op. A child is not inside its
//! op's interval, so a span's self time is its duration minus its
//! children's summed durations.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};

use sufs_broker::wal::Wal;
use sufs_broker::{json, proto, snapshot, synth_stats_json, Json};
use sufs_contract::{compliant, Contract};
use sufs_core::scenario::parse_scenario;
use sufs_core::{verify_plan, ProductStore, SynthesisOptions, VerifyCache};
use sufs_hexpr::requests::requests;
use sufs_hexpr::{parse_hist, Hist, Location, RequestId};
use sufs_lint::{LintEngine, LintInput};
use sufs_net::Repository;
use sufs_policy::PolicyRegistry;
use sufs_rng::{Rng, SeedableRng, StdRng};

use crate::drive::{self, Node, Sample};
use crate::inputs::{apply, Inputs, Kind, Op};
use crate::{median, percentile, Metrics, Segment, RUN_DIR};

/// Timed ops per connection whose stages are replayed (the first ones
/// of the traced segment).
const REPLAYED_OPS: usize = 1500;
/// Probe ops replayed after them.
const REPLAYED_PROBES: usize = 500;
/// Clients whose cold product build is replayed stage by stage.
const COLD_CLIENTS: usize = 3;
/// Surviving plans per cold client whose verdict is replayed.
const VERDICT_SAMPLE: usize = 48;
/// Writes replayed against a fresh cluster and a fresh single node:
/// more than the 1024 journal records between compactions, so the
/// cluster compacts once.
const QUORUM_REPLAY: usize = 1200;
/// How long followers may take to apply everything shipped.
const CATCH_UP: Duration = Duration::from_secs(10);
/// Fixed-record journal appends of the device probe.
const DISK_PROBE: usize = 200;
/// How far the blocking-path stage p50s plus the residual may stray
/// from the end-to-end p50 (as a share of it). The stages are replays
/// run between live ops, which they slow by evicting the broker's data
/// from the caches; on the shared machine this was tuned on the ratio
/// read 0.86–1.14.
pub const STAGE_SUM_TOLERANCE: f64 = 0.3;

/// The broker counters a run brackets its window with.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    builds: u64,
    patches: u64,
    evictions: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    lint_run: u64,
    lint_reused: u64,
    lint_rejections: u64,
    journal_records: u64,
    snapshots: u64,
    /// Records the followers applied from the stream, summed.
    replicated: u64,
    quorum_timeouts: u64,
    lag: u64,
}

impl Counters {
    /// Reads the primary's `stats`, and the followers' replicated counts.
    pub fn read(node: &Node) -> Result<Counters, String> {
        let mut replicated = 0;
        for f in &node.followers {
            let mut conn = drive::connect(&f.addr().to_string())?;
            let reply = drive::request(&mut conn, &Json::obj().with("cmd", "stats"))?;
            replicated += reply
                .get("stats")
                .and_then(|s| s.get("replication"))
                .and_then(|r| r.u64_field("replicated_records"))
                .unwrap_or(0);
        }
        let mut conn = drive::connect(&node.addr())?;
        let reply = drive::request(&mut conn, &Json::obj().with("cmd", "stats"))?;
        let at = |path: &[&str]| -> u64 {
            let mut v = Some(&reply);
            for key in path {
                v = v.and_then(|j| j.get(key));
            }
            v.and_then(Json::as_u64).unwrap_or(0)
        };
        let lag = reply
            .get("replication")
            .and_then(|r| r.get("followers"))
            .and_then(Json::as_arr)
            .map(|fs| fs.iter().filter_map(|f| f.u64_field("lag")).sum())
            .unwrap_or(0);
        Ok(Counters {
            builds: at(&["products", "builds"]),
            patches: at(&["products", "patches"]),
            evictions: at(&["products", "evictions"]),
            cache_hits: at(&["stats", "cache_hits"]),
            cache_misses: at(&["stats", "cache_misses"]),
            cache_evictions: at(&["stats", "evictions"]),
            lint_run: at(&["stats", "lint", "passes_run"]),
            lint_reused: at(&["stats", "lint", "passes_reused"]),
            lint_rejections: at(&["stats", "lint", "rejections"]),
            journal_records: at(&["stats", "durability", "journal_records"]),
            snapshots: at(&["stats", "durability", "snapshots"]),
            replicated,
            quorum_timeouts: at(&["stats", "replication", "quorum_timeouts"]),
            lag,
        })
    }
}

/// One span: a timed op (no parent) or a replayed stage of one.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store, written out when the run ends.
pub struct Tracer {
    spans: Vec<Span>,
    epoch: Instant,
    /// Failed trace-side checks (the stage-sum check).
    pub problems: Vec<String>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            spans: Vec::new(),
            epoch: Instant::now(),
            problems: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: Option<u64>,
        op: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `f` as a child span of `parent`; returns its result and ns.
    fn stage<T>(
        &mut self,
        parent: u64,
        op: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(Some(parent), op, name, start, end);
        (out, end - start)
    }

    /// Durations (ns) of every span named `name`.
    fn durations(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect();
        v.sort_unstable();
        v
    }

    /// Moves `other`'s spans in, renumbered after this tracer's.
    fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.problems.extend(other.problems);
    }

    /// Self time per layer (the span name up to its first dot), summed
    /// over the spans of the ops `keep` selects.
    fn self_times(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, u64> {
        let mut children: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children.entry(p).or_default() += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| keep(s.op)) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = s
                .ns()
                .saturating_sub(children.get(&s.id).copied().unwrap_or(0));
            *out.entry(layer).or_default() += own;
        }
        out
    }

    fn write_out(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                text,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}

/// Everything the report needs from the run.
pub struct Run<'a> {
    pub inputs: &'a Inputs,
    pub root: &'a Path,
    /// The timed window's segments; segment 1 is the traced one.
    pub segments: &'a [Segment],
    pub before: &'a Counters,
    pub after: &'a Counters,
    pub registry: &'a PolicyRegistry,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p50_us(sorted: &[u64]) -> f64 {
    us(percentile(sorted, 50.0))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The bench-owned mirror of one broker's state.
struct Mirror {
    repo: Repository,
    registry: PolicyRegistry,
    store: ProductStore,
    cache: VerifyCache,
    lint: LintEngine,
    lint_clients: Vec<(String, Hist)>,
    wal: Wal,
}

impl Mirror {
    /// The set-up state, with a journal at `wal`.
    fn new(inputs: &Inputs, registry: &PolicyRegistry, wal: &Path) -> Result<Mirror, String> {
        let (repo, _) = inputs.initial_state();
        let lint_clients = if inputs.scenario.is_empty() {
            Vec::new()
        } else {
            parse_scenario(&inputs.scenario)
                .map_err(|e| e.to_string())?
                .clients
        };
        let (wal, _, _) = Wal::open(wal).map_err(|e| e.to_string())?;
        Ok(Mirror {
            repo,
            registry: registry.clone(),
            store: ProductStore::new(),
            cache: VerifyCache::new(),
            lint: LintEngine::new(),
            lint_clients,
            wal,
        })
    }
}

/// Replays each op of the traced segment right after it, on a mirror of
/// the broker's state: one per connection.
pub struct Replayer {
    tracer: Tracer,
    mirror: Mirror,
    clients: Vec<Hist>,
    opts: SynthesisOptions,
    /// Op ids are `conn << 32 | n`.
    conn: u64,
    seen: u64,
    ops_left: usize,
    probes_left: usize,
    replayed: HashSet<u64>,
    /// `(round trip, reply elapsed, stages)` of replayed reads.
    reads: Vec<(u64, u64, Replayed)>,
    /// `(round trip, stages)` of replayed writes.
    writes: Vec<(u64, Replayed)>,
    problems: Vec<String>,
}

/// One warm replayer per connection, its mirror in the state set-up and
/// the warm-up cycle left the broker in (products, verification cache,
/// lint analyses).
pub fn replayers(
    inputs: &Inputs,
    registry: &PolicyRegistry,
    root: &Path,
    n: usize,
) -> Result<Vec<Replayer>, String> {
    let clients = inputs.parsed_clients();
    let opts = SynthesisOptions::default();
    (0..n)
        .map(|c| {
            let mut m = Mirror::new(inputs, registry, &root.join(format!("trace{c}.wal")))?;
            m.lint
                .refresh(LintInput::new(&m.lint_clients, &m.repo, &m.registry))
                .map_err(|e| format!("lint: {e}"))?;
            for client in &clients {
                m.store
                    .read_valid(client, &m.repo, &m.registry, &opts, Some(&m.cache), 1)
                    .map_err(|e| e.to_string())?;
            }
            let mut discarded = Tracer::default();
            for op in &inputs.conns[c] {
                replay_op(&mut discarded, &mut m, 0, 0, op, &clients, &opts)?;
            }
            Ok(Replayer {
                tracer: Tracer::default(),
                mirror: m,
                clients: clients.clone(),
                opts: opts.clone(),
                conn: c as u64,
                seen: 0,
                ops_left: REPLAYED_OPS,
                probes_left: REPLAYED_PROBES,
                replayed: HashSet::new(),
                reads: Vec::new(),
                writes: Vec::new(),
                problems: Vec::new(),
            })
        })
        .collect()
}

impl drive::Observer for Replayer {
    fn observe(&mut self, op: &Op, s: &Sample) {
        let op_id = self.conn << 32 | self.seen;
        self.seen += 1;
        let name = if s.read { "op.read" } else { "op.write" };
        let span = self
            .tracer
            .push(None, op_id, name, s.start_ns, s.start_ns + s.ns);
        let left = if s.conn == drive::PROBE_CONN {
            &mut self.probes_left
        } else {
            &mut self.ops_left
        };
        if *left == 0 {
            return;
        }
        *left -= 1;
        let m = &mut self.mirror;
        match replay_op(
            &mut self.tracer,
            m,
            span,
            op_id,
            op,
            &self.clients,
            &self.opts,
        ) {
            Ok(r) if s.read => self.reads.push((s.ns, u64::from(s.elapsed_us) * 1000, r)),
            Ok(r) => self.writes.push((s.ns, r)),
            Err(e) => self.problems.push(format!("replay: {e}")),
        }
        self.replayed.insert(op_id);
    }
}

/// Builds the per-layer metrics of a traced run from its replayers;
/// returns the trace-side checks that failed.
pub fn report(
    metrics: &mut Metrics,
    run: &Run<'_>,
    replayers: Vec<Replayer>,
) -> Result<Vec<String>, String> {
    let inputs = run.inputs;
    let mut tracer = Tracer::default();
    let mut problems = Vec::new();

    // Cold stages on a fresh mirror: lint over the set-up state, then
    // product builds replayed stage by stage for a few clients.
    let mut m = Mirror::new(inputs, run.registry, &run.root.join("cold.wal"))?;
    let setup_op = u64::MAX;
    let root = tracer.push(None, setup_op, "setup", 0, 0);
    let (cold, lint_ns) = tracer.stage(root, setup_op, "lint.cold", || {
        m.lint
            .refresh(LintInput::new(&m.lint_clients, &m.repo, &m.registry))
    });
    cold.map_err(|e| format!("cold lint: {e}"))?;
    metrics.put("lint.cold_ms", lint_ns as f64 / 1e6, "ms");
    let clients = inputs.parsed_clients();
    cold_builds(&mut tracer, metrics, &m, &clients, inputs)?;
    tracer.spans[root as usize - 1].end_ns = tracer.now();

    let mut reads = Vec::new();
    let mut writes_replayed = Vec::new();
    let mut replayed = HashSet::new();
    for r in replayers {
        tracer.absorb(r.tracer);
        reads.extend(r.reads);
        writes_replayed.extend(r.writes);
        replayed.extend(r.replayed);
        problems.extend(r.problems);
    }
    let (gated, durable) = (inputs.gated, inputs.durable);
    let all: Vec<&Replayed> = reads
        .iter()
        .map(|(_, _, r)| r)
        .chain(writes_replayed.iter().map(|(_, r)| r))
        .collect();
    let col = |rs: &[&Replayed], f: fn(&Replayed) -> u64| -> Vec<u64> {
        let mut v: Vec<u64> = rs.iter().map(|r| f(r)).collect();
        v.sort_unstable();
        v
    };
    metrics.put("json.parse_us", p50_us(&col(&all, |r| r.parse_ns)), "us");
    metrics.put("json.encode_us", p50_us(&col(&all, |r| r.encode_ns)), "us");
    metrics.put("proto.frame_us", p50_us(&col(&all, |r| r.frame_ns)), "us");
    metrics.put("hexpr.parse_us", p50_us(&col(&all, |r| r.hexpr_ns)), "us");
    let read_ops: Vec<&Replayed> = reads.iter().map(|(_, _, r)| r).collect();
    // Round trip minus the broker's own synthesis timer minus the codec
    // and parse stages: transport, dispatch and lock wait.
    let mut residual: Vec<u64> = reads
        .iter()
        .map(|(rt, elapsed, r)| rt.saturating_sub(elapsed + r.codec()))
        .collect();
    residual.sort_unstable();
    metrics.put("server.residual_us", p50_us(&residual), "us");
    let mut write_residual: Vec<u64> = writes_replayed
        .iter()
        .map(|(rt, r)| {
            let blocking =
                r.codec() + if gated { r.lint_ns } else { 0 } + if durable { r.wal_ns } else { 0 };
            rt.saturating_sub(blocking)
        })
        .collect();
    write_residual.sort_unstable();
    metrics.put("server.write_residual_us", p50_us(&write_residual), "us");
    // A workload whose reads never follow a write (or always do) falls
    // back to the patch (read-off) probe of the cold builds.
    for (metric, span, probe) in [
        ("product.read_us", "product.read", "product.read_probe"),
        ("product.patch_us", "product.patch", "product.patch_probe"),
    ] {
        let spans = tracer.durations(span);
        let spans = if spans.is_empty() {
            tracer.durations(probe)
        } else {
            spans
        };
        metrics.put(metric, p50_us(&spans), "us");
    }

    // Stage-sum check on the read path: the blocking-path stage p50s
    // plus the residual against the traced end-to-end read p50.
    let mut live: Vec<u64> = reads.iter().map(|(rt, _, _)| *rt).collect();
    live.sort_unstable();
    if live.is_empty() {
        metrics.put("stage_sum.read_ratio", 0.0, "ratio");
    } else {
        let stages = p50_us(&col(&read_ops, |r| r.encode_ns))
            + p50_us(&col(&read_ops, |r| r.parse_ns))
            + p50_us(&col(&read_ops, |r| r.frame_ns))
            + p50_us(&col(&read_ops, |r| r.hexpr_ns))
            + p50_us(&col(&read_ops, |r| r.product_ns));
        let sum = stages + p50_us(&residual);
        let e2e = p50_us(&live);
        let r = sum / e2e;
        println!(
            "stage sum (reads): encode+parse+frame+hexpr+product {stages:.1} us + residual {:.1} us = {sum:.1} us \
             vs end-to-end p50 {e2e:.1} us over n={} (ratio {r:.3}, tolerance {STAGE_SUM_TOLERANCE})",
            p50_us(&residual),
            live.len()
        );
        metrics.put("stage_sum.read_ratio", r, "ratio");
        if !durable && (r - 1.0).abs() > STAGE_SUM_TOLERANCE {
            tracer.problems.push(format!(
                "read stage sum accounts for {r:.3} of the end-to-end p50"
            ));
        }
    }

    // Counters over the whole timed window.
    let (b, a) = (run.before, run.after);
    let all = run
        .segments
        .iter()
        .flat_map(|s| s.window.samples.iter().chain(&s.probes));
    let writes = all.clone().filter(|s| !s.read).count() as u64;
    let patched: Vec<u64> = all
        .clone()
        .filter(|s| s.patched > 0)
        .map(|s| u64::from(s.patched))
        .collect();
    metrics.put(
        "product.patched_regions",
        ratio(patched.iter().sum(), patched.len() as u64),
        "count",
    );
    metrics.put(
        "product.patches_per_write",
        ratio(a.patches - b.patches, writes),
        "count",
    );
    metrics.put("product.builds", a.builds as f64, "count");
    metrics.put("product.evictions", a.evictions as f64, "count");
    let (hits, misses) = (a.cache_hits - b.cache_hits, a.cache_misses - b.cache_misses);
    metrics.put("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    metrics.put(
        "cache.evictions",
        (a.cache_evictions - b.cache_evictions) as f64,
        "count",
    );
    let lint = tracer.durations("lint.refresh");
    metrics.put("lint.refresh_us", p50_us(&lint), "us");
    let (run_n, reused) = (a.lint_run - b.lint_run, a.lint_reused - b.lint_reused);
    metrics.put("lint.reuse_ratio", ratio(reused, run_n + reused), "ratio");
    metrics.put(
        "lint.rejections",
        (a.lint_rejections - b.lint_rejections) as f64,
        "count",
    );
    metrics.put(
        "wal.append_us",
        p50_us(&tracer.durations("wal.append")),
        "us",
    );
    metrics.put(
        "wal.append_disk_us",
        disk_probe(&mut tracer, run.root)?,
        "us",
    );
    metrics.put(
        "snapshot.write_ms",
        snapshot_probe(&mut tracer, &m, run.root)?,
        "ms",
    );
    durable_replay(&mut tracer, metrics, inputs, run.root)?;

    // Tracing overhead: the traced segment's end-to-end p50 minus the
    // median of the untraced segments', on the window's dominant op kind.
    let traced = &run.segments[1].window.samples;
    let kind_reads = traced.iter().filter(|s| s.read).count() * 2 >= traced.len();
    let p50_of = |samples: &[Sample]| {
        let mut v: Vec<u64> = samples
            .iter()
            .filter(|s| s.read == kind_reads)
            .map(|s| s.ns)
            .collect();
        v.sort_unstable();
        p50_us(&v)
    };
    let mut plain: Vec<f64> = run
        .segments
        .iter()
        .enumerate()
        .filter(|(k, _)| *k != 1)
        .map(|(_, seg)| p50_of(&seg.window.samples))
        .collect();
    metrics.put(
        "trace.overhead_p50_us",
        p50_of(traced) - median(&mut plain),
        "us",
    );

    // Self time per layer, per replayed op.
    let count = replayed.len().max(1) as f64;
    eprintln!("self time per layer (us per replayed op, {count} ops):");
    let own = tracer.self_times(|op| replayed.contains(&op));
    for (layer, name) in [
        ("op", "self.op_us"),
        ("json", "self.json_us"),
        ("proto", "self.proto_us"),
        ("hexpr", "self.hexpr_us"),
        ("product", "self.product_us"),
        ("lint", "self.lint_us"),
        ("wal", "self.wal_us"),
    ] {
        let per_op = us(own.get(layer).copied().unwrap_or(0)) / count;
        eprintln!("  {layer:<10} {per_op:>12.2}");
        metrics.put(name, per_op, "us");
    }

    let dir = Path::new(RUN_DIR).join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.jsonl", inputs.workload, inputs.seed));
    tracer.write_out(&path).map_err(|e| e.to_string())?;
    println!(
        "spans: {} written to {}",
        tracer.spans.len(),
        path.display()
    );
    problems.append(&mut tracer.problems);
    Ok(problems)
}

/// One op's replayed stage times (ns).
#[derive(Default)]
struct Replayed {
    /// JSON encode of the request and of the reply.
    encode_ns: u64,
    /// JSON parse of both.
    parse_ns: u64,
    /// Framing of both, minus the encode and parse inside it.
    frame_ns: u64,
    hexpr_ns: u64,
    product_ns: u64,
    lint_ns: u64,
    wal_ns: u64,
}

impl Replayed {
    /// Codec and parse stages on the op's path.
    fn codec(&self) -> u64 {
        self.encode_ns + self.parse_ns + self.frame_ns + self.hexpr_ns
    }
}

/// Replays one op's stages as child spans of `span`.
fn replay_op(
    tracer: &mut Tracer,
    m: &mut Mirror,
    span: u64,
    op_id: u64,
    op: &Op,
    clients: &[Hist],
    opts: &SynthesisOptions,
) -> Result<Replayed, String> {
    let mut out = Replayed::default();
    let reply = match &op.kind {
        Kind::Read(i) => {
            let text = op.request.str_field("client").unwrap_or_default();
            let (parsed, ns) = tracer.stage(span, op_id, "hexpr.parse", || parse_hist(text));
            parsed.map_err(|e| e.to_string())?;
            out.hexpr_ns = ns;
            let patches = m.store.stats().patches;
            let start = tracer.now();
            let read =
                m.store
                    .read_valid(&clients[*i], &m.repo, &m.registry, opts, Some(&m.cache), 1);
            let end = tracer.now();
            let (valid, total, stats) = read.map_err(|e| e.to_string())?;
            let name = if m.store.stats().patches > patches {
                "product.patch"
            } else {
                "product.read"
            };
            tracer.push(Some(span), op_id, name, start, end);
            out.product_ns = end - start;
            let valid: Vec<Json> = valid.iter().map(|p| Json::str(p.to_string())).collect();
            proto::ok()
                .with("valid", valid)
                .with("valid_total", total)
                .with("stats", synth_stats_json(&stats))
        }
        Kind::Publish { location, .. } | Kind::Retract { location } => {
            if let Kind::Publish { service, .. } = &op.kind {
                let (parsed, ns) = tracer.stage(span, op_id, "hexpr.parse", || parse_hist(service));
                parsed.map_err(|e| e.to_string())?;
                out.hexpr_ns = ns;
            }
            apply(&mut m.repo, op);
            let evicted = m.cache.invalidate_location(&Location::new(location));
            let (lint, ns) = tracer.stage(span, op_id, "lint.refresh", || {
                m.lint
                    .refresh(LintInput::new(&m.lint_clients, &m.repo, &m.registry))
            });
            lint.map_err(|e| format!("lint refresh: {e}"))?;
            out.lint_ns = ns;
            let reply = proto::ok().with("evicted", evicted);
            let (seq, ns) = tracer.stage(span, op_id, "wal.append", || {
                m.wal.append(&op.request, &reply)
            });
            out.wal_ns = ns;
            reply.with("seq", seq.map_err(|e| e.to_string())?)
        }
    };
    // The request crosses client → broker, the reply broker → client;
    // each crossing is one frame encode and one frame read, which
    // contain a JSON encode and parse (replayed as their children).
    for message in [&op.request, &reply] {
        let frame = tracer.push(Some(span), op_id, "proto.frame", 0, 0);
        let start = tracer.now();
        let bytes = proto::encode_frame(message).map_err(|e| e.to_string())?;
        proto::read_frame(&mut Cursor::new(&bytes)).map_err(|e| e.to_string())?;
        let end = tracer.now();
        tracer.spans[frame as usize - 1].start_ns = start;
        tracer.spans[frame as usize - 1].end_ns = end;
        let (text, enc) = tracer.stage(frame, op_id, "json.encode", || message.to_string());
        let (parsed, dec) = tracer.stage(frame, op_id, "json.parse", || json::parse(&text));
        parsed.map_err(|e| e.to_string())?;
        out.encode_ns += enc;
        out.parse_ns += dec;
        out.frame_ns += (end - start).saturating_sub(enc + dec);
    }
    Ok(out)
}

/// Replays cold product builds for a seeded sample of clients: the
/// build itself, the pairwise edge relation (Theorem 1 compliance per
/// `(request, location)`), and a sample of per-plan verdicts.
fn cold_builds(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    m: &Mirror,
    clients: &[Hist],
    inputs: &Inputs,
) -> Result<(), String> {
    let opts = SynthesisOptions::default();
    let seed = inputs.seed;
    let first_write = inputs
        .conns
        .iter()
        .flatten()
        .chain(&inputs.probes)
        .find(|o| !o.is_read());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636f6c64);
    let mut builds = Vec::new();
    let mut edges_ms = Vec::new();
    let (mut admissible, mut total) = (0u64, 0u64);
    let mut surviving = Vec::new();
    for k in 0..COLD_CLIENTS.min(clients.len()) {
        let client = &clients[rng.gen_range(0..clients.len())];
        let op = u64::MAX - 1 - k as u64;
        let root = tracer.push(None, op, "product.build", 0, 0);
        let start = tracer.now();
        tracer.spans[root as usize - 1].start_ns = start;
        let store = ProductStore::new();
        let cache = VerifyCache::new();
        let (built, ns) = tracer.stage(root, op, "product.cold_read", || {
            store.synthesize(client, &m.repo, &m.registry, &opts, Some(&cache))
        });
        let synthesis = built.map_err(|e| e.to_string())?;
        builds.push(ns as f64 / 1e6);
        // The edge relation, recomputed without any cache.
        let mut bodies: BTreeMap<RequestId, Hist> = BTreeMap::new();
        for info in requests(client)
            .into_iter()
            .chain(m.repo.iter().flat_map(|(_, s)| requests(s)))
        {
            bodies.entry(info.id).or_insert(info.body);
        }
        let ((adm, tot), ns) = tracer.stage(root, op, "contract.edges", || {
            let (mut adm, mut tot) = (0u64, 0u64);
            for body in bodies.values() {
                let c = Contract::from_service(body);
                for (_, service) in m.repo.iter() {
                    tot += 1;
                    let ok = match (&c, Contract::from_service(service)) {
                        (Ok(c), Ok(s)) => compliant(c, &s).holds(),
                        _ => true,
                    };
                    adm += u64::from(ok);
                }
            }
            (adm, tot)
        });
        edges_ms.push(ns as f64 / 1e6);
        admissible += adm;
        total += tot;
        // Read-off probe: the same read again, nothing changed.
        let (r, _) = tracer.stage(root, op, "product.read_probe", || {
            store.read_valid(client, &m.repo, &m.registry, &opts, Some(&cache), 1)
        });
        r.map_err(|e| e.to_string())?;
        // Patch probe: the workload's first write, then a read.
        if let Some(write) = first_write {
            let mut repo = m.repo.clone();
            apply(&mut repo, write);
            if let Kind::Publish { location, .. } | Kind::Retract { location } = &write.kind {
                cache.invalidate_location(&Location::new(location));
            }
            let (r, _) = tracer.stage(root, op, "product.patch_probe", || {
                store.read_valid(client, &repo, &m.registry, &opts, Some(&cache), 1)
            });
            r.map_err(|e| e.to_string())?;
        }
        let plans: Vec<_> = synthesis
            .report
            .verdicts()
            .iter()
            .map(|v| v.plan.clone())
            .collect();
        surviving.push(plans.len() as f64);
        for _ in 0..VERDICT_SAMPLE.min(plans.len()) {
            let plan = &plans[rng.gen_range(0..plans.len())];
            let (v, _) = tracer.stage(root, op, "verify.verdict", || {
                verify_plan(client, plan, &m.repo, &m.registry)
            });
            v.map_err(|e| e.to_string())?;
        }
        tracer.spans[root as usize - 1].end_ns = tracer.now();
    }
    metrics.put("product.build_ms", median(&mut builds), "ms");
    metrics.put("contract.edges_ms", median(&mut edges_ms), "ms");
    metrics.put(
        "contract.admissible_ratio",
        ratio(admissible, total),
        "ratio",
    );
    metrics.put(
        "verify.verdict_us",
        p50_us(&tracer.durations("verify.verdict")),
        "us",
    );
    metrics.put("verify.surviving_plans", median(&mut surviving), "count");
    Ok(())
}

/// The device probe: fixed-size record appends to a journal on the
/// filesystem the run's state lives on.
fn disk_probe(tracer: &mut Tracer, root: &Path) -> Result<f64, String> {
    let path = root.join("probe.wal");
    let (mut wal, _, _) = Wal::open(&path).map_err(|e| e.to_string())?;
    let request = Json::obj().with("cmd", "retract").with("location", "probe");
    let reply = proto::ok();
    let root_span = tracer.push(None, u64::MAX - 16, "wal.disk_probe", 0, 0);
    for _ in 0..DISK_PROBE {
        let (r, _) = tracer.stage(root_span, u64::MAX - 16, "wal.append_disk", || {
            wal.append(&request, &reply)
        });
        r.map_err(|e| e.to_string())?;
    }
    let _ = std::fs::remove_file(&path);
    Ok(p50_us(&tracer.durations("wal.append_disk")))
}

/// Median of five snapshot writes of the mirrored final state.
fn snapshot_probe(tracer: &mut Tracer, m: &Mirror, root: &Path) -> Result<f64, String> {
    let dir = root.join("snapshot-probe");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let span = tracer.push(None, u64::MAX - 17, "snapshot.probe", 0, 0);
    let mut ms = Vec::new();
    for _ in 0..5 {
        let (r, ns) = tracer.stage(span, u64::MAX - 17, "snapshot.write", || {
            snapshot::write(&dir, 1, &m.repo, &m.registry, &m.lint_clients, &[])
        });
        r.map_err(|e| e.to_string())?;
        ms.push(ns as f64 / 1e6);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(median(&mut ms))
}

/// The durable write path, replayed on live nodes: one write sequence on
/// a fresh single durable node and on a fresh three-node quorum cluster.
/// `repl.quorum_cost_us` is the difference of their p50s; the journal,
/// snapshot and replication counters are the cluster's across the
/// sequence. The sequence is the first connection's write cycle from its
/// start (or the probe writes), so every write changes state as it did
/// live.
fn durable_replay(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    inputs: &Inputs,
    root: &Path,
) -> Result<(), String> {
    let cycle: Vec<&Op> = inputs.conns[0].iter().filter(|o| !o.is_read()).collect();
    let source = if cycle.is_empty() {
        inputs.probes.iter().filter(|o| !o.is_read()).collect()
    } else {
        cycle
    };
    let writes: Vec<&Op> = source.iter().cycle().take(QUORUM_REPLAY).copied().collect();
    let mut p50 = Vec::new();
    for (tag, cluster) in [("replay-single", false), ("replay-cluster", true)] {
        let node = if cluster {
            drive::spawn_cluster(root, tag)?
        } else {
            drive::spawn_single(root, tag)?
        };
        let mut conn = drive::connect(&node.addr())?;
        if !inputs.scenario.is_empty() {
            drive::request(
                &mut conn,
                &Json::obj()
                    .with("cmd", "publish_scenario")
                    .with("text", inputs.scenario.as_str()),
            )?;
        }
        for op in &inputs.base {
            drive::request(&mut conn, &op.request)?;
        }
        if cluster {
            drive::wait_caught_up(&mut conn, CATCH_UP)?;
        }
        let before = Counters::read(&node)?;
        let mut lat = Vec::new();
        for op in &writes {
            let t = Instant::now();
            let reply = drive::request(&mut conn, &op.request)?;
            lat.push(t.elapsed().as_nanos() as u64);
            if reply.bool_field("ok") != Some(true)
                || (cluster && reply.bool_field("quorum") != Some(true))
            {
                tracer
                    .problems
                    .push(format!("replayed write rejected: {reply}"));
            }
        }
        lat.sort_unstable();
        p50.push(p50_us(&lat));
        if cluster {
            // Lag as the last acknowledged write left it; the other
            // counters once both followers have applied everything.
            let end = Counters::read(&node)?;
            drive::wait_caught_up(&mut conn, CATCH_UP)?;
            let after = Counters::read(&node)?;
            let n = writes.len() as u64;
            metrics.put(
                "wal.records_per_write",
                ratio(after.journal_records - before.journal_records, n),
                "count",
            );
            metrics.put(
                "snapshot.compactions",
                (after.snapshots - before.snapshots) as f64,
                "count",
            );
            metrics.put(
                "repl.shipped_per_write",
                ratio(after.replicated - before.replicated, n),
                "count",
            );
            metrics.put(
                "repl.quorum_timeouts",
                (after.quorum_timeouts - before.quorum_timeouts) as f64,
                "count",
            );
            metrics.put("repl.follower_lag", end.lag as f64, "count");
        }
        drop(conn);
        node.stop();
    }
    metrics.put("repl.quorum_cost_us", p50[1] - p50[0], "us");
    Ok(())
}
