//! Seeded workload inputs: topology, client set and op sequences.
//!
//! Everything the broker sees is generated here from the `--seed`
//! argument, and [`Inputs::digest`] fingerprints all of it, so two runs
//! that print the same digest provably drove the same inputs.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use sufs_broker::Json;
use sufs_core::scenario::parse_scenario;
use sufs_core::ProductStore;
use sufs_corpus::{generate, GenConfig, PolicyMix, Profile};
use sufs_hexpr::builder::{ev0, seq};
use sufs_hexpr::shash::stable_hash_of;
use sufs_hexpr::{parse_hist, Hist, Location};
use sufs_net::Repository;
use sufs_rng::{Rng, SeedableRng, StdRng};

/// The three workloads, by their command-line names.
pub const WORKLOADS: [&str; 3] = ["plan_read", "read_after_write", "quorum_write"];

/// One request a connection sends.
#[derive(Debug, Clone)]
pub struct Op {
    /// The request frame, built once so the timed loop only sends it.
    pub request: Json,
    pub kind: Kind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    /// A `plan` read of client `i` (index into [`Inputs::clients`]).
    Read(usize),
    /// A `publish` of `service` (text) at `location`.
    Publish { location: String, service: String },
    /// A `retract` of `location`.
    Retract { location: String },
}

impl Op {
    pub fn is_read(&self) -> bool {
        matches!(self.kind, Kind::Read(_))
    }

    fn read(client: usize, text: &str) -> Op {
        Op {
            request: Json::obj()
                .with("cmd", "plan")
                .with("client", text)
                .with("engine", "compositional")
                .with("max_valid", 1u64),
            kind: Kind::Read(client),
        }
    }

    fn publish(location: &str, service: &str, capacity: Option<usize>) -> Op {
        let mut request = Json::obj()
            .with("cmd", "publish")
            .with("location", location)
            .with("service", service);
        if let Some(cap) = capacity {
            request.set("capacity", cap);
        }
        Op {
            request,
            kind: Kind::Publish {
                location: location.to_owned(),
                service: service.to_owned(),
            },
        }
    }

    fn retract(location: &str) -> Op {
        Op {
            request: Json::obj()
                .with("cmd", "retract")
                .with("location", location),
            kind: Kind::Retract {
                location: location.to_owned(),
            },
        }
    }
}

/// A workload's complete, generated input.
pub struct Inputs {
    pub workload: &'static str,
    pub seed: u64,
    /// The deployment is a three-node durable cluster with quorum acks
    /// (else one in-memory node); every write reply must carry
    /// `"quorum": true`.
    pub durable: bool,
    /// The node runs the `deny_lint: error` gate on every write.
    pub gated: bool,
    /// Policies and services (and, for the gated workload, the clients
    /// the lint passes analyse), published in one `publish_scenario`.
    pub scenario: String,
    /// Services published one request at a time during set-up, after
    /// the scenario (the replicated workload's base set).
    pub base: Vec<Op>,
    /// Client behaviour texts, every one distinct.
    pub clients: Vec<String>,
    /// The timed op cycle of each connection; a connection repeats its
    /// cycle until the window closes. Every cycle leaves the repository
    /// as it found it.
    pub conns: Vec<Vec<Op>>,
    /// Ops of the other kind, issued in bursts between the timed
    /// window's segments, so every workload reports both read and write
    /// latency without mixing them into its timed ops.
    pub probes: Vec<Op>,
    /// Human-readable shape of the inputs, printed with the digest.
    pub shape: String,
}

impl Inputs {
    pub fn generate(workload: &str, seed: u64) -> Result<Inputs, String> {
        match workload {
            "plan_read" => Ok(plan_read(seed)),
            "read_after_write" => read_after_write(seed),
            "quorum_write" => Ok(quorum_write(seed)),
            other => Err(format!(
                "unknown workload `{other}` (want one of {})",
                WORKLOADS.join(", ")
            )),
        }
    }

    /// Fingerprint of the client set, topology and op sequences.
    pub fn digest(&self) -> String {
        let ops =
            |ops: &[Op]| -> Vec<String> { ops.iter().map(|o| o.request.to_string()).collect() };
        let conns: Vec<Vec<String>> = self.conns.iter().map(|c| ops(c)).collect();
        format!(
            "{:016x}",
            stable_hash_of(&(
                &self.scenario,
                ops(&self.base),
                &self.clients,
                conns,
                ops(&self.probes)
            ))
        )
    }

    /// The repository and registry the scenario and base set describe.
    pub fn initial_state(&self) -> (Repository, sufs_policy::PolicyRegistry) {
        let scenario = parse_scenario(&self.scenario).expect("generated scenario parses");
        let mut repo = scenario.repository;
        for op in &self.base {
            apply(&mut repo, op);
        }
        (repo, scenario.registry)
    }

    /// Parsed client behaviours, index-aligned with `clients`.
    pub fn parsed_clients(&self) -> Vec<Hist> {
        self.clients
            .iter()
            .map(|c| parse_hist(c).expect("generated client parses"))
            .collect()
    }
}

/// Applies a write op to an in-process repository mirror, keeping the
/// capacity the broker would keep.
pub fn apply(repo: &mut Repository, op: &Op) {
    match &op.kind {
        Kind::Read(_) => {}
        Kind::Publish { location, service } => {
            let hist = parse_hist(service).expect("generated service parses");
            match op.request.u64_field("capacity") {
                Some(cap) => repo.publish_bounded(location.as_str(), hist, cap as usize),
                None => repo.publish(location.as_str(), hist),
            };
        }
        Kind::Retract { location } => {
            repo.retract(&Location::new(location));
        }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

const POLICIES: &str = "policy deny_probe {\n  start q0;\n  offending bad;\n  q0 -- probe -> bad;\n}\n\n\
policy once_wlog {\n  start q0;\n  offending bad;\n  q0 -- wlog -> w1;\n  w1 -- wlog -> bad;\n}\n\n";

/// Request ids of the `plan_read` topology.
const PR_REQUESTS: u32 = 4;
/// Provider variants per request id: two honest, one rogue, three whose
/// reply the client cannot accept.
const PR_VARIANTS: usize = 6;
/// Distinct client behaviours (fits the 64-entry product store).
const PR_CLIENTS: usize = 20;

/// `plan_read`: four request ids, each served by six variants, and
/// twenty distinct clients opening three of them each: 25³ ≈ 1.6·10⁴
/// candidate plans per client, of which 3³ = 27 survive compliance.
///
/// The structure (variant kinds per group, requests per client, how many
/// carry a policy, how many are framed) is fixed, so every seed costs
/// the same; the seed only places the variants and picks each client's
/// requests, their order and the read order.
fn plan_read(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x706c_616e_7265_6164);
    let mut scenario = POLICIES.to_owned();
    for k in 1..=PR_REQUESTS {
        let rogue = if k % 2 == 0 {
            "#probe;\n  "
        } else {
            "#wlog;\n  #wlog;\n  "
        };
        let mut bodies = vec![
            format!("ext[q{k} -> eps];\n  int[ok{k} -> eps | no{k} -> eps]"),
            format!("ext[q{k} -> eps];\n  #audit;\n  int[ok{k} -> eps | no{k} -> eps]"),
            format!("ext[q{k} -> eps];\n  {rogue}int[ok{k} -> eps | no{k} -> eps]"),
        ];
        for v in 0..PR_VARIANTS - bodies.len() {
            bodies.push(format!(
                "ext[q{k} -> eps];\n  int[ok{k} -> eps | late{k}_{v} -> eps]"
            ));
        }
        shuffle(&mut bodies, &mut rng);
        for (v, body) in bodies.iter().enumerate() {
            scenario.push_str(&format!("service p{k}_{v} {{\n  {body}\n}}\n\n"));
        }
    }
    let mut seen = HashSet::new();
    let mut clients = Vec::new();
    while clients.len() < PR_CLIENTS {
        let c = clients.len();
        let mut ids: Vec<u32> = (1..=PR_REQUESTS).collect();
        shuffle(&mut ids, &mut rng);
        ids.truncate(3);
        // One or two of the three requests carry the deny policy.
        let mut phi = vec![true, c % 2 == 0, false];
        shuffle(&mut phi, &mut rng);
        let opens: Vec<String> = ids
            .iter()
            .zip(&phi)
            .map(|(k, p)| {
                let phi = if *p { " phi deny_probe" } else { "" };
                format!("open {k}{phi} {{ int[q{k} -> eps]; ext[ok{k} -> eps | no{k} -> eps] }}")
            })
            .collect();
        let body = opens.join("; ");
        let text = if c % 4 < 2 {
            format!("frame once_wlog [ {body} ]")
        } else {
            body
        };
        if seen.insert(text.clone()) {
            clients.push(text);
        }
    }
    // Each connection reads every client in its own seeded order.
    let conns = (0..2)
        .map(|_| {
            let mut order: Vec<usize> = (0..clients.len()).collect();
            shuffle(&mut order, &mut rng);
            order.iter().map(|&i| Op::read(i, &clients[i])).collect()
        })
        .collect();
    // Write probes toggle a location no client can bind.
    let spare = [
        "ext[zz -> eps];\n  int[zok -> eps]",
        "ext[zz -> eps];\n  #audit;\n  int[zok -> eps]",
    ];
    let probes = (0..PROBES)
        .map(|i| Op::publish("spare", spare[(i + 1) % 2], None))
        .collect();
    scenario.push_str(&format!("service spare {{\n  {}\n}}\n", spare[0]));
    Inputs {
        workload: "plan_read",
        seed,
        durable: false,
        gated: false,
        shape: format!(
            "{} services in {PR_REQUESTS} request groups, {} clients, 2 connections",
            PR_REQUESTS as usize * PR_VARIANTS + 1,
            clients.len()
        ),
        scenario,
        base: Vec::new(),
        clients,
        conns,
        probes,
    }
}

/// Probe ops, issued in equal bursts after the timed window's segments.
const PROBES: usize = 8000;

/// Toggle rounds in one `read_after_write` cycle (even, so the cycle
/// ends where it started).
const RAW_ROUNDS: usize = 8;

/// `read_after_write`: a generated tree topology with deny/frame/cap
/// policy layers; every write swaps one location between its behaviour
/// and an alternate with one more unpoliced event, every read plans a
/// client whose plans bind that location.
///
/// The topology is one fixed generator configuration, so every seed
/// costs the same; the seed drives the rotation order, the alternate
/// event and the reader picked for each write.
fn read_after_write(seed: u64) -> Result<Inputs, String> {
    let cfg = GenConfig {
        seed: RAW_TOPOLOGY_SEED,
        services: 9,
        profile: Profile::Tree,
        faults: false,
        policies: PolicyMix {
            deny: true,
            frame: true,
            cap: true,
        },
    };
    let generated = generate(&cfg);
    let scenario = parse_scenario(&generated.scenario).map_err(|e| e.to_string())?;
    let repo = &scenario.repository;
    let store = ProductStore::new();
    // Which clients' plans bind which location.
    let mut binders: BTreeMap<Location, Vec<usize>> = BTreeMap::new();
    for (i, (_, client)) in scenario.clients.iter().enumerate() {
        let plans = store
            .plan_space(client, repo, 1 << 16)
            .map_err(|e| e.to_string())?;
        let bound: BTreeSet<&Location> = plans
            .iter()
            .flat_map(|p| p.iter().map(|(_, l)| l))
            .collect();
        for loc in bound {
            binders.entry(loc.clone()).or_default().push(i);
        }
    }
    let clients: Vec<String> = scenario
        .clients
        .iter()
        .map(|(_, h)| h.to_string())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7261_775f_6d75_7461);
    let events = ["tick", "beat", "pulse"];
    let event = events[rng.gen_range(0..events.len())];
    let locations: Vec<&Location> = binders.keys().collect();
    let mut state: BTreeMap<&Location, bool> = locations.iter().map(|l| (*l, false)).collect();
    let mut ops = Vec::new();
    for _ in 0..RAW_ROUNDS {
        let mut order = locations.clone();
        shuffle(&mut order, &mut rng);
        for loc in order {
            let original = repo.get(loc).expect("bound location is published");
            let alternate = state.get_mut(loc).expect("tracked");
            *alternate = !*alternate;
            let service = if *alternate {
                seq([ev0(event), original.clone()])
            } else {
                original.clone()
            };
            let capacity = repo.capacity(loc).flatten();
            ops.push(Op::publish(loc.as_ref(), &service.to_string(), capacity));
            let readers = &binders[loc];
            let reader = readers[rng.gen_range(0..readers.len())];
            ops.push(Op::read(reader, &clients[reader]));
        }
    }
    Ok(Inputs {
        workload: "read_after_write",
        seed,
        durable: false,
        gated: true,
        shape: format!(
            "`{}`: {} services, {} clients, {} mutable locations, 1 connection",
            cfg.command_line(),
            generated.services,
            clients.len(),
            locations.len()
        ),
        scenario: generated.scenario,
        base: Vec::new(),
        clients,
        conns: vec![ops],
        probes: Vec::new(),
    })
}

/// Generator seed of the fixed `read_after_write` topology.
const RAW_TOPOLOGY_SEED: u64 = 1;

/// Base-set size of the replicated workload.
const QW_BASE: usize = 256;
/// Locations the timed writes cycle over.
const QW_WRITE_SET: usize = 32;

/// `quorum_write`: a base set of responders, then publish/retract
/// cycles over a fixed seeded subset of it.
fn quorum_write(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7175_6f72_756d_5f77);
    let variants = [
        "ext[qw -> eps]; int[okw -> eps | now -> eps]",
        "ext[qw -> eps]; #audit; int[okw -> eps | now -> eps]",
        "ext[qw -> eps]; #step; #audit; int[okw -> eps | now -> eps]",
    ];
    let names: Vec<String> = (0..QW_BASE).map(|i| format!("w{i:03}")).collect();
    // Each location's original variant, and the alternate it swaps to.
    let originals: Vec<usize> = names
        .iter()
        .map(|_| rng.gen_range(0..variants.len()))
        .collect();
    let base = names
        .iter()
        .zip(&originals)
        .map(|(n, &v)| Op::publish(n, variants[v], None))
        .collect();
    let mut write_set: Vec<usize> = (0..QW_BASE).collect();
    shuffle(&mut write_set, &mut rng);
    write_set.truncate(QW_WRITE_SET);
    // Per location: original → retracted → alternate → retracted → …;
    // four visits return it to the original, so four rounds make a cycle.
    let mut ops = Vec::new();
    for round in 0..4 {
        let mut order = write_set.clone();
        shuffle(&mut order, &mut rng);
        for i in order {
            ops.push(match round {
                0 | 2 => Op::retract(&names[i]),
                1 => Op::publish(
                    &names[i],
                    variants[(originals[i] + 1) % variants.len()],
                    None,
                ),
                _ => Op::publish(&names[i], variants[originals[i]], None),
            });
        }
    }
    let clients = vec!["open 1 { int[qw -> eps]; ext[okw -> eps | now -> eps] }".to_owned()];
    let probes = (0..PROBES).map(|_| Op::read(0, &clients[0])).collect();
    Inputs {
        workload: "quorum_write",
        seed,
        durable: true,
        gated: false,
        shape: format!(
            "{QW_BASE} base services, {QW_WRITE_SET} written locations, 3 nodes, 1 connection"
        ),
        scenario: String::new(),
        base,
        clients,
        conns: vec![ops],
        probes,
    }
}
