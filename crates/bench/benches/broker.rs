//! Broker load generator: throughput and latency of `plan` queries
//! against a live `sufs serve` daemon, emitted as machine-readable
//! `BENCH_broker.json`.
//!
//! For each workload the harness spawns an in-process broker on a
//! loopback port, publishes the mixed-responder repository *over the
//! wire* (so the service texts round-trip through the protocol), then
//! drives `clients` concurrent connections each issuing `iters` plan
//! queries, which the broker reads off its incrementally maintained
//! composed product (the `compositional` engine, its only one). Timed
//! queries are production-shaped — `max_valid: 1`, "give me a valid
//! orchestration", a constant-size reply however wide the plan space —
//! so the numbers measure synthesis, not the size of a full verdict
//! audit. After its timed window each connection issues untimed *full*
//! queries whose valid set is checked against the in-process
//! enumerative reference over the same repository — the daemon must
//! answer exactly what the library answers.
//!
//! Each workload also records a **re-derivation row**: the latency of a
//! `max_valid: 1` plan issued right after a compliant, body-only publish
//! of a location the first valid plan binds (its service behind one more
//! unpoliced event, then back), so every timed read re-derives the
//! resident product after a one-location write
//! (`compositional.rederive_p50_us`/`rederive_p95_us`).
//!
//! In the full configuration the harness also asserts the headline
//! claim: compositional throughput on the 1296-candidate workload
//! stays within 2× of the 36-candidate workload's, i.e. the
//! exponential plan-space cliff is gone.
//!
//! Environment:
//! * `SUFS_BENCH_SMOKE=1` — tiny workloads, for CI;
//! * `SUFS_BENCH_BROKER_OUT=path` — where to write the JSON (default
//!   `BENCH_broker.json` in the working directory);
//! * `SUFS_BENCH_GEN=profile=mesh,services=6,seed=3[,policies=deny+frame][,faults]`
//!   — source the topology from the scenario generator (`sufs gen`)
//!   instead of the inline mixed-responder builder; the scenario text
//!   is published over the wire (services *and* policies) and the run
//!   measures that single generated workload.

use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use sufs_bench::{gen_workload_from_env, mixed_responder_repo, multi_request_client, GenWorkload};
use sufs_broker::{Broker, BrokerClient, BrokerConfig, Json};
use sufs_core::{synthesize, SynthesisOptions};
use sufs_hexpr::builder::{ev0, seq};
use sufs_policy::PolicyRegistry;

/// What the broker serves: a client history over a repository, from
/// either the inline mixed-responder builder or the scenario generator.
struct Topology {
    label: String,
    requests: usize,
    services: usize,
    client: sufs_hexpr::Hist,
    repo: sufs_net::Repository,
    registry: PolicyRegistry,
    /// Gen mode: the scenario text, published wholesale over the wire
    /// so the broker installs the policies too.
    scenario: Option<String>,
    /// Provenance tag recorded in the JSON when gen-sourced.
    source: Option<String>,
}

impl Topology {
    /// `requests`-deep client over `good + bad` inline responders.
    fn inline(requests: usize, good: usize, bad: usize) -> Topology {
        Topology {
            label: format!("r={requests} good={good} bad={bad}"),
            requests,
            services: good + bad,
            client: multi_request_client(requests),
            repo: mixed_responder_repo(good, bad),
            registry: PolicyRegistry::new(),
            scenario: None,
            source: None,
        }
    }

    fn from_gen(gen: GenWorkload) -> Topology {
        Topology {
            label: format!(
                "gen({}) client={} r={} s={}",
                gen.spec,
                gen.client_name,
                gen.requests,
                gen.repo.len()
            ),
            requests: gen.requests,
            services: gen.repo.len(),
            client: gen.client,
            repo: gen.repo,
            registry: gen.registry,
            scenario: Some(gen.scenario),
            source: Some(format!("gen:{}", gen.spec)),
        }
    }
}

/// One load configuration: a topology driven by `clients` connections
/// × `iters` queries each.
struct Workload {
    topo: Topology,
    clients: usize,
    iters: usize,
}

/// Full-reply equivalence queries per connection, issued outside the
/// timed window.
const EQUIVALENCE_SAMPLES: usize = 3;

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Times `rounds` plan reads, each issued right after a body-only
/// publish at `loc` that alternates `service` with `#tick; service`, so
/// the valid set never changes and every read re-derives the product.
/// Even rounds leave `service` published. Returns the sorted latencies.
fn rederive_latencies(
    conn: &mut BrokerClient,
    client_text: &str,
    (loc, service, capacity): (&str, &sufs_hexpr::Hist, Option<usize>),
    valid_total: usize,
    rounds: usize,
) -> Vec<u128> {
    let variant = seq([ev0("tick"), service.clone()]).to_string();
    let original = service.to_string();
    let mut latencies = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let text = if round % 2 == 0 { &variant } else { &original };
        let reply = conn
            .publish(loc, text, capacity.map(|n| n as u64))
            .expect("body-only publish");
        assert_eq!(reply.bool_field("ok"), Some(true), "publish rejected");
        let t = Instant::now();
        let reply = conn
            .plan_with(client_text, Json::obj().with("max_valid", 1u64))
            .expect("plan after publish");
        latencies.push(t.elapsed().as_micros());
        assert_eq!(reply.bool_field("ok"), Some(true), "plan rejected");
        assert_eq!(
            reply.u64_field("valid_total"),
            Some(valid_total as u64),
            "a body-only publish changed the valid set"
        );
    }
    latencies.sort_unstable();
    latencies
}

/// Drives one workload against a fresh broker. Returns the stats
/// object and the measured throughput.
fn run_broker(
    w: &Workload,
    expected: &[String],
    client_text: &str,
    bound: &sufs_hexpr::Location,
) -> (Json, f64) {
    let handle = Broker::spawn(BrokerConfig {
        max_clients: w.clients + 8,
        ..BrokerConfig::default()
    })
    .expect("spawn broker");
    let addr = handle.addr().to_string();

    // Publish the repository over the wire so the service histories
    // round-trip through the protocol, like a real deployment. A
    // gen-sourced topology ships as a whole scenario so the broker
    // installs its policies alongside the services.
    let mut admin = BrokerClient::connect(&addr).expect("connect admin");
    match &w.topo.scenario {
        Some(text) => {
            let reply = admin.publish_scenario(text).expect("publish scenario");
            assert_eq!(reply.bool_field("ok"), Some(true), "scenario rejected");
        }
        None => {
            for (loc, service) in w.topo.repo.iter() {
                let reply = admin
                    .publish(loc.as_ref(), &service.to_string(), None)
                    .expect("publish");
                assert_eq!(reply.bool_field("ok"), Some(true), "publish rejected");
            }
        }
    }

    // One untimed warm-up query builds the product (the
    // once-per-repository-state cost) — workers then measure the steady
    // state a long-running daemon actually serves.
    let warmed = admin
        .plan_with(client_text, Json::obj().with("max_valid", 1u64))
        .expect("warm-up plan");
    assert_eq!(warmed.bool_field("ok"), Some(true), "warm-up rejected");

    let barrier = Arc::new(Barrier::new(w.clients));
    let workers: Vec<_> = (0..w.clients)
        .map(|_| {
            let addr = addr.clone();
            let text = client_text.to_owned();
            let expected = expected.to_owned();
            let barrier = Arc::clone(&barrier);
            let iters = w.iters;
            thread::spawn(move || {
                let mut conn = BrokerClient::connect(&addr).expect("connect worker");
                let mut latencies: Vec<u128> = Vec::with_capacity(iters);
                barrier.wait();
                let window = Instant::now();
                for _ in 0..iters {
                    let t = Instant::now();
                    let reply = conn
                        .plan_with(&text, Json::obj().with("max_valid", 1u64))
                        .expect("plan request");
                    latencies.push(t.elapsed().as_micros());
                    assert_eq!(reply.bool_field("ok"), Some(true), "plan rejected");
                    assert_eq!(
                        reply
                            .get("stats")
                            .and_then(|s| s.str_field("engine"))
                            .unwrap_or("?"),
                        "compositional",
                        "broker ran the wrong engine"
                    );
                    let first = reply
                        .get("valid")
                        .and_then(Json::as_arr)
                        .and_then(|v| v.first())
                        .and_then(|v| v.as_str().map(str::to_owned))
                        .expect("a valid plan");
                    assert!(
                        expected.binary_search(&first).is_ok(),
                        "broker returned a plan in-process synthesis rejects"
                    );
                    assert_eq!(
                        reply.u64_field("valid_total"),
                        Some(expected.len() as u64),
                        "valid-plan count diverged"
                    );
                }
                let elapsed = window.elapsed();
                // Wait out every other worker's timed window before the
                // heavyweight full queries, so they never contend with
                // someone else's measurement.
                barrier.wait();
                // Outside the timed window: the complete valid set must
                // match in-process synthesis exactly.
                let mut samples = 0usize;
                for _ in 0..EQUIVALENCE_SAMPLES {
                    let full = conn.plan(&text).expect("full plan request");
                    let mut valid: Vec<String> = full
                        .get("valid")
                        .and_then(Json::as_arr)
                        .expect("valid array")
                        .iter()
                        .filter_map(|v| v.as_str().map(str::to_owned))
                        .collect();
                    valid.sort();
                    assert_eq!(
                        valid, expected,
                        "remote verdicts diverged from in-process synthesis"
                    );
                    samples += 1;
                }
                (latencies, samples, elapsed)
            })
        })
        .collect();

    let mut latencies: Vec<u128> = Vec::with_capacity(w.clients * w.iters);
    let mut samples = 0usize;
    let mut wall = 0f64;
    for worker in workers {
        let (lat, s, elapsed) = worker.join().expect("worker panicked");
        latencies.extend(lat);
        samples += s;
        wall = wall.max(elapsed.as_secs_f64());
    }

    let stats = admin.stats().expect("stats");
    let hit_rate = stats
        .get("stats")
        .and_then(|s| s.get("cache_hit_rate"))
        .and_then(Json::as_f64);
    let product_reads = stats
        .get("products")
        .and_then(|p| p.u64_field("reads"))
        .unwrap_or(0);
    // After the counters above are read, so they describe the warm
    // reads alone.
    let service = w.topo.repo.get(bound).expect("bound location is published");
    let capacity = w.topo.repo.capacity(bound).flatten();
    let rederive = rederive_latencies(
        &mut admin,
        client_text,
        (bound.as_str(), service, capacity),
        expected.len(),
        2 * w.iters.max(3),
    );
    drop(admin);
    drop(handle); // drains the daemon

    latencies.sort_unstable();
    let total = latencies.len();
    let throughput = total as f64 / wall;
    eprintln!(
        "  {total} requests in {:.1}ms ({throughput:.1} rps), p50 {}µs p95 {}µs p99 {}µs; \
         after a body-only publish at {bound}: p50 {}µs p95 {}µs",
        wall * 1e3,
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
        percentile(&rederive, 50.0),
        percentile(&rederive, 95.0),
    );

    let mut out = Json::obj()
        .with("total_requests", total)
        .with("wall_ms", wall * 1e3)
        .with("throughput_rps", throughput)
        .with("p50_us", percentile(&latencies, 50.0) as u64)
        .with("p95_us", percentile(&latencies, 95.0) as u64)
        .with("p99_us", percentile(&latencies, 99.0) as u64)
        .with("equivalence_samples", samples)
        .with("equivalence", "ok");
    if let Some(rate) = hit_rate {
        out.set("cache_hit_rate", rate);
    }
    out.set("product_reads", product_reads);
    out.set("rederive_samples", rederive.len());
    out.set("rederive_p50_us", percentile(&rederive, 50.0) as u64);
    out.set("rederive_p95_us", percentile(&rederive, 95.0) as u64);
    (out, throughput)
}

/// Runs one workload. Returns the JSON row and the throughput (for the
/// cliff assertion).
fn run_workload(w: &Workload) -> (Json, f64) {
    let opts = SynthesisOptions::default();

    // The in-process baseline the daemon's replies must reproduce.
    let baseline = synthesize(&w.topo.client, &w.topo.repo, &w.topo.registry, &opts)
        .expect("workload verifies");
    let mut expected: Vec<String> = baseline
        .report
        .valid_plans()
        .map(|p| p.to_string())
        .collect();
    expected.sort();
    assert!(!expected.is_empty(), "workload admits no valid plan");

    // The location the re-derivation row rewrites: one the first valid
    // plan binds.
    let bound = baseline
        .report
        .valid_plans()
        .next()
        .and_then(|plan| plan.iter().next().map(|(_, loc)| loc.clone()))
        .expect("a valid plan binds a location");
    let client_text = w.topo.client.to_string();
    let (compositional, comp_rps) = run_broker(w, &expected, &client_text, &bound);

    let candidates = w.topo.services.pow(w.topo.requests as u32);
    let mut row = Json::obj()
        .with("requests", w.topo.requests)
        .with("services", w.topo.services)
        .with("candidates", candidates)
        .with("valid_plans", expected.len())
        .with("clients", w.clients)
        .with("compositional", compositional);
    if let Some(source) = &w.topo.source {
        row.set("source", source.as_str());
    }
    (row, comp_rps)
}

fn main() {
    let smoke = std::env::var("SUFS_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let workloads: Vec<Workload> = if let Some(gen) = gen_workload_from_env() {
        let (clients, iters) = if smoke { (2, 5) } else { (4, 50) };
        vec![Workload {
            topo: Topology::from_gen(gen),
            clients,
            iters,
        }]
    } else if smoke {
        vec![Workload {
            topo: Topology::inline(2, 2, 2),
            clients: 2,
            iters: 5,
        }]
    } else {
        vec![
            Workload {
                topo: Topology::inline(2, 3, 3),
                clients: 4,
                iters: 50,
            },
            Workload {
                topo: Topology::inline(3, 3, 3),
                clients: 4,
                iters: 50,
            },
            Workload {
                topo: Topology::inline(3, 3, 3),
                clients: 8,
                iters: 50,
            },
            Workload {
                topo: Topology::inline(4, 3, 3),
                clients: 4,
                iters: 20,
            },
        ]
    };

    let mut out = String::new();
    out.push_str("{\n");
    write!(
        out,
        "  \"bench\": \"broker\",\n  \"schema_version\": 4,\n  \"smoke\": {smoke},\n"
    )
    .unwrap();
    out.push_str("  \"workloads\": [\n");
    let mut comp_rps: Vec<(usize, f64)> = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        eprintln!(
            "workload {} clients={} iters={}",
            w.topo.label, w.clients, w.iters
        );
        let (row, rps) = run_workload(w);
        comp_rps.push((w.topo.services.pow(w.topo.requests as u32), rps));
        if i > 0 {
            out.push_str(",\n");
        }
        write!(out, "    {row}").unwrap();
    }
    out.push_str("\n  ]\n}\n");

    // The headline claim, asserted where the cliff used to be: the
    // widest plan space must stay within 2× of the narrowest one's
    // compositional throughput (same connection count). Meaningless
    // for a single gen-sourced workload, so it needs at least two.
    if !smoke && workloads.len() > 1 {
        let narrow = comp_rps.first().expect("workloads not empty");
        let wide = comp_rps.last().expect("workloads not empty");
        eprintln!(
            "cliff check: {} candidates at {:.1} rps vs {} candidates at {:.1} rps",
            narrow.0, narrow.1, wide.0, wide.1
        );
        assert!(
            wide.1 * 2.0 >= narrow.1,
            "the plan-space cliff is back: {} candidates at {:.1} rps vs {} candidates at {:.1} rps",
            narrow.0,
            narrow.1,
            wide.0,
            wide.1
        );
    }

    let path =
        std::env::var("SUFS_BENCH_BROKER_OUT").unwrap_or_else(|_| "BENCH_broker.json".into());
    std::fs::write(&path, &out).expect("write benchmark output");
    eprintln!("wrote {path}");
}
