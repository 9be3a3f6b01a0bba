//! Experiment E14: crash-recovery of the durable broker under a
//! deterministic chaos transport.
//!
//! The centrepiece drives ≥500 seeded kill-and-restart cycles: each
//! cycle mutates the repository through a fault-injecting proxy
//! ([`sufs_broker::chaos`]), kills the broker *without* draining
//! ([`BrokerHandle::kill`]), restarts it from the same state
//! directory, and checks that
//!
//! (a) the recovered repository renders **byte-identical** to a
//!     never-crashed in-process oracle,
//! (b) every acknowledged mutation survives the crash,
//! (c) a retried mutation (same `req_id`) is never applied twice —
//!     visible in the `published` vs `updated` event of its reply,
//! (d) post-recovery `plan` verdicts equal an in-process `synthesize`
//!     over the oracle state.
//!
//! The satellite tests pin the journal-replay edge cases: empty
//! journal, snapshot-only state, torn final record, a duplicate
//! mutation id straddling a snapshot boundary, and a journal written
//! by an admission-saturated server.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sufs_broker::chaos::{fault_for, ChaosProxy, Fault};
use sufs_broker::{Broker, BrokerClient, BrokerConfig, Json, ReconnectPolicy};
use sufs_core::verify::verify;
use sufs_hexpr::builder::*;
use sufs_hexpr::{parse_hist, Hist, Location};
use sufs_net::Repository;
use sufs_policy::PolicyRegistry;
use sufs_rng::{Rng, SeedableRng, StdRng};

/// A fresh per-test state directory under the system tmpdir.
fn state_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sufs-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn durable(dir: &Path, snapshot_every: u64) -> BrokerConfig {
    BrokerConfig {
        state_dir: Some(dir.to_path_buf()),
        snapshot_every,
        ..BrokerConfig::default()
    }
}

/// The booking client of the e2e suite: one request, two outcomes.
fn booking_client() -> Hist {
    request(
        1,
        None,
        seq([send("req", eps()), offer([("ok", eps()), ("no", eps())])]),
    )
}

/// Candidate services: two compliant, one non-compliant, one on the
/// wrong channel.
fn service_pool() -> Vec<Hist> {
    vec![
        recv("req", choose([("ok", eps()), ("no", eps())])),
        recv("req", choose([("ok", eps())])),
        recv("req", choose([("ok", eps()), ("later", eps())])),
        recv("zzz", eps()),
    ]
}

/// Canonical rendering of a broker's `repo` reply — the byte string
/// the recovered state is compared by.
fn canonical_remote(reply: &Json) -> String {
    assert_eq!(reply.bool_field("ok"), Some(true), "repo failed: {reply}");
    let mut out = String::new();
    for s in reply.get("services").and_then(Json::as_arr).unwrap() {
        let loc = s.str_field("location").unwrap();
        let service = s.str_field("service").unwrap();
        match s.u64_field("capacity") {
            Some(cap) => out.push_str(&format!("{loc} (x{cap}): {service}\n")),
            None => out.push_str(&format!("{loc}: {service}\n")),
        }
    }
    let mut policies: Vec<&str> = reply
        .get("policies")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    policies.sort_unstable();
    for p in policies {
        out.push_str(&format!("policy {p}\n"));
    }
    out
}

/// The same rendering over the in-process oracle.
fn canonical_oracle(repo: &Repository, registry: &PolicyRegistry) -> String {
    let mut out = String::new();
    for (loc, service, capacity) in repo.export() {
        match capacity {
            Some(cap) => out.push_str(&format!("{loc} (x{cap}): {service}\n")),
            None => out.push_str(&format!("{loc}: {service}\n")),
        }
    }
    let mut policies: Vec<&str> = registry.iter().map(|a| a.name()).collect();
    policies.sort_unstable();
    for p in policies {
        out.push_str(&format!("policy {p}\n"));
    }
    out
}

/// Issues one mutation through the chaos transport, falling back to a
/// direct connection (same `req_id`!) when the faulty path gives no
/// usable answer. Returns the authoritative reply: thanks to the
/// idempotency window, the mutation lands exactly once no matter how
/// many transport-level retries happened.
fn mutate_through_chaos(
    chaos: &mut BrokerClient,
    direct_addr: std::net::SocketAddr,
    req: &Json,
) -> Json {
    match chaos.request_retrying(req) {
        Ok(reply) if reply.bool_field("ok") == Some(true) => reply,
        // Transport failure, or a `bad_request` caused by injected
        // garbage/torn bytes: ask the broker directly with the same
        // request id for the authoritative outcome.
        _ => {
            let mut direct = BrokerClient::connect(direct_addr).expect("direct connect");
            let reply = direct.request(req).expect("direct request");
            assert_eq!(
                reply.bool_field("ok"),
                Some(true),
                "direct mutation failed: {reply}"
            );
            reply
        }
    }
}

/// E14. ≥500 seeded kill-and-restart cycles under the chaos proxy.
#[test]
fn e14_crash_recovery_under_chaos_transport() {
    const CYCLES: u64 = 500;
    let dir = state_dir("e14");
    let mut oracle_repo = Repository::new();
    let mut oracle_registry = PolicyRegistry::new();
    let mut master = StdRng::seed_from_u64(0xE14);
    let pool: Vec<String> = service_pool().iter().map(|h| h.to_string()).collect();
    let locations = ["s0", "s1", "s2", "s3"];
    let policy_names = ["pa", "pb"];
    let mut req_counter = 0u64;
    let mut dedup_hits_seen = 0u64;

    for cycle in 0..CYCLES {
        let handle = Broker::spawn(durable(&dir, 5)).expect("broker spawns");
        let addr = handle.addr();

        // (a)+(b): the recovered state must render byte-identical to
        // the oracle that never crashed.
        {
            let mut direct = BrokerClient::connect(addr).expect("connect");
            let remote = canonical_remote(&direct.repo().expect("repo"));
            let local = canonical_oracle(&oracle_repo, &oracle_registry);
            assert_eq!(remote, local, "cycle {cycle}: recovered state diverged");
        }

        // (d): every 50 cycles, remote plan verdicts == in-process
        // synthesis over the oracle.
        if cycle % 50 == 0 && !oracle_repo.is_empty() {
            let mut direct = BrokerClient::connect(addr).expect("connect");
            let reply = direct
                .plan(&booking_client().to_string())
                .expect("plan request");
            assert_eq!(reply.bool_field("ok"), Some(true), "plan failed: {reply}");
            let mut remote_valid: Vec<String> = reply
                .get("valid")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect();
            remote_valid.sort();
            let report = verify(&booking_client(), &oracle_repo, &oracle_registry).expect("verify");
            let mut local_valid: Vec<String> =
                report.valid_plans().map(|p| p.to_string()).collect();
            local_valid.sort();
            assert_eq!(
                remote_valid, local_valid,
                "cycle {cycle}: post-recovery verdicts diverged"
            );
        }

        let proxy = ChaosProxy::spawn(addr, 0xC0FFEE ^ cycle).expect("proxy spawns");
        let mut chaos = BrokerClient::connect(proxy.addr())
            .expect("chaos connect")
            .with_reconnect(ReconnectPolicy {
                max_retries: 4,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(8),
                ..ReconnectPolicy::default()
            })
            .with_request_seed(cycle.wrapping_mul(0x9e37) ^ 0x51ed);

        for _ in 0..master.gen_range(1..3usize) {
            req_counter += 1;
            let req_id = format!("e14-{req_counter:08}");
            match master.gen_range(0..10u32) {
                // publish (the common case)
                0..=5 => {
                    let loc = locations[master.gen_range(0..locations.len())];
                    let service = &pool[master.gen_range(0..pool.len())];
                    let capacity = if master.gen_bool(0.3) {
                        Some(master.gen_range(1..4u64))
                    } else {
                        None
                    };
                    let mut req = Json::obj()
                        .with("cmd", "publish")
                        .with("location", loc)
                        .with("service", service.as_str())
                        .with("req_id", req_id.as_str());
                    if let Some(cap) = capacity {
                        req.set("capacity", cap);
                    }
                    let fresh = oracle_repo.get(&Location::new(loc)).is_none();
                    let reply = mutate_through_chaos(&mut chaos, addr, &req);
                    // (c): a fresh location must report `published`; a
                    // double-applied retry would report `updated`.
                    let event = reply.str_field("event").unwrap_or("");
                    if fresh {
                        assert!(
                            event.starts_with("published"),
                            "cycle {cycle}: retried publish double-applied: {reply}"
                        );
                    } else {
                        assert!(
                            event.starts_with("updated"),
                            "cycle {cycle}: wrong event for upsert: {reply}"
                        );
                    }
                    let parsed = parse_hist(service).expect("pool parses");
                    match capacity {
                        Some(cap) => {
                            oracle_repo
                                .try_publish_bounded(loc, parsed, cap as usize)
                                .expect("pool is well-formed");
                        }
                        None => {
                            oracle_repo.try_publish(loc, parsed).expect("well-formed");
                        }
                    }
                }
                // retract
                6 | 7 => {
                    let loc = locations[master.gen_range(0..locations.len())];
                    let req = Json::obj()
                        .with("cmd", "retract")
                        .with("location", loc)
                        .with("req_id", req_id.as_str());
                    let reply = mutate_through_chaos(&mut chaos, addr, &req);
                    let expected = oracle_repo.get(&Location::new(loc)).is_some();
                    assert_eq!(
                        reply.bool_field("changed"),
                        Some(expected),
                        "cycle {cycle}: retract changed-ness diverged: {reply}"
                    );
                    oracle_repo.retract(&Location::new(loc));
                }
                // publish_scenario with a policy
                8 => {
                    let name = policy_names[master.gen_range(0..policy_names.len())];
                    let text = format!(
                        "policy {name}(p) {{ start q0; q0 -- pay if x0 in p -> q1; \
                         q1 -- pay if x0 in p -> q2; offending q2; }}"
                    );
                    let req = Json::obj()
                        .with("cmd", "publish_scenario")
                        .with("text", text.as_str())
                        .with("req_id", req_id.as_str());
                    let reply = mutate_through_chaos(&mut chaos, addr, &req);
                    assert_eq!(reply.u64_field("policies"), Some(1), "{reply}");
                    let sc = sufs_core::scenario::parse_scenario(&text).expect("scenario");
                    for ua in sc.registry.iter() {
                        oracle_registry.register(ua.clone());
                    }
                }
                // retract_policy
                _ => {
                    let name = policy_names[master.gen_range(0..policy_names.len())];
                    let req = Json::obj()
                        .with("cmd", "retract_policy")
                        .with("name", name)
                        .with("req_id", req_id.as_str());
                    let reply = mutate_through_chaos(&mut chaos, addr, &req);
                    let expected = oracle_registry.get(name).is_some();
                    assert_eq!(
                        reply.bool_field("changed"),
                        Some(expected),
                        "cycle {cycle}: retract_policy diverged: {reply}"
                    );
                    oracle_registry.remove(name);
                }
            }
        }

        // Harvest the dedup counter before the crash: retried
        // mutations that were answered from the idempotency window.
        {
            let mut direct = BrokerClient::connect(addr).expect("connect");
            if let Ok(stats) = direct.stats() {
                dedup_hits_seen += stats
                    .get("stats")
                    .and_then(|s| s.get("durability"))
                    .and_then(|d| d.u64_field("dedup_hits"))
                    .unwrap_or(0);
            }
        }

        drop(chaos);
        handle.kill(); // no drain, no flush: a crash
        drop(proxy);

        // Every 7th crash also tears the journal tail, as a real
        // mid-append power cut would.
        if cycle % 7 == 3 {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join("journal.wal"))
                .expect("journal exists");
            f.write_all(&[0x00, 0x13, 0x37]).expect("tear tail");
        }
    }

    // The chaos schedule must actually have exercised the retry path.
    assert!(
        dedup_hits_seen > 0,
        "500 chaos cycles never hit the idempotency window — faults too weak"
    );

    // Final recovery + graceful path still works.
    let handle = Broker::spawn(durable(&dir, 5)).expect("final spawn");
    let mut direct = BrokerClient::connect(handle.addr()).expect("connect");
    let remote = canonical_remote(&direct.repo().expect("repo"));
    assert_eq!(remote, canonical_oracle(&oracle_repo, &oracle_registry));
    direct.shutdown().expect("graceful shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Edge case: a state directory with an empty journal and no snapshot
/// recovers to an empty repository and keeps serving.
#[test]
fn recovery_from_empty_journal() {
    let dir = state_dir("empty");
    {
        let handle = Broker::spawn(durable(&dir, 100)).expect("spawn");
        handle.kill();
    }
    let handle = Broker::spawn(durable(&dir, 100)).expect("respawn");
    let mut client = BrokerClient::connect(handle.addr()).expect("connect");
    let reply = client.repo().expect("repo");
    assert_eq!(
        reply.get("services").and_then(Json::as_arr).unwrap().len(),
        0
    );
    let reply = client
        .publish("s", &service_pool()[0].to_string(), None)
        .expect("publish");
    assert_eq!(reply.bool_field("ok"), Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Edge case: with `snapshot_every = 1` every mutation compacts, so
/// recovery runs from the snapshot alone (empty journal suffix).
#[test]
fn recovery_from_snapshot_only() {
    let dir = state_dir("snaponly");
    {
        let handle = Broker::spawn(durable(&dir, 1)).expect("spawn");
        let mut client = BrokerClient::connect(handle.addr()).expect("connect");
        client
            .publish("a", &service_pool()[0].to_string(), None)
            .expect("publish a");
        client
            .publish("b", &service_pool()[1].to_string(), Some(2))
            .expect("publish b");
        // Each mutation triggers compaction after its reply; the last
        // one may still be in flight on another thread — stats forces
        // a round trip, then the journal must be empty.
        let stats = client.stats().expect("stats");
        let journal = stats.get("journal").expect("journal section");
        assert_eq!(journal.u64_field("records_since_snapshot"), Some(0));
        handle.kill();
    }
    let handle = Broker::spawn(durable(&dir, 1)).expect("respawn");
    let mut client = BrokerClient::connect(handle.addr()).expect("connect");
    let repo = client.repo().expect("repo");
    let services = repo.get("services").and_then(Json::as_arr).unwrap();
    assert_eq!(services.len(), 2);
    assert_eq!(services[1].u64_field("capacity"), Some(2));
    // The replay counter confirms nothing came from the journal.
    let stats = client.stats().expect("stats");
    let durability = stats
        .get("stats")
        .and_then(|s| s.get("durability"))
        .expect("durability counters");
    assert_eq!(durability.u64_field("replayed_records"), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Edge case: a torn final record (crash mid-append) is truncated on
/// recovery; every acknowledged mutation before it survives.
#[test]
fn recovery_truncates_torn_final_record() {
    let dir = state_dir("torn");
    {
        let handle = Broker::spawn(durable(&dir, 100)).expect("spawn");
        let mut client = BrokerClient::connect(handle.addr()).expect("connect");
        client
            .publish("a", &service_pool()[0].to_string(), None)
            .expect("publish a");
        client
            .publish("b", &service_pool()[1].to_string(), None)
            .expect("publish b");
        handle.kill();
    }
    // A torn half-record: length prefix promising more than is there.
    let mut f = OpenOptions::new()
        .append(true)
        .open(dir.join("journal.wal"))
        .expect("journal exists");
    f.write_all(&[0x00, 0x00, 0x40, 0x00, 0xaa, 0xbb]).unwrap();
    drop(f);

    let handle = Broker::spawn(durable(&dir, 100)).expect("respawn");
    let mut client = BrokerClient::connect(handle.addr()).expect("connect");
    let repo = client.repo().expect("repo");
    assert_eq!(
        repo.get("services").and_then(Json::as_arr).unwrap().len(),
        2
    );
    let stats = client.stats().expect("stats");
    let durability = stats
        .get("stats")
        .and_then(|s| s.get("durability"))
        .expect("durability counters");
    assert_eq!(durability.u64_field("replayed_records"), Some(2));
    // The journal stays appendable after truncation.
    client
        .publish("c", &service_pool()[2].to_string(), None)
        .expect("publish after torn recovery");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Edge case: a mutation id recorded *before* a snapshot boundary
/// still answers a retry arriving *after* crash recovery — the
/// idempotency window rides inside the snapshot.
#[test]
fn duplicate_req_id_straddling_a_snapshot_boundary() {
    let dir = state_dir("straddle");
    let service = service_pool()[0].to_string();
    let req = Json::obj()
        .with("cmd", "publish")
        .with("location", "s")
        .with("service", service.as_str())
        .with("req_id", "straddle-0001");
    let first;
    {
        let handle = Broker::spawn(durable(&dir, 1)).expect("spawn");
        let mut client = BrokerClient::connect(handle.addr()).expect("connect");
        first = client.request(&req).expect("first publish");
        assert_eq!(first.str_field("event"), Some("published s"));
        // snapshot_every = 1: the mutation and its req_id are compacted
        // into the snapshot once the reply round-trips.
        let stats = client.stats().expect("stats");
        assert_eq!(
            stats
                .get("journal")
                .and_then(|j| j.u64_field("records_since_snapshot")),
            Some(0)
        );
        handle.kill();
    }
    let handle = Broker::spawn(durable(&dir, 1)).expect("respawn");
    let mut client = BrokerClient::connect(handle.addr()).expect("connect");
    // The retry of the pre-snapshot mutation: answered from the
    // recovered window with the *original* reply, not re-applied.
    let retry = client.request(&req).expect("retried publish");
    assert_eq!(retry, first, "retry must replay the recorded reply");
    let stats = client.stats().expect("stats");
    let durability = stats
        .get("stats")
        .and_then(|s| s.get("durability"))
        .expect("durability counters");
    assert_eq!(durability.u64_field("dedup_hits"), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Edge case: a journal written while the server is saturated at
/// `max_clients` (busy rejections interleaved with admitted mutations)
/// replays to exactly the acknowledged state.
#[test]
fn replay_of_journal_from_saturated_server() {
    let dir = state_dir("saturated");
    let pool: Vec<String> = service_pool().iter().map(|h| h.to_string()).collect();
    let mut acked: Vec<(String, String)> = Vec::new();
    {
        let handle = Broker::spawn(BrokerConfig {
            max_clients: 1,
            ..durable(&dir, 3)
        })
        .expect("spawn");
        let addr = handle.addr();
        let mut rejected = 0u32;
        for i in 0..8 {
            // Serial clients: each occupies the single slot; extra
            // connection attempts while a slot is held are rejected at
            // admission. The unsolicited `busy` frame is tagged by the
            // server and surfaced by the client as `ConnectionRefused`,
            // so a successful `ping` really is a pong — no reply
            // inspection needed. Admission races the previous holder's
            // handler thread retiring, so retry until admitted.
            let mut holder = loop {
                let mut candidate = BrokerClient::connect(addr).expect("connect holder");
                match candidate.ping() {
                    Ok(reply) => {
                        assert_eq!(reply.bool_field("ok"), Some(true), "pong expected: {reply}");
                        break candidate;
                    }
                    Err(err) if err.kind() == std::io::ErrorKind::ConnectionRefused => {
                        // The slot was still held.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(err) => panic!("holder admitted: {err}"),
                }
            };
            let mut probe = BrokerClient::connect(addr).expect("connect probe");
            match probe.ping() {
                Err(err) if err.kind() == std::io::ErrorKind::ConnectionRefused => rejected += 1,
                _ => {} // the holder may have been reaped already
            }
            let loc = format!("sat{i}");
            let service = &pool[i % pool.len()];
            let reply = holder.publish(&loc, service, None).expect("publish");
            assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
            acked.push((loc, service.clone()));
            drop(holder);
            // Give the handler thread a beat to retire so the next
            // client is admitted.
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(rejected > 0, "saturation never produced a busy rejection");
        handle.kill();
    }
    let handle = Broker::spawn(durable(&dir, 3)).expect("respawn");
    let mut client = BrokerClient::connect(handle.addr()).expect("connect");
    let repo = client.repo().expect("repo");
    let services = repo.get("services").and_then(Json::as_arr).unwrap();
    assert_eq!(services.len(), acked.len());
    for (loc, service) in &acked {
        assert!(
            services
                .iter()
                .any(|s| s.str_field("location") == Some(loc)
                    && s.str_field("service") == Some(service)),
            "acked publish at {loc} lost in replay"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: after a crash the broker rebuilds the composed product
/// for every registered client *before* accepting connections, so the
/// first post-recovery `plan` reads off the warmed product instead of
/// paying a cold rebuild.
#[test]
fn warm_start_primes_products_before_accepting_plans() {
    // Three sequential requests, each with two compliant candidate
    // services and one non-compliant decoy: 9 locations, 9³ = 729
    // candidate bindings, 8 surviving the composed product.
    const SCENARIO: &str = "
        client traveler {
          open 1 { int[q1 -> eps]; ext[a1 -> eps | b1 -> eps];
            open 2 { int[q2 -> eps]; ext[a2 -> eps | b2 -> eps];
              open 3 { int[q3 -> eps]; ext[a3 -> eps | b3 -> eps] } } }
        }
        service g1a { ext[q1 -> int[a1 -> eps]] }
        service g1b { ext[q1 -> int[b1 -> eps]] }
        service x1  { ext[q1 -> int[z1 -> eps]] }
        service g2a { ext[q2 -> int[a2 -> eps]] }
        service g2b { ext[q2 -> int[b2 -> eps]] }
        service x2  { ext[q2 -> int[z2 -> eps]] }
        service g3a { ext[q3 -> int[a3 -> eps]] }
        service g3b { ext[q3 -> int[b3 -> eps]] }
        service x3  { ext[q3 -> int[z3 -> eps]] }
    ";
    let sc = sufs_core::scenario::parse_scenario(SCENARIO).expect("scenario");
    let traveler = sc.client("traveler").expect("traveler").to_string();
    let compositional = || Json::obj().with("engine", "compositional");

    let dir = state_dir("warmstart");
    let mut steady = Duration::MAX;
    {
        let handle = Broker::spawn(durable(&dir, 100)).expect("spawn");
        let mut client = BrokerClient::connect(handle.addr()).expect("connect");
        let reply = client.publish_scenario(SCENARIO).expect("publish");
        assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
        // Steady state: the first query builds the product, the rest
        // read it off. Take the fastest read-off as the baseline.
        for i in 0..4 {
            let started = std::time::Instant::now();
            let reply = client
                .plan_with(&traveler, compositional())
                .expect("steady plan");
            let elapsed = started.elapsed();
            assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
            assert_eq!(
                reply.get("valid").and_then(Json::as_arr).map(<[_]>::len),
                Some(8),
                "{reply}"
            );
            if i > 0 {
                steady = steady.min(elapsed);
            }
        }
        handle.kill();
    }

    let handle = Broker::spawn(durable(&dir, 100)).expect("respawn");
    let mut client = BrokerClient::connect(handle.addr()).expect("reconnect");
    let started = std::time::Instant::now();
    let reply = client
        .plan_with(&traveler, compositional())
        .expect("post-recovery plan");
    let post_recovery = started.elapsed();
    assert_eq!(reply.bool_field("ok"), Some(true), "{reply}");
    assert_eq!(
        reply.get("valid").and_then(Json::as_arr).map(<[_]>::len),
        Some(8),
        "{reply}"
    );
    // The deterministic pin: the very first post-recovery query reused
    // the product the warm start rebuilt — it did not build one.
    let product = reply
        .get("stats")
        .and_then(|s| s.get("product"))
        .expect("product stats in reply");
    assert_eq!(
        product.bool_field("reused"),
        Some(true),
        "first post-recovery plan should read off the warmed product: {reply}"
    );
    let stats = client.stats().expect("stats");
    let products = stats.get("products").expect("products stats");
    assert_eq!(products.u64_field("warmed"), Some(1), "{stats}");
    // The acceptance bound: within 2× of steady state, with a floor so
    // sub-millisecond baselines don't turn scheduler jitter into flakes.
    let bound = (steady * 2).max(Duration::from_millis(50));
    assert!(
        post_recovery <= bound,
        "post-recovery plan took {post_recovery:?}, steady state {steady:?} (bound {bound:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite: an oversized frame now gets a structured
/// `frame_too_large` reply before the close (it used to be a silent
/// drop).
#[test]
fn oversized_frame_gets_structured_reply_then_close() {
    use std::io::Read as _;
    let handle = Broker::spawn(BrokerConfig::default()).expect("spawn");
    let mut conn = std::net::TcpStream::connect(handle.addr()).expect("connect");
    // Announce 17 MiB — over the 16 MiB cap — and send nothing else.
    conn.write_all(&(17u32 << 20).to_be_bytes()).expect("send");
    let mut len = [0u8; 4];
    conn.read_exact(&mut len).expect("reply length");
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    conn.read_exact(&mut payload).expect("reply payload");
    let reply: Json = sufs_broker::json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert_eq!(reply.bool_field("ok"), Some(false));
    assert_eq!(reply.str_field("kind"), Some("frame_too_large"));
    // …then the connection closes.
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());
}

/// Satellite: a reply dropped after the server applied the mutation is
/// healed by the reconnecting client — applied exactly once, retried
/// reply answered from the idempotency window.
#[test]
fn retried_publish_after_dropped_reply_applies_once() {
    // A seed whose connection 0 drops the reply and whose connection 1
    // (the reconnect) passes cleanly.
    let seed = (0u64..)
        .find(|&s| fault_for(s, 0) == Fault::DropReply && fault_for(s, 1) == Fault::None)
        .expect("such a seed exists");
    let dir = state_dir("dropack");
    let handle = Broker::spawn(durable(&dir, 100)).expect("spawn");
    let proxy = ChaosProxy::spawn(handle.addr(), seed).expect("proxy");
    let mut client = BrokerClient::connect(proxy.addr())
        .expect("connect")
        .with_reconnect(ReconnectPolicy::default())
        .with_request_seed(42);
    let reply = client
        .publish("once", &service_pool()[0].to_string(), None)
        .expect("publish heals through retry");
    // The first application's event — not `updated`, which a double
    // apply would produce.
    assert_eq!(reply.str_field("event"), Some("published once"));
    let mut direct = BrokerClient::connect(handle.addr()).expect("direct");
    let stats = direct.stats().expect("stats");
    let durability = stats
        .get("stats")
        .and_then(|s| s.get("durability"))
        .expect("durability counters");
    assert_eq!(durability.u64_field("dedup_hits"), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A duplicated request frame is applied once, and the connection it
/// was duplicated on delivers no reply at all: a stray second reply
/// must never be left to answer the client's next request.
#[test]
fn duplicated_frame_applies_once_and_its_connection_answers_nothing() {
    let seed = (0u64..)
        .find(|&s| fault_for(s, 0) == Fault::DuplicateThenClose && fault_for(s, 1) == Fault::None)
        .expect("such a seed exists");
    let dir = state_dir("dupframe");
    let handle = Broker::spawn(durable(&dir, 100)).expect("spawn");
    let proxy = ChaosProxy::spawn(handle.addr(), seed).expect("proxy");
    let req = Json::obj()
        .with("cmd", "publish")
        .with("location", "dup")
        .with("service", service_pool()[0].to_string().as_str())
        .with("req_id", "dup-0001");
    let mut first = BrokerClient::connect(proxy.addr()).expect("connect");
    assert!(
        first.request(&req).is_err(),
        "a connection cut by a duplicated frame delivered a reply"
    );
    let mut retry = BrokerClient::connect(proxy.addr()).expect("reconnect");
    let reply = retry.request(&req).expect("retry");
    assert_eq!(reply.str_field("event"), Some("published dup"), "{reply}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The whole PR is opt-in: without a state directory the broker writes
/// no files and keeps the PR-4 wire behaviour (pinned separately by
/// the untouched `broker_e2e` suite).
#[test]
fn no_state_dir_writes_no_files() {
    let probe = state_dir("probe-absent");
    let handle = Broker::spawn(BrokerConfig::default()).expect("spawn");
    let mut client = BrokerClient::connect(handle.addr()).expect("connect");
    client
        .publish("s", &service_pool()[0].to_string(), None)
        .expect("publish");
    let stats = client.stats().expect("stats");
    assert!(
        stats.get("journal").is_none(),
        "no journal section: {stats}"
    );
    assert!(!probe.exists());
}
