//! Broker-side counters and the synthesis wall-time histogram.
//!
//! All counters are lock-free atomics so request handlers on different
//! connection threads never contend; `snapshot` assembles a consistent-
//! enough view for the `stats` reply (individual counters are exact,
//! cross-counter skew of a few in-flight requests is acceptable).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::json::Json;

/// Upper bucket bounds, in milliseconds, for the synthesis wall-time
/// histogram. A final implicit bucket catches everything above the
/// last bound.
pub const HISTOGRAM_BOUNDS_MS: [u64; 7] = [1, 5, 10, 50, 100, 500, 1000];

const BUCKETS: usize = HISTOGRAM_BOUNDS_MS.len() + 1;

/// Atomic counters shared by every connection thread of a broker.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Connections accepted and admitted.
    pub connections: AtomicU64,
    /// Connections turned away by admission control (`busy` reply).
    pub rejected_busy: AtomicU64,
    /// Total requests answered (any command, any outcome).
    pub requests: AtomicU64,
    /// Requests answered with `ok: false`.
    pub errors: AtomicU64,
    /// `publish`/`publish_policy`/`retract`/`retract_policy` mutations applied.
    pub mutations: AtomicU64,
    /// `plan` queries served.
    pub plans: AtomicU64,
    /// `run` requests served.
    pub runs: AtomicU64,
    /// Sessions that completed only after plan failover (PR-1 recovery).
    pub failed_over: AtomicU64,
    /// Mutation records appended to the write-ahead journal.
    pub journal_records: AtomicU64,
    /// Journal→snapshot compactions performed.
    pub snapshots: AtomicU64,
    /// Retried mutations answered from the idempotency window instead
    /// of being applied again.
    pub dedup_hits: AtomicU64,
    /// Journal records re-applied during the last recovery.
    pub replayed_records: AtomicU64,
    /// Wall time of the last startup recovery, in milliseconds.
    pub last_recovery_ms: AtomicU64,
    /// Journal records shipped to at least one follower (primary side).
    pub records_shipped: AtomicU64,
    /// Replicated records applied through the replay path (follower side).
    pub replicated_records: AtomicU64,
    /// Follower connections accepted (each implies a snapshot bootstrap
    /// served).
    pub follower_connects: AtomicU64,
    /// Snapshot bootstraps this node received as a follower.
    pub bootstraps_received: AtomicU64,
    /// Follower→primary promotions performed on this node.
    pub promotions: AtomicU64,
    /// Quorum-mode mutations whose acknowledgement wait timed out
    /// (applied locally, `"quorum": false` in the reply).
    pub quorum_timeouts: AtomicU64,
    /// `lint` requests served.
    pub lint_requests: AtomicU64,
    /// Mutations rejected by the `--deny-lint` gate.
    pub lint_rejections: AtomicU64,
    /// Lint passes actually (re)run by the incremental engine.
    pub lint_passes_run: AtomicU64,
    /// Lint passes spliced from the engine's dependency cache instead
    /// of being re-run.
    pub lint_passes_reused: AtomicU64,
    /// Client products rebuilt by the last recovery warm start.
    pub warmed_products: AtomicU64,
    /// Candidacies this node started (upstream silent, random delay
    /// elapsed, ballots sent).
    pub elections_started: AtomicU64,
    /// Candidacies this node won (promoted itself).
    pub elections_won: AtomicU64,
    /// Ballots this node granted to other candidates.
    pub votes_granted: AtomicU64,
    /// Primary↔follower role flips in either direction (promotions and
    /// demotions both count; re-points between upstreams do not).
    pub role_transitions: AtomicU64,
    /// Replication streams re-pointed at a different upstream without a
    /// restart (redirect chase, announce, or election loss).
    pub repoints: AtomicU64,
    /// Primary→follower demotions (stale primary fenced by a higher
    /// epoch).
    pub demotions: AtomicU64,
    /// Wall time of the last election this node won, in milliseconds,
    /// measured from detecting primary loss to promotion.
    pub last_election_ms: AtomicU64,
    histogram: [AtomicU64; BUCKETS],
    recovery_histogram: [AtomicU64; BUCKETS],
    replication_histogram: [AtomicU64; BUCKETS],
    election_histogram: [AtomicU64; BUCKETS],
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh, all-zero metrics block stamped with the current instant.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            connections: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            plans: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            failed_over: AtomicU64::new(0),
            journal_records: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            replayed_records: AtomicU64::new(0),
            last_recovery_ms: AtomicU64::new(0),
            records_shipped: AtomicU64::new(0),
            replicated_records: AtomicU64::new(0),
            follower_connects: AtomicU64::new(0),
            bootstraps_received: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            quorum_timeouts: AtomicU64::new(0),
            lint_requests: AtomicU64::new(0),
            lint_rejections: AtomicU64::new(0),
            lint_passes_run: AtomicU64::new(0),
            lint_passes_reused: AtomicU64::new(0),
            warmed_products: AtomicU64::new(0),
            elections_started: AtomicU64::new(0),
            elections_won: AtomicU64::new(0),
            votes_granted: AtomicU64::new(0),
            role_transitions: AtomicU64::new(0),
            repoints: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            last_election_ms: AtomicU64::new(0),
            histogram: Default::default(),
            recovery_histogram: Default::default(),
            replication_histogram: Default::default(),
            election_histogram: Default::default(),
        }
    }

    /// Records one synthesis call's wall time in the histogram.
    pub fn observe_synthesis(&self, elapsed: Duration) {
        bucket(&self.histogram, elapsed);
    }

    /// Records a startup recovery's wall time: the recovery-time
    /// histogram plus the `last_recovery_ms` gauge.
    pub fn observe_recovery(&self, elapsed: Duration) {
        let ms = bucket(&self.recovery_histogram, elapsed);
        self.last_recovery_ms.store(ms, Ordering::Relaxed);
    }

    /// Records one replicated record's ship→ack round trip as seen by
    /// the primary.
    pub fn observe_replication(&self, elapsed: Duration) {
        bucket(&self.replication_histogram, elapsed);
    }

    /// Records one won election's detect→promoted wall time: the
    /// election histogram plus the `last_election_ms` gauge.
    pub fn observe_election(&self, elapsed: Duration) {
        let ms = bucket(&self.election_histogram, elapsed);
        self.last_election_ms.store(ms, Ordering::Relaxed);
    }

    /// Renders every counter, the histogram, and the uptime as a JSON
    /// object for the `stats` reply.
    pub fn snapshot(&self, cache_hits: u64, cache_misses: u64) -> Json {
        let load = Ordering::Relaxed;
        let total = cache_hits + cache_misses;
        let hit_rate = if total == 0 {
            0.0
        } else {
            cache_hits as f64 / total as f64
        };
        let render_hist = |buckets: &[AtomicU64; BUCKETS]| {
            let mut hist = Json::obj();
            for (i, bound) in HISTOGRAM_BOUNDS_MS.iter().enumerate() {
                hist.set(&format!("le_{bound}ms"), buckets[i].load(load));
            }
            hist.set("inf", buckets[BUCKETS - 1].load(load));
            hist
        };
        let hist = render_hist(&self.histogram);
        let durability = Json::obj()
            .with("journal_records", self.journal_records.load(load))
            .with("snapshots", self.snapshots.load(load))
            .with("dedup_hits", self.dedup_hits.load(load))
            .with("replayed_records", self.replayed_records.load(load))
            .with("last_recovery_ms", self.last_recovery_ms.load(load))
            .with("warmed_products", self.warmed_products.load(load))
            .with(
                "recovery_ms_histogram",
                render_hist(&self.recovery_histogram),
            );
        let replication = Json::obj()
            .with("records_shipped", self.records_shipped.load(load))
            .with("replicated_records", self.replicated_records.load(load))
            .with("follower_connects", self.follower_connects.load(load))
            .with("bootstraps_received", self.bootstraps_received.load(load))
            .with("promotions", self.promotions.load(load))
            .with("quorum_timeouts", self.quorum_timeouts.load(load))
            .with("elections_started", self.elections_started.load(load))
            .with("elections_won", self.elections_won.load(load))
            .with("votes_granted", self.votes_granted.load(load))
            .with("role_transitions", self.role_transitions.load(load))
            .with("repoints", self.repoints.load(load))
            .with("demotions", self.demotions.load(load))
            .with("last_election_ms", self.last_election_ms.load(load))
            .with(
                "replication_ms_histogram",
                render_hist(&self.replication_histogram),
            )
            .with(
                "election_ms_histogram",
                render_hist(&self.election_histogram),
            );
        let passes_run = self.lint_passes_run.load(load);
        let passes_reused = self.lint_passes_reused.load(load);
        let reuse_total = passes_run + passes_reused;
        let reuse_rate = if reuse_total == 0 {
            0.0
        } else {
            passes_reused as f64 / reuse_total as f64
        };
        let lint = Json::obj()
            .with("requests", self.lint_requests.load(load))
            .with("rejections", self.lint_rejections.load(load))
            .with("passes_run", passes_run)
            .with("passes_reused", passes_reused)
            .with("reuse_rate", reuse_rate);
        Json::obj()
            .with("uptime_ms", self.started.elapsed().as_millis() as u64)
            .with("connections", self.connections.load(load))
            .with("rejected_busy", self.rejected_busy.load(load))
            .with("requests", self.requests.load(load))
            .with("errors", self.errors.load(load))
            .with("mutations", self.mutations.load(load))
            .with("plans", self.plans.load(load))
            .with("runs", self.runs.load(load))
            .with("failed_over", self.failed_over.load(load))
            .with("cache_hits", cache_hits)
            .with("cache_misses", cache_misses)
            .with("cache_hit_rate", hit_rate)
            .with("synthesis_ms_histogram", hist)
            .with("durability", durability)
            .with("replication", replication)
            .with("lint", lint)
    }
}

/// Counts `elapsed` into the first bucket whose bound it does not
/// exceed (the last bucket catches the rest) and returns it in whole
/// milliseconds.
fn bucket(histogram: &[AtomicU64; BUCKETS], elapsed: Duration) -> u64 {
    let ms = elapsed.as_millis() as u64;
    let idx = HISTOGRAM_BOUNDS_MS
        .iter()
        .position(|&bound| ms <= bound)
        .unwrap_or(BUCKETS - 1);
    histogram[idx].fetch_add(1, Ordering::Relaxed);
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_upper_bound() {
        let m = Metrics::new();
        m.observe_synthesis(Duration::from_millis(0));
        m.observe_synthesis(Duration::from_millis(1));
        m.observe_synthesis(Duration::from_millis(7));
        m.observe_synthesis(Duration::from_millis(2000));
        let snap = m.snapshot(0, 0);
        let hist = snap.get("synthesis_ms_histogram").unwrap();
        assert_eq!(hist.u64_field("le_1ms"), Some(2));
        assert_eq!(hist.u64_field("le_10ms"), Some(1));
        assert_eq!(hist.u64_field("inf"), Some(1));
    }

    #[test]
    fn snapshot_reports_hit_rate() {
        let m = Metrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        let snap = m.snapshot(3, 1);
        assert_eq!(snap.u64_field("requests"), Some(3));
        assert!((snap.get("cache_hit_rate").unwrap().as_f64().unwrap() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn zero_traffic_hit_rate_is_zero() {
        let snap = Metrics::new().snapshot(0, 0);
        assert_eq!(snap.get("cache_hit_rate").unwrap().as_f64(), Some(0.0));
        let lint = snap.get("lint").unwrap();
        assert_eq!(lint.get("reuse_rate").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn replication_section_pins_election_schema() {
        let m = Metrics::new();
        m.elections_started.fetch_add(3, Ordering::Relaxed);
        m.elections_won.fetch_add(1, Ordering::Relaxed);
        m.votes_granted.fetch_add(2, Ordering::Relaxed);
        m.role_transitions.fetch_add(2, Ordering::Relaxed);
        m.repoints.fetch_add(4, Ordering::Relaxed);
        m.demotions.fetch_add(1, Ordering::Relaxed);
        m.observe_election(Duration::from_millis(42));
        let snap = m.snapshot(0, 0);
        let repl = snap.get("replication").unwrap();
        assert_eq!(repl.u64_field("elections_started"), Some(3));
        assert_eq!(repl.u64_field("elections_won"), Some(1));
        assert_eq!(repl.u64_field("votes_granted"), Some(2));
        assert_eq!(repl.u64_field("role_transitions"), Some(2));
        assert_eq!(repl.u64_field("repoints"), Some(4));
        assert_eq!(repl.u64_field("demotions"), Some(1));
        assert_eq!(repl.u64_field("last_election_ms"), Some(42));
        let hist = repl.get("election_ms_histogram").unwrap();
        assert_eq!(hist.u64_field("le_50ms"), Some(1));
        assert_eq!(hist.u64_field("inf"), Some(0));
    }

    #[test]
    fn election_histogram_buckets_by_upper_bound() {
        let m = Metrics::new();
        m.observe_election(Duration::from_millis(0));
        m.observe_election(Duration::from_millis(2000));
        let snap = m.snapshot(0, 0);
        let hist = snap
            .get("replication")
            .unwrap()
            .get("election_ms_histogram")
            .unwrap();
        assert_eq!(hist.u64_field("le_1ms"), Some(1));
        assert_eq!(hist.u64_field("inf"), Some(1));
        assert_eq!(
            snap.get("replication")
                .unwrap()
                .u64_field("last_election_ms"),
            Some(2000)
        );
    }

    #[test]
    fn lint_reuse_rate_is_reused_over_total() {
        let m = Metrics::new();
        m.lint_passes_run.fetch_add(1, Ordering::Relaxed);
        m.lint_passes_reused.fetch_add(3, Ordering::Relaxed);
        let snap = m.snapshot(0, 0);
        let lint = snap.get("lint").unwrap();
        assert_eq!(lint.u64_field("passes_run"), Some(1));
        assert_eq!(lint.u64_field("passes_reused"), Some(3));
        assert!((lint.get("reuse_rate").unwrap().as_f64().unwrap() - 0.75).abs() < 1e-9);
    }
}
