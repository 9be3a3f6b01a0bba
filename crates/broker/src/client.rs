//! The client side of the broker protocol.
//!
//! [`BrokerClient`] wraps one TCP connection and offers a typed helper
//! per command; every helper returns the raw reply object so callers
//! can inspect `ok`, `kind`, and the command-specific payload fields.
//!
//! # Idempotent retries
//!
//! Every mutation helper stamps its request with a fresh `req_id`
//! (UUID-shaped, drawn from the in-tree seeded RNG). Against a broker
//! running with `--state-dir`, the server remembers recently applied
//! mutation ids, so a retry of the *same* request — after a dropped
//! reply, a torn frame, a broker restart — is answered from the
//! recorded reply instead of being applied twice. Enable retries with
//! [`BrokerClient::with_reconnect`]: a bounded loop with exponential
//! backoff and jitter that redials the broker and resends the request
//! verbatim (same `req_id`) on any transport failure.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use sufs_rng::{Rng, SeedableRng, StdRng};

use crate::json::Json;
use crate::proto::{read_frame, write_frame};

/// Distinguishes request-id streams of clients created in the same
/// process with the default seed.
static CLIENT_COUNTER: AtomicU64 = AtomicU64::new(0);

/// How a [`BrokerClient`] retries after a transport failure.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Retries after the first failure (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_delay · 2ⁿ` (plus jitter) …
    pub base_delay: Duration,
    /// … capped at this much.
    pub max_delay: Duration,
    /// Ordered failover list, rotated through on redial: the first
    /// redial dials `addrs[0]`, the next `addrs[1]`, wrapping. Empty
    /// (the default) redials the address the client first connected
    /// to — the pre-replication behaviour.
    pub addrs: Vec<String>,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_retries: 6,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(500),
            addrs: Vec::new(),
        }
    }
}

impl ReconnectPolicy {
    /// Sets the ordered failover address list.
    #[must_use]
    pub fn with_addrs(mut self, addrs: Vec<String>) -> Self {
        self.addrs = addrs;
        self
    }

    /// The address the `redial`-th redial (0-based, counted over the
    /// client's lifetime) should dial, or `None` when the list is empty
    /// and the original peer should be re-dialled.
    pub fn addr_at(&self, redial: usize) -> Option<&str> {
        if self.addrs.is_empty() {
            None
        } else {
            Some(self.addrs[redial % self.addrs.len()].as_str())
        }
    }

    /// The delay before retry `attempt` (0-based): exponential backoff
    /// capped at `max_delay`, with the upper half jittered so a herd of
    /// clients retrying after one broker crash does not stampede in
    /// lockstep.
    fn delay(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let base = self.base_delay.as_millis() as u64;
        let max = self.max_delay.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(20)).min(max).max(1);
        let jittered = exp / 2 + rng.gen_range(0..exp / 2 + 1);
        Duration::from_millis(jittered)
    }
}

/// One connection to a broker daemon.
pub struct BrokerClient {
    stream: TcpStream,
    peer: SocketAddr,
    rng: StdRng,
    reconnect: Option<ReconnectPolicy>,
    /// Lifetime redial count; indexes the policy's failover rotation.
    redials: usize,
}

impl BrokerClient {
    /// Connects to a broker at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Frames are single writes, but small request/reply round trips
        // must not wait out Nagle against the peer's delayed ACKs.
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        // Request ids must differ across clients even when several are
        // created back to back, so the default seed mixes wall-clock
        // entropy with a process-wide counter. Tests that need
        // reproducible ids override it with `with_request_seed`.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        let seed = nanos
            ^ CLIENT_COUNTER
                .fetch_add(1, Ordering::Relaxed)
                .rotate_left(32);
        Ok(BrokerClient {
            stream,
            peer,
            rng: StdRng::seed_from_u64(seed),
            reconnect: None,
            redials: 0,
        })
    }

    /// Connects to the first reachable address of an ordered list — the
    /// multi-node entry point. Pair with
    /// [`ReconnectPolicy::with_addrs`] so later redials rotate through
    /// the same list.
    ///
    /// # Errors
    ///
    /// The *last* connect failure when every address is unreachable;
    /// `InvalidInput` on an empty list.
    pub fn connect_any(addrs: &[String]) -> io::Result<Self> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no addresses to dial");
        for addr in addrs {
            match Self::connect(addr.as_str()) {
                Ok(client) => return Ok(client),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Enables bounded reconnect-and-retry for this client.
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = Some(policy);
        self
    }

    /// Replaces the request-id RNG seed, making the id stream (and the
    /// retry jitter) fully deterministic — for tests and experiments.
    pub fn with_request_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// A fresh UUID-shaped request id (32 hex digits, 8-4-4-4-12).
    fn fresh_req_id(&mut self) -> String {
        let (a, b) = (self.rng.next_u64(), self.rng.next_u64());
        format!(
            "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            a >> 32,
            (a >> 16) & 0xffff,
            a & 0xffff,
            b >> 48,
            b & 0xffff_ffff_ffff
        )
    }

    /// Sends one request and waits for its reply. A drained connection
    /// surfaces the server's `shutting_down` reply; a connection closed
    /// with no reply at all is `ConnectionAborted`.
    ///
    /// An **unsolicited** rejection — the `busy` frame admission
    /// control writes before reading anything, tagged
    /// `"unsolicited": true` — is never returned as the reply: the
    /// request was not processed, so it surfaces as a
    /// `ConnectionRefused` transport error instead, which
    /// [`BrokerClient::request_retrying`] answers by backing off and
    /// redialling. Without the tag a saturated server's rejection could
    /// masquerade as the reply to whatever was just sent (a pong, say).
    ///
    /// # Errors
    ///
    /// I/O and framing errors from either direction. A mid-frame close
    /// carries a [`crate::proto::FrameError::TruncatedFrame`] naming
    /// expected vs received bytes.
    pub fn request(&mut self, request: &Json) -> io::Result<Json> {
        // A rejected connection may already hold the server's queued
        // rejection frame: sending is best-effort so the rejection is
        // still read back.
        let _ = write_frame(&mut self.stream, request);
        match read_frame(&mut self.stream)? {
            Some(reply) if reply.bool_field("unsolicited") == Some(true) => {
                let detail = reply.str_field("error").unwrap_or("rejected").to_owned();
                Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("connection rejected before the request was read: {detail}"),
                ))
            }
            Some(reply) => Ok(reply),
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "broker closed the connection without replying",
            )),
        }
    }

    /// [`BrokerClient::request`], retried under the reconnect policy
    /// (when one is set): on any transport failure the client backs
    /// off, redials — rotating through the policy's failover address
    /// list when one is configured — and resends the request
    /// **verbatim**: same `req_id`, so a durable broker applies a
    /// retried mutation exactly once even when the retry lands on a
    /// different node.
    ///
    /// A structured `not_primary` rejection is chased rather than
    /// rotated: when the follower's reply names its upstream, the
    /// retry dials *that* address directly — across an election this
    /// converges on the new primary in one hop per redirect instead of
    /// blindly cycling the address list.
    ///
    /// # Errors
    ///
    /// The final attempt's error once the retry budget is exhausted.
    pub fn request_retrying(&mut self, request: &Json) -> io::Result<Json> {
        let Some(policy) = self.reconnect.clone() else {
            return self.request(request);
        };
        let mut attempt = 0u32;
        loop {
            let hint = match self.request(request) {
                Ok(reply) => {
                    let redirect = reply.bool_field("ok") == Some(false)
                        && reply.str_field("kind") == Some("not_primary")
                        && attempt < policy.max_retries;
                    match reply.str_field("primary").filter(|p| !p.is_empty()) {
                        Some(primary) if redirect => Some(primary.to_owned()),
                        _ => return Ok(reply),
                    }
                }
                Err(e) if attempt < policy.max_retries => {
                    let _ = e; // every transport failure is retriable
                    None
                }
                Err(e) => return Err(e),
            };
            std::thread::sleep(policy.delay(attempt, &mut self.rng));
            attempt += 1;
            let target = match hint {
                Some(primary) => Some(primary),
                None => {
                    let rotated = policy.addr_at(self.redials).map(str::to_owned);
                    self.redials += 1;
                    rotated
                }
            };
            let dialled = match &target {
                Some(addr) => TcpStream::connect(addr.as_str()),
                None => TcpStream::connect(self.peer),
            };
            if let Ok(stream) = dialled {
                let _ = stream.set_nodelay(true);
                if let Ok(peer) = stream.peer_addr() {
                    self.peer = peer;
                }
                self.stream = stream;
            }
        }
    }

    /// Stamps `req` with a fresh `req_id` and sends it with retries.
    fn mutate(&mut self, mut req: Json) -> io::Result<Json> {
        req.set("req_id", self.fresh_req_id());
        self.request_retrying(&req)
    }

    /// `ping`.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn ping(&mut self) -> io::Result<Json> {
        self.request(&Json::obj().with("cmd", "ping"))
    }

    /// `publish` a service (optionally with a replication bound).
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn publish(
        &mut self,
        location: &str,
        service: &str,
        capacity: Option<u64>,
    ) -> io::Result<Json> {
        let mut req = Json::obj()
            .with("cmd", "publish")
            .with("location", location)
            .with("service", service);
        if let Some(cap) = capacity {
            req.set("capacity", cap);
        }
        self.mutate(req)
    }

    /// `publish_scenario`: merge a whole scenario text.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn publish_scenario(&mut self, text: &str) -> io::Result<Json> {
        self.mutate(
            Json::obj()
                .with("cmd", "publish_scenario")
                .with("text", text),
        )
    }

    /// `retract` a service.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn retract(&mut self, location: &str) -> io::Result<Json> {
        self.mutate(
            Json::obj()
                .with("cmd", "retract")
                .with("location", location),
        )
    }

    /// `retract_policy` by name.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn retract_policy(&mut self, name: &str) -> io::Result<Json> {
        self.mutate(Json::obj().with("cmd", "retract_policy").with("name", name))
    }

    /// `repo`: the current repository contents.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn repo(&mut self) -> io::Result<Json> {
        self.request_retrying(&Json::obj().with("cmd", "repo"))
    }

    /// `plan`: synthesize for a client history text.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn plan(&mut self, client: &str) -> io::Result<Json> {
        self.plan_with(client, Json::obj())
    }

    /// `plan` with `extra` fields (e.g. `max_valid`) merged into the
    /// request.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn plan_with(&mut self, client: &str, extra: Json) -> io::Result<Json> {
        let mut req = Json::obj().with("cmd", "plan").with("client", client);
        if let Json::Obj(fields) = extra {
            for (k, v) in fields {
                req.set(&k, v);
            }
        }
        self.request_retrying(&req)
    }

    /// `run`: execute a client history text; `extra` fields (plan,
    /// faults, recover, seed, fuel, committed, monitor) are merged into
    /// the request.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn run(&mut self, client: &str, extra: Json) -> io::Result<Json> {
        let mut req = Json::obj().with("cmd", "run").with("client", client);
        if let Json::Obj(fields) = extra {
            for (k, v) in fields {
                req.set(&k, v);
            }
        }
        self.request_retrying(&req)
    }

    /// `stats`.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request_retrying(&Json::obj().with("cmd", "stats"))
    }

    /// `lint`: run the broker's incremental lint engine over the live
    /// repository and fetch the full report.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn lint(&mut self) -> io::Result<Json> {
        self.request_retrying(&Json::obj().with("cmd", "lint"))
    }

    /// `promote`: ask a follower to become the primary.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn promote(&mut self) -> io::Result<Json> {
        self.request_retrying(&Json::obj().with("cmd", "promote"))
    }

    /// `shutdown`: ask the daemon to drain.
    ///
    /// # Errors
    ///
    /// As [`BrokerClient::request`].
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request(&Json::obj().with("cmd", "shutdown"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn req_ids_are_uuid_shaped_and_deterministic_under_a_seed() {
        // A client without a live socket: build the pieces directly.
        let mut rng = StdRng::seed_from_u64(7);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let expect = format!(
            "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            a >> 32,
            (a >> 16) & 0xffff,
            a & 0xffff,
            b >> 48,
            b & 0xffff_ffff_ffff
        );
        assert_eq!(expect.len(), 36);
        assert_eq!(expect.matches('-').count(), 4);
        // Same seed, same stream.
        let mut rng2 = StdRng::seed_from_u64(7);
        assert_eq!(rng2.next_u64(), a);
        assert_eq!(rng2.next_u64(), b);
    }

    #[test]
    fn redial_rotation_walks_the_address_list_in_order() {
        let policy = ReconnectPolicy::default().with_addrs(vec![
            "10.0.0.1:7001".to_owned(),
            "10.0.0.2:7001".to_owned(),
            "10.0.0.3:7001".to_owned(),
        ]);
        let walked: Vec<&str> = (0..7).filter_map(|n| policy.addr_at(n)).collect();
        assert_eq!(
            walked,
            [
                "10.0.0.1:7001",
                "10.0.0.2:7001",
                "10.0.0.3:7001",
                "10.0.0.1:7001",
                "10.0.0.2:7001",
                "10.0.0.3:7001",
                "10.0.0.1:7001",
            ]
        );
    }

    #[test]
    fn empty_address_list_redials_the_original_peer() {
        let policy = ReconnectPolicy::default();
        for n in 0..4 {
            assert_eq!(policy.addr_at(n), None);
        }
    }

    #[test]
    fn backoff_is_bounded_and_grows() {
        let policy = ReconnectPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            ..ReconnectPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut last_cap = 0;
        for attempt in 0..8 {
            let d = policy.delay(attempt, &mut rng).as_millis() as u64;
            // Jitter keeps the delay within [exp/2, exp] for the capped
            // exponential `exp`.
            let exp = (10u64 << attempt).min(100);
            assert!(d >= exp / 2 && d <= exp, "attempt {attempt}: {d}ms");
            last_cap = last_cap.max(d);
        }
        assert!(last_cap <= 100);
    }
}
