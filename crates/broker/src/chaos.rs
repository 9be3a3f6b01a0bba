//! A deterministic byte-level fault proxy for crash testing.
//!
//! [`ChaosProxy`] sits between a [`crate::BrokerClient`] and a broker,
//! forwarding TCP bytes while injecting transport faults chosen by a
//! seeded RNG: torn frames, mid-frame disconnects, delayed and
//! duplicated tail bytes, garbage injection, and slow-loris trickle.
//! Every fault ends by severing the connection, so a corrupted stream
//! never silently re-synchronises — the client sees a transport error
//! and retries with the same `req_id`, which is exactly the path the
//! idempotency window must make safe. Once a fault has decided to
//! sever, no further server bytes reach the client: a reply the fault
//! itself provoked (to a duplicated frame, say) would otherwise race
//! the cut and could land after the client had sent its next request.
//!
//! Determinism: connection `i` draws its fault plan from
//! `SplitMix64(seed ⊕ mix(i))`, so a failing test seed replays the
//! identical byte-level schedule every time.
//!
//! For *multi-node* chaos, [`ChaosLink`] is the complementary tool: a
//! proxy with no random schedule but a [`LinkControl`] handle the test
//! drives explicitly — partition/heal, asymmetric blackholing per
//! direction, and added latency. Put one in front of each follower's
//! upstream address and the harness can cut, degrade, and heal every
//! link of a cluster deterministically.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sufs_rng::{Rng, SeedableRng, StdRng};

/// One fault plan, chosen per proxied connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward everything untouched.
    None,
    /// Forward only a prefix of the client's bytes, then sever — the
    /// server sees a torn frame.
    TearRequest {
        /// Client bytes forwarded before the cut.
        after_bytes: usize,
    },
    /// Forward the request intact but sever before the server's reply
    /// reaches the client — the canonical dropped-ack.
    DropReply,
    /// Forward a prefix, then inject garbage bytes and sever.
    GarbageThenClose {
        /// Client bytes forwarded before the garbage.
        after_bytes: usize,
    },
    /// Forward the first chunk twice (a duplicated retransmit), then
    /// sever.
    DuplicateThenClose,
    /// Forward byte by byte with a delay between each — a slow-loris
    /// client. The connection survives; only time is lost.
    Trickle {
        /// Sleep between bytes.
        delay: Duration,
        /// Bytes trickled before reverting to normal forwarding.
        bytes: usize,
    },
    /// Hold the first client chunk back until the *second* arrives,
    /// then forward both in swapped order and sever.
    ReorderThenClose,
}

/// Draws the fault plan for connection `index` — public so tests can
/// predict the schedule for a given seed.
pub fn fault_for(seed: u64, index: u64) -> Fault {
    let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match rng.gen_range(0..10u32) {
        0..=2 => Fault::None,
        3 => Fault::TearRequest {
            after_bytes: rng.gen_range(1..64usize),
        },
        4 => Fault::DropReply,
        5 => Fault::GarbageThenClose {
            after_bytes: rng.gen_range(0..32usize),
        },
        6 => Fault::DuplicateThenClose,
        7 => Fault::Trickle {
            delay: Duration::from_micros(rng.gen_range(50..500u64)),
            bytes: rng.gen_range(8..64usize),
        },
        8 => Fault::ReorderThenClose,
        _ => Fault::DropReply,
    }
}

/// A seeded fault-injecting TCP proxy in front of a broker.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<AtomicU64>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral loopback port, forwarding to the
    /// broker at `upstream` with faults drawn from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(upstream: SocketAddr, seed: u64) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&connections);
        let acceptor = thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = stream else { continue };
                let index = accept_conns.fetch_add(1, Ordering::SeqCst);
                let fault = fault_for(seed, index);
                workers.retain(|w| !w.is_finished());
                workers.push(thread::spawn(move || {
                    let _ = proxy_connection(client, upstream, fault);
                }));
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(ChaosProxy {
            addr,
            stop,
            acceptor: Some(acceptor),
            connections,
        })
    }

    /// The proxy's listening address — point the client here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::SeqCst)
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Severs both directions of both sockets.
fn sever(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

/// Runs one proxied connection to completion under its fault plan.
fn proxy_connection(client: TcpStream, upstream: SocketAddr, fault: Fault) -> io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    let _ = server.set_nodelay(true);
    let _ = client.set_nodelay(true);

    // Server → client: plain forwarding, except DropReply which severs
    // as soon as the server has anything to say.
    let (srv_read, cli_write) = (server.try_clone()?, client.try_clone()?);
    let (cli_guard, srv_guard) = (client.try_clone()?, server.try_clone()?);
    let drop_reply = fault == Fault::DropReply;
    // Set by the upstream direction before it writes a fault's final
    // bytes: from then on the connection is being cut.
    let severing = Arc::new(AtomicBool::new(false));
    let cut = Arc::clone(&severing);
    let downstream = thread::spawn(move || {
        let mut from = srv_read;
        let mut to = cli_write;
        let mut buf = [0u8; 4096];
        loop {
            match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if drop_reply || cut.load(Ordering::SeqCst) {
                        // The reply exists (the server committed the
                        // mutation) but the client never sees it; past
                        // a fault's cut nothing reaches it at all.
                        break;
                    }
                    if to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        }
        sever(&cli_guard, &srv_guard);
    });

    // Client → server: the faulty direction.
    let result = forward_upstream(&client, &server, fault, &severing);
    sever(&client, &server);
    let _ = downstream.join();
    result
}

/// Forwards client bytes to the server under the fault plan, raising
/// `severing` before the bytes that end the connection.
fn forward_upstream(
    client: &TcpStream,
    server: &TcpStream,
    fault: Fault,
    severing: &AtomicBool,
) -> io::Result<()> {
    let sever_now = || severing.store(true, Ordering::SeqCst);
    let mut from = client.try_clone()?;
    let mut to = server.try_clone()?;
    let mut buf = [0u8; 4096];
    let mut forwarded = 0usize;
    let mut first_chunk: Option<Vec<u8>> = None;
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => return Ok(()),
            Ok(n) => n,
        };
        let chunk = &buf[..n];
        match fault {
            Fault::None | Fault::DropReply => to.write_all(chunk)?,
            Fault::TearRequest { after_bytes } => {
                let keep = chunk.len().min(after_bytes.saturating_sub(forwarded));
                let tear = forwarded + chunk.len() >= after_bytes;
                if tear {
                    sever_now();
                }
                to.write_all(&chunk[..keep])?;
                if tear {
                    return Ok(()); // sever: the frame stays torn
                }
            }
            Fault::GarbageThenClose { after_bytes } => {
                let keep = chunk.len().min(after_bytes.saturating_sub(forwarded));
                let garble = forwarded + chunk.len() >= after_bytes;
                if garble {
                    sever_now();
                }
                to.write_all(&chunk[..keep])?;
                if garble {
                    // Garbage that can never be a valid frame head: an
                    // oversized length prefix followed by noise.
                    to.write_all(&[0xff, 0xff, 0xff, 0xff, 0xde, 0xad])?;
                    return Ok(());
                }
            }
            Fault::DuplicateThenClose => {
                sever_now();
                to.write_all(chunk)?;
                to.write_all(chunk)?;
                return Ok(());
            }
            Fault::Trickle { delay, bytes } => {
                if forwarded >= bytes {
                    to.write_all(chunk)?;
                } else {
                    for (i, b) in chunk.iter().enumerate() {
                        if forwarded + i < bytes {
                            thread::sleep(delay);
                        }
                        to.write_all(std::slice::from_ref(b))?;
                    }
                }
            }
            Fault::ReorderThenClose => match first_chunk.take() {
                None => {
                    first_chunk = Some(chunk.to_vec());
                    // A client that sends one frame and then waits for
                    // its reply would deadlock against us here; give
                    // the second chunk a short window, then sever
                    // (quiet clients degrade to a torn request).
                    from.set_read_timeout(Some(Duration::from_millis(20)))?;
                }
                Some(held) => {
                    sever_now();
                    to.write_all(chunk)?;
                    to.write_all(&held)?;
                    return Ok(());
                }
            },
        }
        forwarded += n;
    }
}

/// The control handle of a [`ChaosLink`]: flip link conditions while
/// traffic flows. All switches take effect on the next chunk each
/// forwarding thread moves; `partition` additionally severs every live
/// connection, so both ends observe the cut immediately.
#[derive(Debug, Default)]
pub struct LinkControl {
    partitioned: AtomicBool,
    drop_up: AtomicBool,
    drop_down: AtomicBool,
    delay_us: AtomicU64,
    conns: Mutex<Vec<TcpStream>>,
}

impl LinkControl {
    /// Cuts the link: live connections are severed, new ones are
    /// refused until [`LinkControl::heal`].
    pub fn partition(&self) {
        self.partitioned.store(true, Ordering::SeqCst);
        let mut conns = self.conns.lock().expect("conns lock");
        for conn in conns.drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// Restores the link. Severed connections stay dead — the peers
    /// redial through the healed link, which for a replication follower
    /// means a fresh snapshot bootstrap.
    pub fn heal(&self) {
        self.partitioned.store(false, Ordering::SeqCst);
        self.drop_up.store(false, Ordering::SeqCst);
        self.drop_down.store(false, Ordering::SeqCst);
        self.delay_us.store(0, Ordering::SeqCst);
    }

    /// Asymmetric loss: silently discard bytes flowing client→upstream
    /// (`true` blackholes that direction). The reverse direction keeps
    /// flowing — the classic half-working link.
    pub fn drop_upstream(&self, on: bool) {
        self.drop_up.store(on, Ordering::SeqCst);
    }

    /// Asymmetric loss for the upstream→client direction.
    pub fn drop_downstream(&self, on: bool) {
        self.drop_down.store(on, Ordering::SeqCst);
    }

    /// Adds a per-chunk forwarding delay in both directions — a slow
    /// link that lags a follower without killing it.
    pub fn set_delay(&self, delay: Duration) {
        self.delay_us
            .store(delay.as_micros() as u64, Ordering::SeqCst);
    }

    /// `true` while the link is cut.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned.load(Ordering::SeqCst)
    }

    fn register(&self, conn: TcpStream) {
        let mut conns = self.conns.lock().expect("conns lock");
        conns.retain(|c| c.peer_addr().is_ok());
        conns.push(conn);
    }
}

/// A controllable proxy for one network link of a multi-node cluster.
///
/// Unlike [`ChaosProxy`] — which draws a random per-connection fault
/// plan — a `ChaosLink` forwards faithfully until the test flips a
/// switch on its [`LinkControl`]. Blackholed bytes are *discarded*, not
/// delayed: a framed peer that missed part of the stream fails to parse
/// the next frame and redials, which is exactly how the replication
/// protocol is designed to heal.
pub struct ChaosLink {
    addr: SocketAddr,
    control: Arc<LinkControl>,
    upstream: Arc<Mutex<Option<SocketAddr>>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosLink {
    /// Starts a link proxy on an ephemeral loopback port forwarding to
    /// `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(upstream: SocketAddr) -> io::Result<ChaosLink> {
        let link = ChaosLink::spawn_floating()?;
        link.set_upstream(upstream);
        Ok(link)
    }

    /// Starts a link proxy with no upstream yet: its address is stable
    /// from birth, and [`ChaosLink::set_upstream`] points (or
    /// re-points) it later. Connections arriving before an upstream is
    /// set are refused. This is what lets a cluster harness give every
    /// node a *fixed* public address across restarts: the node behind
    /// the link can be killed and respawned on a fresh ephemeral port,
    /// and the link simply re-targets.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn_floating() -> io::Result<ChaosLink> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let control = Arc::new(LinkControl::default());
        let upstream: Arc<Mutex<Option<SocketAddr>>> = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_control = Arc::clone(&control);
        let accept_upstream = Arc::clone(&upstream);
        let accept_stop = Arc::clone(&stop);
        let acceptor = thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = stream else { continue };
                if accept_control.is_partitioned() {
                    continue; // refused: dropping the stream closes it
                }
                let Some(target) = *accept_upstream.lock().expect("upstream lock") else {
                    continue; // no upstream yet: refused like a partition
                };
                let control = Arc::clone(&accept_control);
                workers.retain(|w| !w.is_finished());
                workers.push(thread::spawn(move || {
                    let _ = link_connection(client, target, &control);
                }));
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(ChaosLink {
            addr,
            control,
            upstream,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// Points the link at `upstream`. Live connections keep their old
    /// target; new ones dial the new one.
    pub fn set_upstream(&self, upstream: SocketAddr) {
        *self.upstream.lock().expect("upstream lock") = Some(upstream);
    }

    /// The link's listening address — point the downstream node here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The control handle; clone freely into the test harness.
    pub fn control(&self) -> Arc<LinkControl> {
        Arc::clone(&self.control)
    }
}

impl Drop for ChaosLink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.control.partition(); // sever everything in flight
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Direction of travel through a [`ChaosLink`], used to pick which
/// blackhole switch applies.
#[derive(Clone, Copy)]
enum LinkDir {
    /// client → upstream
    Up,
    /// upstream → client
    Down,
}

/// Forwards one direction of a [`ChaosLink`] connection, honouring the
/// control switches per chunk. Severs both sockets on exit so the
/// opposite pump unblocks too.
fn link_forward(mut from: TcpStream, mut to: TcpStream, control: &LinkControl, dir: LinkDir) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if control.is_partitioned() {
                    break;
                }
                let delay = control.delay_us.load(Ordering::SeqCst);
                if delay > 0 {
                    thread::sleep(Duration::from_micros(delay));
                }
                let dropped = match dir {
                    LinkDir::Up => control.drop_up.load(Ordering::SeqCst),
                    LinkDir::Down => control.drop_down.load(Ordering::SeqCst),
                };
                if dropped {
                    continue; // blackhole: bytes vanish
                }
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    sever(&from, &to);
}

/// Runs one proxied connection of a [`ChaosLink`]: dials the upstream,
/// registers both sockets with the control (so `partition()` can sever
/// them mid-flight) and pumps the two directions on separate threads.
fn link_connection(
    client: TcpStream,
    upstream: SocketAddr,
    control: &Arc<LinkControl>,
) -> io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    let _ = server.set_nodelay(true);
    let _ = client.set_nodelay(true);
    control.register(client.try_clone()?);
    control.register(server.try_clone()?);

    let up_control = Arc::clone(control);
    let (up_from, up_to) = (client.try_clone()?, server.try_clone()?);
    let up = thread::spawn(move || link_forward(up_from, up_to, &up_control, LinkDir::Up));
    link_forward(server, client, control, LinkDir::Down);
    let _ = up.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_schedule_is_deterministic_in_the_seed() {
        let a: Vec<Fault> = (0..32).map(|i| fault_for(0xfeed, i)).collect();
        let b: Vec<Fault> = (0..32).map(|i| fault_for(0xfeed, i)).collect();
        assert_eq!(a, b);
        let c: Vec<Fault> = (0..32).map(|i| fault_for(0xbeef, i)).collect();
        assert_ne!(a, c, "different seeds draw different schedules");
    }

    #[test]
    fn schedule_covers_every_fault_kind() {
        let mut kinds = [false; 7];
        for i in 0..512 {
            let k = match fault_for(42, i) {
                Fault::None => 0,
                Fault::TearRequest { .. } => 1,
                Fault::DropReply => 2,
                Fault::GarbageThenClose { .. } => 3,
                Fault::DuplicateThenClose => 4,
                Fault::Trickle { .. } => 5,
                Fault::ReorderThenClose => 6,
            };
            kinds[k] = true;
        }
        assert!(
            kinds.iter().all(|&k| k),
            "512 draws hit every kind: {kinds:?}"
        );
    }

    #[test]
    fn passthrough_proxy_forwards_bytes_exactly() {
        // An echo server upstream.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let echo = thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 256];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 || s.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        });
        // Seed chosen so connection 0 draws Fault::None.
        let seed = (0..).find(|&s| fault_for(s, 0) == Fault::None).unwrap();
        let proxy = ChaosProxy::spawn(upstream, seed).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"hello through the storm").unwrap();
        let mut back = [0u8; 23];
        conn.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello through the storm");
        drop(conn);
        drop(proxy);
        let _ = echo.join();
    }

    /// Echo server that serves every connection until dropped.
    fn spawn_echo() -> (SocketAddr, JoinHandle<()>, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let echo_stop = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            for stream in listener.incoming() {
                if echo_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut s) = stream else { continue };
                thread::spawn(move || {
                    let mut buf = [0u8; 256];
                    while let Ok(n) = s.read(&mut buf) {
                        if n == 0 || s.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        (addr, handle, stop)
    }

    fn stop_echo(addr: SocketAddr, handle: JoinHandle<()>, stop: &Arc<AtomicBool>) {
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        let _ = handle.join();
    }

    #[test]
    fn link_partition_severs_and_refuses_until_heal() {
        let (upstream, echo, stop) = spawn_echo();
        let link = ChaosLink::spawn(upstream).unwrap();
        let ctl = link.control();

        // Healthy link forwards round trips.
        let mut conn = TcpStream::connect(link.addr()).unwrap();
        conn.write_all(b"ping").unwrap();
        let mut back = [0u8; 4];
        conn.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ping");

        // Partition: the live connection dies...
        ctl.partition();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let dead = match conn.read(&mut back) {
            Ok(0) | Err(_) => true,
            Ok(_) => false,
        };
        assert!(dead, "partition severs in-flight connections");

        // ...and new dials get no service (accepted-then-closed or refused).
        let mut probe = TcpStream::connect(link.addr()).unwrap();
        probe
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        probe.write_all(b"ping").unwrap();
        let refused = match probe.read(&mut back) {
            Ok(0) | Err(_) => true,
            Ok(_) => false,
        };
        assert!(refused, "partitioned link serves no new connections");

        // Heal: fresh connections flow again.
        ctl.heal();
        let mut conn = TcpStream::connect(link.addr()).unwrap();
        conn.write_all(b"pong").unwrap();
        conn.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"pong");

        drop(conn);
        drop(link);
        stop_echo(upstream, echo, &stop);
    }

    #[test]
    fn link_blackhole_is_asymmetric() {
        let (upstream, echo, stop) = spawn_echo();
        let link = ChaosLink::spawn(upstream).unwrap();
        let ctl = link.control();

        let mut conn = TcpStream::connect(link.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();

        // Upstream direction blackholed: the echo never hears us.
        ctl.drop_upstream(true);
        conn.write_all(b"lost").unwrap();
        let mut back = [0u8; 4];
        assert!(
            conn.read_exact(&mut back).is_err(),
            "blackholed request produces no echo"
        );

        // Heal the direction: later bytes flow, earlier ones stay lost.
        ctl.drop_upstream(false);
        conn.write_all(b"kept").unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"kept");

        drop(conn);
        drop(link);
        stop_echo(upstream, echo, &stop);
    }
}
