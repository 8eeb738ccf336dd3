//! Deterministic fault-injecting proxy for gom-wire connections.
//!
//! [`FaultProxy`] sits between a client and a gomd socket and injects the
//! network's greatest hits into the byte stream, in the spirit of
//! gom-store's `FailpointWriter` but at the transport layer:
//!
//! * **delays** — a pump pauses before forwarding a chunk;
//! * **partial writes** — a chunk is forwarded in two pieces with a pause
//!   between them (exercises frame reassembly);
//! * **stalls** — a prefix is forwarded, the connection goes silent past
//!   the server's I/O deadline, then drops (exercises the slow-loris
//!   `Timeout` path);
//! * **mid-frame drops** — both directions are torn down wherever the
//!   stream happens to be (exercises hangup rollback and commit-ack loss);
//! * **byte corruption** — one byte is flipped (exercises the CRC gate
//!   and the typed `Protocol` close).
//!
//! Faults fire on both directions, so a commit can be *applied* while its
//! ack is lost — exactly the case idempotent EES tokens exist for.
//!
//! The schedule is derived from a seed ([`gom_obs::SplitMix64`]), per
//! connection and direction, so a sweep is reproducible run-to-run: the
//! *decisions* are a pure function of the seed and chunk index. (Chunk
//! boundaries depend on kernel buffering, so byte-exact fault positions
//! may shift; the harness asserts outcomes, not positions.)

use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use gom_obs::SplitMix64;

/// What the proxy may inject, and how often.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Master seed; every per-connection schedule derives from it.
    pub seed: u64,
    /// Percent chance (0–100) that a forwarded chunk draws a fault.
    pub fault_chance_pct: u64,
    /// Faults injected per connection direction before it goes clean —
    /// bounds each connection's misbehaviour so runs terminate.
    pub max_faults_per_conn: u64,
    /// Silent period of a stall fault; pick it longer than the server's
    /// I/O deadline to force the `Timeout` path.
    pub stall: Duration,
    /// Upper bound on an injected delay.
    pub delay_max: Duration,
}

impl FaultPlan {
    /// A moderately hostile plan for `seed`: 25% chunk fault chance,
    /// at most 2 faults per direction, 150 ms stalls, ≤20 ms delays.
    pub fn hostile(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fault_chance_pct: 25,
            max_faults_per_conn: 2,
            stall: Duration::from_millis(150),
            delay_max: Duration::from_millis(20),
        }
    }
}

/// Counts of injected faults, for coverage assertions.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Proxied connections accepted.
    pub connections: u64,
    /// Delay faults injected.
    pub delays: u64,
    /// Partial-write (split chunk) faults injected.
    pub partials: u64,
    /// Stall-then-drop faults injected.
    pub stalls: u64,
    /// Mid-stream drops injected.
    pub drops: u64,
    /// Byte corruptions injected.
    pub corruptions: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    delays: AtomicU64,
    partials: AtomicU64,
    stalls: AtomicU64,
    drops: AtomicU64,
    corruptions: AtomicU64,
}

/// A running fault proxy. Dropping the handle leaves threads running;
/// call [`FaultProxy::stop`].
pub struct FaultProxy {
    socket: PathBuf,
    stopping: Arc<AtomicBool>,
    counters: Arc<Counters>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Listen on `socket` and forward every connection to `upstream`,
    /// injecting faults per `plan`.
    pub fn spawn(
        socket: impl Into<PathBuf>,
        upstream: impl Into<PathBuf>,
        plan: FaultPlan,
    ) -> std::io::Result<FaultProxy> {
        let socket = socket.into();
        let upstream = upstream.into();
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket)?;
        let stopping = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let accept = {
            let stopping = stopping.clone();
            let counters = counters.clone();
            std::thread::Builder::new()
                .name("fault-proxy".into())
                .spawn(move || accept_loop(listener, upstream, plan, stopping, counters))?
        };
        Ok(FaultProxy {
            socket,
            stopping,
            counters,
            accept: Some(accept),
        })
    }

    /// The socket clients should dial.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Injected-fault counts so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            connections: self.counters.connections.load(Ordering::SeqCst),
            delays: self.counters.delays.load(Ordering::SeqCst),
            partials: self.counters.partials.load(Ordering::SeqCst),
            stalls: self.counters.stalls.load(Ordering::SeqCst),
            drops: self.counters.drops.load(Ordering::SeqCst),
            corruptions: self.counters.corruptions.load(Ordering::SeqCst),
        }
    }

    /// Stop accepting and tear the proxy down. Live proxied connections
    /// are severed.
    pub fn stop(mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Wake the blocking accept.
        let _ = UnixStream::connect(&self.socket);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn accept_loop(
    listener: UnixListener,
    upstream: PathBuf,
    plan: FaultPlan,
    stopping: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    let mut conn_idx: u64 = 0;
    let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let client = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => break,
        };
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let server = match UnixStream::connect(&upstream) {
            Ok(s) => s,
            // Upstream gone (shut down mid-sweep): sever the client too.
            Err(_) => continue,
        };
        counters.connections.fetch_add(1, Ordering::SeqCst);
        conn_idx += 1;
        // Both directions share a drop latch so a mid-frame drop severs
        // the whole proxied connection, like a real network partition.
        // The proxy-wide stopping flag feeds the same latch so stop()
        // can join pumps whose endpoints are both still alive.
        let dropped = Arc::new(AtomicBool::new(false));
        for (dir, from, to) in [
            (0u64, client.try_clone(), server.try_clone()),
            (1u64, server.try_clone(), client.try_clone()),
        ] {
            let (Ok(from), Ok(to)) = (from, to) else {
                continue;
            };
            let seed = SplitMix64::new(plan.seed ^ conn_idx.rotate_left(17) ^ dir).next();
            let plan = plan.clone();
            let counters = counters.clone();
            let dropped = dropped.clone();
            let stopping = stopping.clone();
            if let Ok(h) = std::thread::Builder::new()
                .name(format!("fault-pump-{conn_idx}-{dir}"))
                .spawn(move || pump(from, to, seed, plan, counters, dropped, stopping))
            {
                pumps.push(h);
            }
        }
    }
    // Severing is enough; pumps exit on their next read/write error.
    for p in pumps {
        let _ = p.join();
    }
}

/// Forward bytes `from` → `to`, injecting planned faults. Exits on EOF,
/// error, or after injecting a drop.
#[allow(clippy::too_many_arguments)]
fn pump(
    mut from: UnixStream,
    mut to: UnixStream,
    seed: u64,
    plan: FaultPlan,
    counters: Arc<Counters>,
    dropped: Arc<AtomicBool>,
    stopping: Arc<AtomicBool>,
) {
    let mut rng = SplitMix64::new(seed);
    let mut faults_left = plan.max_faults_per_conn;
    let mut buf = [0u8; 4096];
    // A short read timeout so the pump notices the shared drop latch and
    // the proxy-wide stop flag.
    let _ = from.set_read_timeout(Some(Duration::from_millis(25)));
    loop {
        if dropped.load(Ordering::SeqCst) || stopping.load(Ordering::SeqCst) {
            sever(&from, &to);
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                sever(&from, &to);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => {
                sever(&from, &to);
                return;
            }
        };
        let chunk = &mut buf[..n];
        let fault = faults_left > 0 && (rng.below(100) as u64) < plan.fault_chance_pct;
        if !fault {
            if to.write_all(chunk).is_err() {
                sever(&from, &to);
                return;
            }
            continue;
        }
        faults_left -= 1;
        match rng.below(100) {
            // Delay: pause, then forward intact.
            0..=39 => {
                counters.delays.fetch_add(1, Ordering::SeqCst);
                let nanos = plan.delay_max.as_nanos().max(1) as usize;
                std::thread::sleep(Duration::from_nanos(1 + rng.below(nanos) as u64));
                if to.write_all(chunk).is_err() {
                    sever(&from, &to);
                    return;
                }
            }
            // Partial write: split the chunk, breathe, send the rest.
            40..=64 => {
                counters.partials.fetch_add(1, Ordering::SeqCst);
                let cut = 1 + rng.below(n.max(2) - 1);
                let ok = to.write_all(&chunk[..cut]).is_ok() && {
                    std::thread::sleep(Duration::from_millis(1 + rng.below(10) as u64));
                    to.write_all(&chunk[cut..]).is_ok()
                };
                if !ok {
                    sever(&from, &to);
                    return;
                }
            }
            // Corruption: flip one byte, let CRC catch it downstream.
            65..=84 => {
                counters.corruptions.fetch_add(1, Ordering::SeqCst);
                let at = rng.below(n);
                chunk[at] ^= 1 << rng.below(8);
                if to.write_all(chunk).is_err() {
                    sever(&from, &to);
                    return;
                }
            }
            // Stall: forward a prefix, go silent past the I/O deadline,
            // then drop the whole proxied connection.
            85..=92 => {
                counters.stalls.fetch_add(1, Ordering::SeqCst);
                let cut = 1 + rng.below(n.max(2) - 1);
                let _ = to.write_all(&chunk[..cut]);
                std::thread::sleep(plan.stall);
                dropped.store(true, Ordering::SeqCst);
                sever(&from, &to);
                return;
            }
            // Mid-frame drop: sever immediately, chunk unsent.
            _ => {
                counters.drops.fetch_add(1, Ordering::SeqCst);
                dropped.store(true, Ordering::SeqCst);
                sever(&from, &to);
                return;
            }
        }
    }
}

fn sever(a: &UnixStream, b: &UnixStream) {
    let _ = a.shutdown(std::net::Shutdown::Both);
    let _ = b.shutdown(std::net::Shutdown::Both);
}

/// Convenience for tests that need many proxies: a process-unique socket
/// path in the system temp directory.
pub fn scratch_socket(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    static LOCK: Mutex<()> = Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("gom-{tag}-{}-{n}.sock", std::process::id()))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_forwards_bytes_unchanged() {
        // fault_chance 0: the proxy must be a transparent pipe.
        let upstream_sock = scratch_socket("fp-upstream");
        let listener = UnixListener::bind(&upstream_sock).unwrap();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 64];
            let n = s.read(&mut buf).unwrap();
            s.write_all(&buf[..n]).unwrap();
        });
        let plan = FaultPlan {
            fault_chance_pct: 0,
            ..FaultPlan::hostile(1)
        };
        let proxy_sock = scratch_socket("fp-proxy");
        let proxy = FaultProxy::spawn(&proxy_sock, &upstream_sock, plan).unwrap();
        let mut c = UnixStream::connect(&proxy_sock).unwrap();
        c.write_all(b"ping-through-proxy").unwrap();
        let mut back = [0u8; 64];
        let n = c.read(&mut back).unwrap();
        assert_eq!(&back[..n], b"ping-through-proxy");
        echo.join().unwrap();
        let stats = proxy.stats();
        assert_eq!(stats.connections, 1);
        assert_eq!(
            stats.delays + stats.partials + stats.stalls + stats.drops + stats.corruptions,
            0
        );
        proxy.stop();
        let _ = std::fs::remove_file(&upstream_sock);
    }
}
