//! Minimal blocking gom-wire/v1 client, with typed-error retry.
//!
//! The server's failure vocabulary is structured (`Busy`,
//! `Overloaded{active,max}`, `Timeout`, `LeaseExpired`), so the client can
//! make a principled retry decision instead of pattern-matching message
//! strings: [`Client::request_retry`] retries `Busy` in place and
//! `Overloaded` after a reconnect (the server closes a shed connection),
//! with deterministic jittered exponential backoff so a thundering herd of
//! rejected writers de-synchronises itself.

use crate::wire::{self, ErrorKind, Reply, Request};
use gom_obs::SplitMix64;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Jittered exponential backoff schedule for retryable replies.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retry.
    pub attempts: u32,
    /// Backoff before retry k (1-based) is drawn uniformly from
    /// `[base·2^(k-1) / 2, base·2^(k-1)]`, capped at `cap`.
    pub base: Duration,
    /// Upper bound on a single backoff sleep.
    pub cap: Duration,
    /// Seed for the jitter PRNG — fixed seeds make retry schedules
    /// reproducible under the chaos harness.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The jittered sleep before retry `attempt` (1-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(self.cap);
        let nanos = exp.as_nanos().max(1) as u64;
        let mut rng = SplitMix64::new(self.seed ^ u64::from(attempt));
        // Uniform in [nanos/2, nanos]: full-range jitter de-synchronises
        // herds while keeping the schedule roughly exponential.
        let jittered = nanos / 2 + rng.next() % (nanos / 2 + 1);
        Duration::from_nanos(jittered)
    }
}

/// Cumulative retry accounting for [`Client::request_retry_stats`] — the
/// SLO harness folds these into its shed/busy columns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// `Busy` replies retried in place.
    pub busy_retries: u64,
    /// `Overloaded` sheds retried after a reconnect.
    pub overloaded_retries: u64,
    /// `LeaseExpired` replies observed (not retried here — the caller
    /// must re-`Bes` — but counted for the report).
    pub lease_expired: u64,
}

/// A connected gomd client. One request in flight at a time.
///
/// Every frame carries a client-assigned request id (monotonically
/// increasing per client, starting at 1) in the gom-wire request-id
/// envelope; the server propagates it into its spans, trace events, and
/// slow-request log, so a slow server-side request can be tied back to
/// the exact client call that issued it.
pub struct Client {
    stream: UnixStream,
    socket: PathBuf,
    io_timeout: Option<Duration>,
    next_req_id: u64,
}

impl Client {
    /// Connect to a listening daemon.
    pub fn connect(socket: &Path) -> io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        Ok(Client {
            stream,
            socket: socket.to_path_buf(),
            io_timeout: None,
            next_req_id: 1,
        })
    }

    /// Connect, retrying until the socket accepts or `timeout` elapses —
    /// for racing a freshly spawned daemon. Failed attempts back off
    /// (1 ms doubling to 50 ms) instead of hammering `connect(2)` in a
    /// hot loop.
    pub fn connect_within(socket: &Path, timeout: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Duration::from_millis(1);
        loop {
            match UnixStream::connect(socket) {
                Ok(stream) => {
                    return Ok(Client {
                        stream,
                        socket: socket.to_path_buf(),
                        io_timeout: None,
                        next_req_id: 1,
                    })
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => {
                    std::thread::sleep(
                        backoff.min(deadline.saturating_duration_since(Instant::now())),
                    );
                    backoff = (backoff * 2).min(Duration::from_millis(50));
                }
            }
        }
    }

    /// The socket path this client connected to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Bound every read and write on this connection (and on future
    /// reconnects) by `timeout`. Without one, a reply whose length header
    /// was mangled in flight leaves [`Client::request`] blocked forever
    /// waiting for payload bytes that will never arrive — the client-side
    /// mirror of the server's I/O deadline. A timed-out stream is
    /// desynchronised mid-frame; callers must [`Client::reconnect`], not
    /// retry on it.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.io_timeout = timeout;
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Drop the current stream and dial the socket again.
    pub fn reconnect(&mut self) -> io::Result<()> {
        self.stream = UnixStream::connect(&self.socket)?;
        self.stream.set_read_timeout(self.io_timeout)?;
        self.stream.set_write_timeout(self.io_timeout)?;
        Ok(())
    }

    /// The request id the next frame will carry.
    pub fn next_req_id(&self) -> u64 {
        self.next_req_id
    }

    /// Send one request and block for its reply. The frame carries this
    /// client's next request id (ids keep increasing across retries and
    /// reconnects, so every attempt is distinguishable server-side).
    pub fn request(&mut self, req: &Request) -> io::Result<Reply> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        wire::write_frame(&mut self.stream, &req.encode_with_id(req_id))?;
        match wire::read_frame(&mut self.stream)? {
            Some(frame) => Reply::decode(&frame).map_err(io::Error::from),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )),
        }
    }

    /// Send one request, retrying load-oriented rejections under
    /// `policy`: `Busy` is retried on the live connection (the server
    /// keeps it open), `Overloaded` after a reconnect (a shed connection
    /// is closed). Any other reply — including `Timeout` and
    /// `LeaseExpired`, which need a session-aware response — is returned
    /// to the caller as-is, as are I/O errors.
    pub fn request_retry(&mut self, req: &Request, policy: &RetryPolicy) -> io::Result<Reply> {
        let mut stats = RetryStats::default();
        self.request_retry_stats(req, policy, &mut stats)
    }

    /// [`Client::request_retry`] with retry accounting: every `Busy`
    /// retry, `Overloaded` reconnect-retry, and observed `LeaseExpired`
    /// is tallied into `stats` (cumulative across calls), so a load
    /// driver can report contention alongside latency.
    pub fn request_retry_stats(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
        stats: &mut RetryStats,
    ) -> io::Result<Reply> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let reply = self.request(req)?;
            let out_of_attempts = attempt >= policy.attempts.max(1);
            match &reply {
                Reply::Error { kind, .. } if *kind == ErrorKind::Busy && !out_of_attempts => {
                    stats.busy_retries += 1;
                    std::thread::sleep(policy.delay(attempt));
                }
                Reply::Overloaded { .. } if !out_of_attempts => {
                    stats.overloaded_retries += 1;
                    std::thread::sleep(policy.delay(attempt));
                    self.reconnect()?;
                }
                _ => {
                    if matches!(
                        &reply,
                        Reply::Error {
                            kind: ErrorKind::LeaseExpired,
                            ..
                        }
                    ) {
                        stats.lease_expired += 1;
                    }
                    return Ok(reply);
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_jittered_bounded_and_deterministic() {
        let p = RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(4),
            cap: Duration::from_millis(40),
            seed: 7,
        };
        for attempt in 1..=6 {
            let exp = p.base.saturating_mul(1 << (attempt - 1)).min(p.cap);
            let d = p.delay(attempt);
            assert!(d >= exp / 2, "jitter floor: {d:?} < {:?}", exp / 2);
            assert!(d <= exp, "jitter ceiling: {d:?} > {exp:?}");
            assert_eq!(d, p.delay(attempt), "same seed, same schedule");
        }
        // Different seeds de-synchronise.
        let q = RetryPolicy { seed: 8, ..p };
        assert!((1..=6).any(|a| p.delay(a) != q.delay(a)));
    }
}
