//! The preloaded base and the gomd process that serves it.
//!
//! The base is a `gom_bench` synthetic schema with instances on its first
//! types, built in memory and written as one journal checkpoint. gomd is
//! this same executable started as `gomd-bench serve …`, which hosts
//! `gom_server::serve` on the journal, so daemon start-up includes
//! snapshot apply and the recovery fixpoint.

use crate::workload::{sync_word, Workload, OBJECTS_PER_TYPE, POPULATED_TYPES};
use gom_bench::{build_synth_schema, populate_objects, SynthParams};
use gom_core::SchemaManager;
use gom_server::{Client, Config, Reply, Request};
use gom_store::SyncPolicy;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Evaluation threads of every schema base in the benchmark.
pub const EVAL_THREADS: usize = 1;

/// How long start-up may take before the run is abandoned.
const START_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a stopping daemon may take to exit before it is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// Build the workload's base and write it to a fresh journal at `path`
/// as a single checkpoint. The base is the same for every seed (the
/// default synthetic seed); the run's seed picks the traces replayed on
/// it, so runs with different seeds differ in their load, not in how
/// deep the base's type hierarchy happens to be.
pub fn build_preload(path: &Path, w: &Workload) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let (mut mgr, _) =
        SchemaManager::open(path, SyncPolicy::Never).map_err(|e| format!("journal: {e}"))?;
    let types = build_synth_schema(
        &mut mgr,
        SynthParams {
            types: w.base_types,
            ..SynthParams::default()
        },
    );
    let populated = &types[..POPULATED_TYPES.min(types.len())];
    populate_objects(&mut mgr, populated, OBJECTS_PER_TYPE);
    mgr.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    Ok(())
}

/// A running gomd child process. Dropping it kills and reaps the child.
pub struct Daemon {
    child: Option<Child>,
    /// The daemon's socket path.
    pub socket: PathBuf,
}

impl Daemon {
    /// Start gomd on `store` and wait until it answers a request.
    pub fn start(socket: &Path, store: &Path, sync: SyncPolicy) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("serve")
            .arg(socket)
            .arg(store)
            .arg(sync_word(sync))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn gomd: {e}"))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Some(status) = daemon.exited() {
                return Err(format!("gomd exited during start-up: {status}"));
            }
            // gomd binds its socket only after recovery; the first answered
            // request marks the end of start-up.
            let answered = Client::connect(socket)
                .and_then(|mut c| c.request(&Request::Metrics))
                .is_ok_and(|r| matches!(r, Reply::Ok(_)));
            if answered {
                return Ok(daemon);
            }
            if Instant::now() >= deadline {
                return Err("gomd did not answer within the start-up timeout".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn exited(&mut self) -> Option<std::process::ExitStatus> {
        self.child
            .as_mut()
            .and_then(|c| c.try_wait().ok().flatten())
    }

    /// Peak resident set size of the daemon in kB (`VmHWM`).
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Ask the daemon to shut down and wait for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        if let Ok(mut c) = Client::connect(&self.socket) {
            let _ = c.request(&Request::Shutdown);
        }
        let deadline = Instant::now() + STOP_TIMEOUT;
        while Instant::now() < deadline {
            if let Some(status) = self.exited() {
                self.child = None;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("gomd exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("gomd did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Entry point of `gomd-bench serve <socket> <store> <never|commit>`:
/// host gomd until a client sends `Shutdown`.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let [socket, store, sync] = args else {
        return Err("usage: gomd-bench serve <socket> <store> <never|commit>".into());
    };
    let sync = SyncPolicy::parse(sync).ok_or_else(|| format!("bad sync policy {sync}"))?;
    let config = Config {
        store: Some(PathBuf::from(store)),
        sync,
        eval_threads: Some(EVAL_THREADS),
        max_connections: 8,
        ..Config::in_memory(socket)
    };
    let handle = gom_server::serve(config).map_err(|e| format!("gomd: {e}"))?;
    handle.join();
    Ok(())
}
