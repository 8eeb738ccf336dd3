//! The benchmark's workloads and the seeded traces they replay.
//!
//! Every workload replays `gom-trace` traces (the Piccioni evolution mix)
//! generated from the run's seed, one trace per writer with disjoint name
//! ranges, on a preloaded synthetic base of a stated size.

use gom_server::EvolutionOp;
use gom_store::SyncPolicy;
use gom_trace::{generate, ReadOp, Trace, TraceConfig, TraceOp};

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Types in the preloaded synthetic base.
    pub base_types: usize,
    /// Writer connections, each in its own thread.
    pub writers: usize,
    /// Sessions per second of all writers together. An open-loop writer
    /// keeps to it; closed-loop writers use it only to size their fixed
    /// share of sessions, which they run as fast as gomd allows.
    pub pace: f64,
    /// Most evolution primitives a trace session draws (uniformly from 1).
    pub max_ops: usize,
    /// An open-loop writer with a reader beside it for the whole measured
    /// time; otherwise closed-loop writers, then a read probe.
    pub open_loop: bool,
    /// Journal sync policy of the daemon.
    pub sync: SyncPolicy,
}

/// All workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "read_mix_synth500",
        base_types: 500,
        writers: 1,
        pace: 8.0,
        max_ops: 8,
        open_loop: true,
        sync: SyncPolicy::Never,
    },
    Workload {
        name: "contend_synth500",
        base_types: 500,
        writers: 2,
        pace: 220.0,
        max_ops: 4,
        open_loop: false,
        sync: SyncPolicy::OnCommit,
    },
];

/// Types of the preloaded base that receive instances.
pub const POPULATED_TYPES: usize = 50;

/// Instances created on each populated type.
pub const OBJECTS_PER_TYPE: usize = 2;

/// Share of the measured time closed-loop writers get at their nominal
/// pace; the read probe has the rest.
pub const WRITE_SHARE: f64 = 2.0 / 3.0;

/// Reads per second a closed-loop workload's read probe is sized for: in
/// each round it sends its share of `PROBE_PACE` reads per second of the
/// read share (`1 - WRITE_SHARE`) of the measured time.
pub const PROBE_PACE: f64 = 200.0;

/// Name-range stride between writers' traces.
const NAME_STRIDE: u64 = 1_000_000;

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Journal sync policy as its command-line word.
pub fn sync_word(sync: SyncPolicy) -> &'static str {
    match sync {
        SyncPolicy::Never => "never",
        SyncPolicy::OnCommit => "commit",
        SyncPolicy::Always => "always",
    }
}

impl Workload {
    /// Sessions each writer commits in a run of `seconds`. The count is
    /// fixed so that every run, however fast, ends at the same point of
    /// the trace: the schema keeps growing along a trace, and per-op cost
    /// with it.
    pub fn sessions_per_writer(&self, seconds: f64) -> usize {
        let share = if self.open_loop { 1.0 } else { WRITE_SHARE };
        (self.pace * seconds * share / self.writers as f64)
            .round()
            .max(1.0) as usize
    }

    /// Reads each round's probe sends in a run of `seconds` split into
    /// `rounds` rounds: whole cycles of `cycle` reads, at least one. An
    /// open-loop workload has no probe.
    pub fn probe_reads_per_round(&self, seconds: f64, rounds: usize, cycle: usize) -> u64 {
        if self.open_loop {
            return 0;
        }
        let reads = PROBE_PACE * seconds * (1.0 - WRITE_SHARE) / rounds as f64;
        let cycle = cycle.max(1) as f64;
        ((reads / cycle).round().max(1.0) * cycle) as u64
    }

    /// One trace per writer, generated from `seed` with disjoint name
    /// ranges so the writers' sessions never collide.
    pub fn traces(&self, seed: u64, seconds: f64) -> Vec<Trace> {
        let sessions = self.sessions_per_writer(seconds);
        (0..self.writers as u64)
            .map(|w| {
                generate(&TraceConfig {
                    seed: seed.wrapping_add(w),
                    sessions,
                    max_ops_per_session: self.max_ops,
                    name_offset: w * NAME_STRIDE,
                    ..TraceConfig::default()
                })
            })
            .collect()
    }
}

/// The read sequence every reader cycles through: the trace's three read
/// kinds, the same in every run, each always after the same predecessor.
/// One query text keeps the query latency in a single mode; with two
/// texts of different cost, or a kind that follows different reads, the
/// median flips between modes as their mix drifts around one half.
pub fn read_cycle() -> Vec<ReadOp> {
    vec![
        ReadOp::Query("Attr(T, N, D)".to_string()),
        ReadOp::Check,
        ReadOp::Digest,
    ]
}

/// The request a read op becomes on the wire.
pub fn read_request(read: &ReadOp) -> gom_server::Request {
    match read {
        ReadOp::Query(q) => gom_server::Request::Query(q.clone()),
        ReadOp::Check => gom_server::Request::Check,
        ReadOp::Digest => gom_server::Request::Digest,
    }
}

/// Lower one trace op to wire primitives. The wire has no rename or
/// retype primitive, so those become a delete followed by an add.
pub fn lower(op: &TraceOp) -> Vec<EvolutionOp> {
    let add = |ty: &str, name: &str, domain: &str| EvolutionOp::AddAttr {
        ty: ty.to_string(),
        name: name.to_string(),
        domain: domain.to_string(),
    };
    let del = |ty: &str, name: &str| EvolutionOp::DelAttr {
        ty: ty.to_string(),
        name: name.to_string(),
    };
    match op {
        TraceOp::DefineType { .. } => op
            .gom_source()
            .map(EvolutionOp::Define)
            .into_iter()
            .collect(),
        TraceOp::AddAttr { ty, name, domain } => vec![add(ty, name, domain)],
        TraceOp::DelAttr { ty, name } => vec![del(ty, name)],
        TraceOp::DelType { ty } => vec![EvolutionOp::DelType {
            ty: ty.clone(),
            semantics: "restrict".to_string(),
        }],
        TraceOp::RenameAttr {
            ty,
            from,
            to,
            domain,
        } => vec![del(ty, from), add(ty, to, domain)],
        TraceOp::RetypeAttr {
            ty,
            name,
            to_domain,
            ..
        } => vec![del(ty, name), add(ty, name, to_domain)],
    }
}

/// The wire requests of one trace session's ops.
pub fn session_ops(trace: &Trace, session: usize) -> Vec<EvolutionOp> {
    trace.sessions[session].ops.iter().flat_map(lower).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_distinct_and_findable() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn session_counts_follow_pace_and_writer_share() {
        let read_mix = find("read_mix_synth500").unwrap();
        assert_eq!(read_mix.sessions_per_writer(15.0), 120);
        let contend = find("contend_synth500").unwrap();
        assert_eq!(contend.sessions_per_writer(15.0), 1100);
        assert_eq!(contend.traces(1, 15.0)[1].sessions.len(), 1100);
    }

    #[test]
    fn traces_are_seeded_and_writers_disjoint() {
        let w = find("contend_synth500").unwrap();
        let a = w.traces(3, 1.0);
        let b = w.traces(3, 1.0);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].crc32(), b[0].crc32());
        assert_ne!(a[0].crc32(), a[1].crc32());
        assert_ne!(a[0].crc32(), w.traces(4, 1.0)[0].crc32());
    }

    #[test]
    fn rename_and_retype_lower_to_delete_then_add() {
        let op = TraceOp::RenameAttr {
            ty: "T@S".into(),
            from: "a".into(),
            to: "b".into(),
            domain: "int".into(),
        };
        let lowered = lower(&op);
        assert!(matches!(&lowered[0], EvolutionOp::DelAttr { name, .. } if name == "a"));
        assert!(matches!(&lowered[1], EvolutionOp::AddAttr { name, .. } if name == "b"));
    }
}
