//! gomd end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path gomd_bench/Cargo.toml -- \
//!     --workload contend_synth500 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One run builds a synthetic base into a journal checkpoint, starts gomd
//! on it (this executable, as `gomd-bench serve`), drives it over its Unix
//! socket with at most two client connections, and replays the committed
//! sessions in-process to check the daemon's final digest. It prints a
//! human-readable report on stderr and, as the last line of stdout, one
//! JSON object: the end-to-end metrics with `--trace 0`, or with
//! `--trace 1` the per-layer metrics of a traced in-process replay of the
//! same sessions. Set-up runs [`SETUPS`] times and reports the median.
//!
//! Scratch files live in `.bench_work/<pid>/` under the current directory
//! and are removed at exit; the traced run writes its spans to
//! `.bench_out/`.

mod daemon;
mod drive;
mod layers;
mod mirror;
mod report;
mod schedule;
mod spans;
mod stats;
mod workload;

use daemon::{Daemon, EVAL_THREADS};
use report::{Metrics, END_TO_END, PER_LAYER};
use stats::{nanos, Samples};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::Workload;

/// Set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: gomd-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::find(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        if let Err(e) = daemon::serve_main(&args[1..]) {
            eprintln!("gomd-bench serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gomd-bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = Path::new(".bench_work").join(std::process::id().to_string());
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("{}: {e}", work.display()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    // Removes the parent only when no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("gomd-bench: {e}");
            std::process::exit(1);
        }
    }
}

/// Set up, drive, check and report one run. Returns the result line and
/// whether every output check passed.
fn run(a: &Args, work: &Path) -> Result<(String, bool), String> {
    let w = a.workload;
    let traces = w.traces(a.seed, a.seconds as f64);
    let reads = workload::read_cycle();
    let crcs: Vec<String> = traces
        .iter()
        .map(|t| format!("{:08x}", t.crc32()))
        .collect();
    eprintln!(
        "workload {} seed {} seconds {}: base synth{} ({} populated types), {} writer(s), {}, \
         sync {}, eval threads {EVAL_THREADS}, trace crc32 {}",
        w.name,
        a.seed,
        a.seconds,
        w.base_types,
        workload::POPULATED_TYPES,
        w.writers,
        if w.open_loop {
            format!("open loop at {}/s beside a reader", w.pace)
        } else {
            format!(
                "closed loop for {} sessions per writer, then a read probe",
                w.sessions_per_writer(a.seconds as f64)
            )
        },
        workload::sync_word(w.sync),
        crcs.join(",")
    );

    // Set-up: build the preload, start gomd on it, first request served.
    let pristine = work.join("base.gomj");
    let mut setup = Samples::default();
    let mut daemon: Option<Daemon> = None;
    for i in 0..SETUPS {
        if let Some(d) = daemon.take() {
            d.stop()?;
        }
        let store = work.join(format!("served{i}.gomj"));
        let t = Instant::now();
        daemon::build_preload(&store, &w)?;
        // The replays start from a copy of the checkpoint, taken off the
        // set-up clock.
        let t_copy = Instant::now();
        std::fs::copy(&store, &pristine).map_err(|e| format!("copy base: {e}"))?;
        let copy = t_copy.elapsed();
        daemon = Some(Daemon::start(
            &work.join(format!("gomd{i}.sock")),
            &store,
            w.sync,
        )?);
        setup.push(nanos(t.elapsed().saturating_sub(copy)));
    }
    let daemon = daemon.ok_or("no set-up ran")?;

    let run = drive::run(
        &daemon.socket,
        &w,
        &traces,
        &reads,
        a.seed,
        a.seconds as f64,
    );
    let served = drive::final_digest(&daemon.socket);
    let rss_kb = daemon.peak_rss_kb();
    daemon.stop()?;

    let mut errors: Vec<String> = run
        .writers()
        .filter_map(|o| o.error.clone())
        .chain(run.readers().filter_map(|r| r.error.clone()))
        .collect();
    let served = served.unwrap_or_else(|e| {
        errors.push(e);
        String::new()
    });

    // Committed sessions in reported-epoch order, round by round; epochs
    // must run 1..=N across the rounds. Reads leave the published state
    // alone, so the output check replays the writes and one cycle of each
    // probe (to compare query rows); only the traced run replays every
    // read, for the read-path layers.
    let mut rounds = Vec::new();
    let mut epochs = Vec::new();
    for round in &run.rounds {
        let mut commits: Vec<drive::Commit> = round
            .writers
            .iter()
            .flat_map(|o| o.commits.iter().copied())
            .collect();
        commits.sort_by_key(|c| c.epoch);
        epochs.extend(commits.iter().map(|c| c.epoch));
        let n = commits.len() as u64;
        let reads_after = if a.trace && run.concurrent {
            let at = |e: u64| (e * round.reader.reads + n / 2) / n.max(1);
            (1..=n).map(|e| at(e) - at(e - 1)).collect()
        } else {
            Vec::new()
        };
        let probe_reads = match (run.concurrent, a.trace) {
            (true, _) => 0,
            (false, true) => round.reader.reads,
            (false, false) => round.reader.reads.min(reads.len() as u64),
        };
        rounds.push(mirror::RoundPlan {
            commits,
            reads_after,
            probe_reads,
        });
    }
    if epochs.iter().enumerate().any(|(i, &e)| e != i as u64 + 1) {
        errors.push("committed epochs are not 1..=N".into());
    }
    let n = epochs.len();
    let plan = mirror::Plan {
        traces: &traces,
        rounds,
        reads: &reads,
        sync: w.sync,
    };

    // Output check: the untraced replay must reach the daemon's digest.
    let replay = |name: &str, traced: bool| -> Result<mirror::MirrorOut, String> {
        let journal = work.join(name);
        std::fs::copy(&pristine, &journal).map_err(|e| format!("copy base: {e}"))?;
        let out = mirror::replay(&journal, &plan, traced)?;
        let _ = std::fs::remove_file(&journal);
        Ok(out)
    };
    let untraced = replay("replay.gomj", false)?;
    check_replay(&untraced, &served, &run, &mut errors);

    let (mut e2e, notes) = end_to_end(&run, &setup, rss_kb)?;
    let attempted: u64 = run.writers().map(|o| o.attempted).sum::<u64>()
        + run.readers().map(|r| r.attempted).sum::<u64>();
    let failed: u64 =
        run.writers().map(|o| o.failed).sum::<u64>() + run.readers().map(|r| r.failed).sum::<u64>();
    eprintln!(
        "commits {n} in {} round(s), reads {}, requests {attempted}, failed {failed}, \
         busy retries {}",
        run.rounds.len(),
        run.readers().map(|r| r.reads).sum::<u64>(),
        busy_retries(&run)
    );
    e2e.set(
        "client.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );
    print_rows(&END_TO_END, &e2e, &notes);
    print_rows(&report::CLIENT, &e2e, &notes);

    let (spec, metrics): (&[(&'static str, &'static str)], Metrics) = if a.trace {
        // Untraced replays on both sides of the traced one, so the order
        // of the replays does not bias the tracing overhead.
        let traced = replay("replay-traced.gomj", true)?;
        check_replay(&traced, &served, &run, &mut errors);
        let again = replay("replay-again.gomj", false)?;
        check_replay(&again, &served, &run, &mut errors);
        let untraced_secs = (untraced.elapsed + again.elapsed).as_secs_f64() / 2.0;
        let mut lag = Samples::default();
        for o in run.writers() {
            lag.extend(&o.lag);
        }
        let mut m = layers::metrics(&traced, untraced_secs, busy_retries(&run), &lag);
        for (name, _) in report::CLIENT {
            if let Some(v) = e2e.get(name) {
                m.set(name, v);
            }
        }
        write_spans(&traced.spans, w.name, a.seed);
        print_rows(&PER_LAYER, &m, &[]);
        (&PER_LAYER, m)
    } else {
        (&END_TO_END, e2e)
    };

    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let correct = errors.is_empty();
    let line = report::result_line(correct, attempted, failed, spec, &metrics)?;
    Ok((line, correct))
}

fn busy_retries(run: &drive::SocketRun) -> u64 {
    run.writers().map(|o| o.retries.busy_retries).sum()
}

/// Compare a replay with the socket run: same digest, and on a probe
/// phase the same rows for every query text.
fn check_replay(
    out: &mirror::MirrorOut,
    served: &str,
    run: &drive::SocketRun,
    errors: &mut Vec<String>,
) {
    if out.digest != served {
        errors.push(format!(
            "replayed digest ({} bytes, {}) differs from gomd's ({} bytes, {})",
            out.digest.len(),
            out.digest.lines().next().unwrap_or(""),
            served.len(),
            served.lines().next().unwrap_or("")
        ));
    }
    let served_rows: Vec<_> = run.readers().map(|r| r.query_rows.clone()).collect();
    if !run.concurrent && out.probe_rows != served_rows {
        errors.push("replayed probe queries returned other rows than gomd's".into());
    }
}

/// The end-to-end metrics, plus the sample count behind each timing.
fn end_to_end(
    run: &drive::SocketRun,
    setup: &Samples,
    rss_kb: Option<u64>,
) -> Result<(Metrics, Vec<String>), String> {
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    // Samples pool over the rounds.
    let writers = |pick: fn(&drive::WriterOut) -> &Samples| {
        let mut s = Samples::default();
        for o in run.writers() {
            s.extend(pick(o));
        }
        s
    };
    let readers = |pick: fn(&drive::ReaderOut) -> &Samples| {
        let mut s = Samples::default();
        for r in run.readers() {
            s.extend(pick(r));
        }
        s
    };
    let (op, ees, session) = (
        writers(|o| &o.op),
        writers(|o| &o.ees),
        writers(|o| &o.session),
    );
    let (query, check) = (readers(|r| &r.query), readers(|r| &r.check));
    let mut timing = |p50: Option<&'static str>,
                      tail: &'static str,
                      s: &Samples,
                      scale: f64|
     -> Result<(), String> {
        let sum = s.summary().ok_or_else(|| format!("{tail}: no samples"))?;
        let t = sum
            .tail
            .ok_or_else(|| format!("{tail}: {} samples, too few for a tail", sum.n))?;
        if let Some(p50) = p50 {
            m.set(p50, sum.p50 as f64 / scale);
            notes.push(format!("{p50}: n={}", sum.n));
        }
        m.set(tail, t as f64 / scale);
        notes.push(format!("{tail}: n={} at p{:.2}", sum.n, sum.tail_pct));
        Ok(())
    };
    timing(None, "client.session_p99_ms", &session, 1e6)?;
    timing(Some("op_p50_us"), "client.op_p99_us", &op, 1e3)?;
    timing(Some("ees_p50_us"), "client.ees_p99_us", &ees, 1e3)?;
    timing(Some("query_p50_us"), "client.query_p99_us", &query, 1e3)?;
    timing(Some("check_p50_us"), "client.check_p99_us", &check, 1e3)?;
    let setup = setup.summary().ok_or("no set-up ran")?;
    m.set("setup_s", setup.p50 as f64 / 1e9);
    notes.push(format!("setup_s: median of n={}", setup.n));
    m.set(
        "sessions_per_s",
        session.len() as f64 / secs(run.rounds.iter().map(|r| r.write_elapsed)),
    );
    m.set(
        "reads_per_s",
        run.readers().map(|r| r.reads).sum::<u64>() as f64 / secs(run.readers().map(|r| r.elapsed)),
    );
    let rss_kb = rss_kb.ok_or("could not read gomd's VmHWM")?;
    m.set("peak_rss_mb", rss_kb as f64 / 1024.0);
    Ok((m, notes))
}

/// Total of `durations` in seconds, never zero.
fn secs(durations: impl Iterator<Item = std::time::Duration>) -> f64 {
    durations
        .sum::<std::time::Duration>()
        .as_secs_f64()
        .max(1e-9)
}

fn print_rows(spec: &[(&str, &str)], m: &Metrics, notes: &[String]) {
    for (name, unit) in spec {
        let note = notes
            .iter()
            .find(|n| n.starts_with(&format!("{name}:")))
            .map_or("", |n| n.split_once(": ").map_or("", |(_, r)| r));
        match m.get(name) {
            Some(v) => eprintln!("  {name:<30} {v:>16.3} {unit:<6} {note}"),
            None => eprintln!("  {name:<30} {:>16} {unit:<6}", "-"),
        }
    }
}

/// Write the traced replay's spans to `.bench_out/` and print the total
/// and self time per span name.
fn write_spans(spans: &[spans::Span], workload: &str, seed: u64) {
    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| spans::write_jsonl(&path, spans)) {
        Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
    eprintln!(
        "  {:<24} {:>8} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in spans::totals(spans) {
        eprintln!(
            "  {name:<24} {count:>8} {:>14.3} {:>14.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}
