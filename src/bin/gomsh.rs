//! `gomsh` — an interactive / scriptable shell for the schema manager.
//!
//! This is the "interactive schema editor" instantiation of the Analyzer
//! the paper mentions in §2.2: evolution sessions are driven command by
//! command, consistency is checked at `end`, violations are listed, and
//! repairs can be requested and executed by number.
//!
//! ```text
//! cargo run --bin gomsh                # interactive (reads stdin)
//! cargo run --bin gomsh script.gsh     # script mode
//! cargo run --bin gomsh -- --store db.gomj [--sync never|commit|always]
//!                                      # durable: recover committed
//!                                      # sessions from the journal and
//!                                      # keep journaling new ones
//! cargo run --bin gomsh -- --trace t.jsonl
//!                                      # profile every command and export
//!                                      # a JSONL trace on exit
//! cargo run --bin gomsh lint <file> [--json] [--deny error|warn|note]
//!                                      # static analysis of a deductive
//!                                      # program; nonzero exit on denial
//! cargo run --bin gomsh -- --serve /tmp/gomd.sock [--store db.gomj]
//!                                      # host gomd: a concurrent schema
//!                                      # service on a Unix socket
//!                                      # (--lease <ms> writer lease,
//!                                      # --io-deadline <ms> partial-frame
//!                                      # deadline, --max-conns <n> load
//!                                      # shedding bound, --slow-ms <ms>
//!                                      # slow-request log threshold)
//! cargo run --bin gomsh -- --connect /tmp/gomd.sock
//!                                      # remote shell against a daemon
//!                                      # (--session-timeout <ms> bounds
//!                                      # the wait for the writer lock;
//!                                      # Busy/Overloaded are retried with
//!                                      # jittered exponential backoff)
//! ```
//!
//! Commands:
//! ```text
//! load <file>                 parse+lower GOM source inside the session
//! begin | end | rollback      session control (BES / EES / undo)
//! add-attr T@S <name> <dom>   primitive: add attribute (dom = type name or T@S)
//! del-attr T@S <name>         primitive: delete attribute
//! del-type T@S <semantics>    restrict|reconnect|cascade|cascade-objects|orphan
//! new T@S                     create an object, prints its oid
//! set <oid> <attr> <value>    write a slot (int/float/"str"/oid)
//! get <oid> <attr>            read a slot
//! call <oid> <op> [args…]     invoke an operation
//! check                       full consistency check
//! repairs <k>                 repairs for violation #k of the last check
//! apply <k> <m>               execute repair #m of violation #k
//! query <body>                datalog query, e.g. query Type(T, N, S)
//! why <Pred> <arg…>           derivation tree for a fact
//! dump <Pred>                 print a predicate's extension
//! consistency <file>          feed extra rules/constraints to the CC
//! checkpoint                  write a full EDB snapshot to the journal
//! recover                     reopen the journal, proving the durable state
//! profile on|off              toggle the gom-obs collector
//! stats [reset|--json]        aggregate span/counter/histogram table
//! end --timing (alias: ees)   commit with a per-constraint / per-stratum
//!                             timing breakdown (profiles just the commit)
//! install-versioning          install the §4.1 extension
//! lint [deny <level>]         lint the schema base; optionally arm the
//!                             commit gate (deny error|warn|note|off)
//! plan                        pre-EES commit plan for the open session:
//!                             impact footprint, breaking-change
//!                             classification, L06xx diagnostics
//! help | quit
//! ```

use gomflex::prelude::*;
use std::io::{BufRead, Write};

struct Shell {
    mgr: SchemaManager,
    last_violations: Vec<Violation>,
    last_repairs: Vec<gomflex::core::ExplainedRepair>,
    /// Journal path when running durably (`--store`), for `recover`.
    store_path: Option<String>,
    sync: SyncPolicy,
}

fn print_recovery(report: &RecoveryReport) {
    println!(
        "store: {} session(s) replayed, {} op(s){}",
        report.sessions_replayed,
        report.ops_applied,
        if report.snapshot_loaded {
            " (from snapshot)"
        } else {
            ""
        }
    );
    if report.recovered_from_crash() {
        println!(
            "store: crash recovery — discarded {} byte(s) of torn/uncommitted tail{}",
            report.truncated_bytes,
            report
                .torn
                .as_deref()
                .map(|t| format!(" ({t})"))
                .unwrap_or_default()
        );
    }
}

/// The `end --timing` report: the slice of an obs snapshot diff that
/// explains where a commit spent its time — per-stratum fixpoint spans,
/// per-constraint check spans, and the eval/check/journal counters.
fn render_timing(diff: &gom_obs::Snapshot) -> String {
    let mut keep = gom_obs::Snapshot::default();
    for (k, s) in &diff.spans {
        let relevant = k.starts_with("eval.stratum")
            || k.starts_with("check.constraint:")
            || matches!(
                k.as_str(),
                "eval.fixpoint"
                    | "check.full"
                    | "check.delta"
                    | "check.keys"
                    | "ees.maintained"
                    | "repair.generate"
                    | "session.ees"
                    | "session.journal_commit"
            );
        if relevant {
            keep.spans.insert(k.clone(), s.clone());
        }
    }
    for (k, v) in &diff.counters {
        if k.starts_with("eval.") || k.starts_with("check.") || k.starts_with("journal.") {
            keep.counters.insert(k.clone(), *v);
        }
    }
    if keep.spans.is_empty() && keep.counters.is_empty() {
        return "(no timing data recorded)\n".to_string();
    }
    gom_obs::render_table(&keep)
}

/// `gomsh --serve <sock>`: host a gomd daemon on a Unix socket. Runs
/// until a client sends `shutdown`. With `--store` the daemon is durable
/// and recovers the last committed epoch on restart.
fn serve_main(config: gomflex::server::Config) -> i32 {
    let sock = config.socket.display().to_string();
    match gomflex::server::serve(config) {
        Ok(handle) => {
            println!("gomd listening on {sock} (epoch {})", handle.epoch());
            handle.join();
            if gom_obs::trace_attached() {
                gom_obs::flush_trace();
                gom_obs::clear_trace();
            }
            println!("gomd stopped");
            0
        }
        Err(e) => {
            eprintln!("gomsh: cannot serve on {sock}: {e}");
            1
        }
    }
}

/// `gomsh --connect <sock>`: a remote shell speaking gom-wire/v1. The
/// verbs mirror the local shell where they make sense on a shared
/// service; object-level commands stay local-only.
fn connect_main(sock: &str, script: Option<String>) -> i32 {
    use gomflex::server::{Client, EvolutionOp, Reply, Request, RetryPolicy};
    let mut client = match Client::connect_within(
        std::path::Path::new(sock),
        std::time::Duration::from_secs(5),
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("gomsh: cannot connect to {sock}: {e}");
            return 1;
        }
    };
    // Busy/Overloaded rejections are retried with jittered exponential
    // backoff; the seed folds in the pid so concurrent shells
    // de-synchronise instead of thundering back together.
    let policy = RetryPolicy {
        seed: 0x67_6f_6d_73_68 ^ u64::from(std::process::id()),
        ..RetryPolicy::default()
    };
    // Commit tokens for `end`: unique per process *and* per commit, so a
    // retried EES whose ack was lost replays instead of re-applying.
    let mut next_token: u64 = {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1);
        (now ^ (u64::from(std::process::id()) << 32)) | 1
    };
    let interactive = script.is_none();
    let reader: Box<dyn BufRead> = if let Some(path) = &script {
        match std::fs::File::open(path) {
            Ok(f) => Box::new(std::io::BufReader::new(f)),
            Err(e) => {
                eprintln!("gomsh: cannot open {path}: {e}");
                return 1;
            }
        }
    } else {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    };
    if interactive {
        println!("gomsh — connected to gomd at {sock}");
        println!("type `help` for commands");
    }
    let mut status = 0;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
            continue;
        }
        if interactive {
            // Scripts echo nothing; interactive mode shows the prompt line.
        } else {
            println!("> {line}");
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let (cmd, rest) = (words[0], &words[1..]);
        let request = match cmd {
            "quit" | "exit" => break,
            "help" => {
                println!(
                    "remote commands:\n  \
                     begin | end | rollback      session control (BES / EES / undo)\n  \
                     renew                       renew the session lease without mutating\n  \
                     sleep <ms>                  local pause (lease/timeout experiments)\n  \
                     load <file>                 send local GOM source into the session\n  \
                     add-attr T@S <name> <dom>   primitive: add attribute\n  \
                     del-attr T@S <name>         primitive: delete attribute\n  \
                     del-type T@S <semantics>    restrict|reconnect|cascade|cascade-objects|orphan\n  \
                     query <body>                datalog query against the published snapshot\n  \
                     check                       consistency check of the published snapshot\n  \
                     lint                        lint the published snapshot\n  \
                     plan                        pre-EES impact plan for the open session\n  \
                     digest                      epoch + state digest of the published snapshot\n  \
                     stats [--json]              server-side vitals, slow log, obs table\n  \
                     metrics                     gomd/metrics/v1 JSON (alias: stats --json)\n  \
                     shutdown                    stop the daemon\n  \
                     help | quit"
                );
                continue;
            }
            "begin" | "bes" => Request::Bes,
            "end" | "ees" => {
                let token = next_token;
                next_token = next_token.wrapping_add(2) | 1;
                Request::Ees { token: Some(token) }
            }
            "renew" => Request::Renew,
            "rollback" => Request::Rollback,
            "sleep" => {
                let Some(ms) = rest.first().and_then(|m| m.parse::<u64>().ok()) else {
                    eprintln!("usage: sleep <ms>");
                    status = 1;
                    continue;
                };
                std::thread::sleep(std::time::Duration::from_millis(ms));
                continue;
            }
            "load" => {
                let Some(path) = rest.first() else {
                    eprintln!("usage: load <file>");
                    status = 1;
                    continue;
                };
                match std::fs::read_to_string(path) {
                    Ok(src) => Request::Op(EvolutionOp::Define(src)),
                    Err(e) => {
                        eprintln!("gomsh: cannot read {path}: {e}");
                        status = 1;
                        continue;
                    }
                }
            }
            "add-attr" => {
                let [ty, name, dom] = rest[..] else {
                    eprintln!("usage: add-attr T@S <name> <domain>");
                    status = 1;
                    continue;
                };
                Request::Op(EvolutionOp::AddAttr {
                    ty: ty.into(),
                    name: name.into(),
                    domain: dom.into(),
                })
            }
            "del-attr" => {
                let [ty, name] = rest[..] else {
                    eprintln!("usage: del-attr T@S <name>");
                    status = 1;
                    continue;
                };
                Request::Op(EvolutionOp::DelAttr {
                    ty: ty.into(),
                    name: name.into(),
                })
            }
            "del-type" => {
                let [ty, sem] = rest[..] else {
                    eprintln!("usage: del-type T@S <semantics>");
                    status = 1;
                    continue;
                };
                Request::Op(EvolutionOp::DelType {
                    ty: ty.into(),
                    semantics: sem.into(),
                })
            }
            "query" => Request::Query(rest.join(" ")),
            "check" => Request::Check,
            "lint" => Request::Lint,
            "plan" => Request::Plan,
            "digest" => Request::Digest,
            "stats" if rest.contains(&"--json") => Request::Metrics,
            "stats" => Request::Stats,
            "metrics" => Request::Metrics,
            "shutdown" => Request::Shutdown,
            other => {
                eprintln!("gomsh: unknown remote command `{other}` (try `help`)");
                status = 1;
                continue;
            }
        };
        let shutdown = matches!(request, Request::Shutdown);
        match client.request_retry(&request, &policy) {
            Ok(Reply::Ok(text)) => {
                if text.is_empty() {
                    println!("ok");
                } else {
                    println!("{text}");
                }
            }
            Ok(Reply::Committed {
                epoch,
                changes,
                token: _,
            }) => {
                println!("EES — consistent, committed ({changes} change(s)) → epoch {epoch}");
            }
            Ok(Reply::Overloaded { active, max }) => {
                eprintln!(
                    "error (overloaded): server at capacity ({active}/{max} connections) — \
                     retries exhausted, try again later"
                );
                status = 1;
            }
            Ok(Reply::Violations(v)) if v.is_empty() => println!("consistent"),
            Ok(Reply::Violations(v)) => {
                println!("{} violation(s); session stays open:", v.len());
                for (i, line) in v.iter().enumerate() {
                    println!("  [{i}] {line}");
                }
                println!("use `rollback` or repair locally and `end` again");
            }
            Ok(Reply::Rows { names, rows }) => {
                println!("{}", names.join("\t"));
                for row in &rows {
                    println!("{}", row.join("\t"));
                }
                println!("({} row(s))", rows.len());
            }
            Ok(Reply::Error { kind, message }) => {
                eprintln!("error ({}): {message}", kind.name());
                status = 1;
            }
            Err(e) => {
                eprintln!("gomsh: connection lost: {e}");
                return 1;
            }
        }
        if shutdown {
            break;
        }
    }
    status
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("lint") {
        std::process::exit(lint_main(&args[1..]));
    }
    let mut store_path: Option<String> = None;
    let mut sync = SyncPolicy::OnCommit;
    let mut script: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut serve_sock: Option<String> = None;
    let mut connect_sock: Option<String> = None;
    let mut session_timeout = std::time::Duration::from_secs(2);
    let mut lease = std::time::Duration::from_millis(30_000);
    let mut io_deadline = std::time::Duration::from_millis(10_000);
    let mut max_connections: usize = 256;
    let mut slow_ms: u64 = 250;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--serve" => {
                let Some(p) = it.next() else {
                    eprintln!("gomsh: --serve takes a Unix socket path");
                    std::process::exit(2);
                };
                serve_sock = Some(p.clone());
            }
            "--connect" => {
                let Some(p) = it.next() else {
                    eprintln!("gomsh: --connect takes a Unix socket path");
                    std::process::exit(2);
                };
                connect_sock = Some(p.clone());
            }
            "--session-timeout" => {
                let Some(ms) = it.next().and_then(|m| m.parse::<u64>().ok()) else {
                    eprintln!("gomsh: --session-timeout takes milliseconds");
                    std::process::exit(2);
                };
                session_timeout = std::time::Duration::from_millis(ms);
            }
            "--lease" => {
                let Some(ms) = it.next().and_then(|m| m.parse::<u64>().ok()) else {
                    eprintln!("gomsh: --lease takes milliseconds");
                    std::process::exit(2);
                };
                lease = std::time::Duration::from_millis(ms);
            }
            "--io-deadline" => {
                let Some(ms) = it.next().and_then(|m| m.parse::<u64>().ok()) else {
                    eprintln!("gomsh: --io-deadline takes milliseconds");
                    std::process::exit(2);
                };
                io_deadline = std::time::Duration::from_millis(ms);
            }
            "--max-conns" => {
                let Some(n) = it.next().and_then(|m| m.parse::<usize>().ok()) else {
                    eprintln!("gomsh: --max-conns takes a connection count");
                    std::process::exit(2);
                };
                max_connections = n.max(1);
            }
            "--slow-ms" => {
                let Some(ms) = it.next().and_then(|m| m.parse::<u64>().ok()) else {
                    eprintln!("gomsh: --slow-ms takes milliseconds (0 logs every request)");
                    std::process::exit(2);
                };
                slow_ms = ms;
            }
            "--store" => {
                let Some(p) = it.next() else {
                    eprintln!("gomsh: --store takes a journal path");
                    std::process::exit(2);
                };
                store_path = Some(p.clone());
            }
            "--trace" => {
                let Some(p) = it.next() else {
                    eprintln!("gomsh: --trace takes an output path");
                    std::process::exit(2);
                };
                trace_path = Some(p.clone());
            }
            "--sync" => {
                let Some(mode) = it.next().and_then(|m| SyncPolicy::parse(m)) else {
                    eprintln!("gomsh: --sync takes never|commit|always");
                    std::process::exit(2);
                };
                sync = mode;
            }
            flag if flag.starts_with("--") => {
                eprintln!("gomsh: unknown flag `{flag}`");
                std::process::exit(2);
            }
            file => {
                if script.replace(file.to_string()).is_some() {
                    eprintln!("gomsh: at most one script file expected");
                    std::process::exit(2);
                }
            }
        }
    }
    // Attach the trace before opening the store so recovery spans are
    // captured too.
    if let Some(p) = &trace_path {
        if let Err(e) = gom_obs::set_trace_path(std::path::Path::new(p)) {
            eprintln!("gomsh: cannot open trace file {p}: {e}");
            std::process::exit(1);
        }
        gom_obs::set_enabled(true);
    }
    if serve_sock.is_some() && connect_sock.is_some() {
        eprintln!("gomsh: --serve and --connect are mutually exclusive");
        std::process::exit(2);
    }
    if let Some(sock) = serve_sock {
        std::process::exit(serve_main(gomflex::server::Config {
            store: store_path.map(std::path::PathBuf::from),
            sync,
            session_timeout,
            lease,
            io_deadline,
            max_connections,
            slow_ms,
            ..gomflex::server::Config::in_memory(sock)
        }));
    }
    if let Some(sock) = connect_sock {
        std::process::exit(connect_main(&sock, script));
    }
    let mgr = match &store_path {
        Some(p) => match SchemaManager::open(std::path::Path::new(p), sync) {
            Ok((mgr, report)) => {
                print_recovery(&report);
                mgr
            }
            Err(e) => {
                eprintln!("gomsh: cannot open store {p}: {e}");
                std::process::exit(1);
            }
        },
        None => match SchemaManager::new() {
            Ok(mgr) => mgr,
            Err(e) => {
                eprintln!("gomsh: cannot initialise the schema manager: {e}");
                std::process::exit(1);
            }
        },
    };
    let mut shell = Shell {
        mgr,
        last_violations: Vec::new(),
        last_repairs: Vec::new(),
        store_path,
        sync,
    };
    let interactive = script.is_none();
    let reader: Box<dyn BufRead> = if let Some(path) = &script {
        match std::fs::File::open(path) {
            Ok(f) => Box::new(std::io::BufReader::new(f)),
            Err(e) => {
                eprintln!("gomsh: cannot open {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    };
    if interactive {
        println!("gomsh — flexible schema management shell (paper: Moerkotte & Zachmann 1993)");
        println!("type `help` for commands");
    }
    for line in reader.lines() {
        let Ok(line) = line else {
            break;
        };
        if interactive {
            print!("gom> ");
            std::io::stdout().flush().ok();
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if !interactive {
            println!("gom> {line}");
        }
        match shell.dispatch(line) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => println!("error: {e}"),
        }
    }
    if let Some(p) = &trace_path {
        gom_obs::flush_trace();
        gom_obs::clear_trace();
        eprintln!("trace written to {p}");
    }
}

/// `gomsh lint <file> [--json] [--deny error|warn|note]` — batch linting of
/// a deductive program (rules, constraints, facts) against a fresh
/// database. Exit codes: 0 = below the deny level, 1 = denied, 2 = usage.
fn lint_main(args: &[String]) -> i32 {
    let mut path: Option<&str> = None;
    let mut json = false;
    let mut deny = Severity::Error;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--deny" => {
                let Some(level) = it.next().and_then(|l| Severity::parse(l)) else {
                    eprintln!("gomsh lint: --deny takes error|warn|note");
                    return 2;
                };
                deny = level;
            }
            flag if flag.starts_with("--") => {
                eprintln!("gomsh lint: unknown flag `{flag}`");
                return 2;
            }
            file => {
                if path.replace(file).is_some() {
                    eprintln!("gomsh lint: exactly one input file expected");
                    return 2;
                }
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: gomsh lint <file> [--json] [--deny error|warn|note]");
        return 2;
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gomsh lint: cannot open {path}: {e}");
            return 2;
        }
    };
    let mut db = Database::new();
    let report = lint_source(&mut db, &src, &LintConfig::default());
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", render_report(&report, Some(&src), path));
    }
    i32::from(report.denies(deny))
}

type CmdResult<T> = Result<T, Box<dyn std::error::Error>>;

impl Shell {
    /// Run a mutation as a durable micro-session when a store is attached
    /// and no session is open: BES, mutate, EES. On violations the change
    /// is rolled back and reported — a durable store only ever contains
    /// consistent committed states. Without a store (or inside an open
    /// session) the mutation runs directly, as before.
    fn autocommit<T>(
        &mut self,
        f: impl FnOnce(&mut SchemaManager) -> CmdResult<T>,
    ) -> CmdResult<T> {
        if self.mgr.in_evolution() || !self.mgr.has_store() {
            return f(&mut self.mgr);
        }
        match self.mgr.autocommit(f) {
            Ok((out, _)) => Ok(out),
            Err(DefineError::Op(e)) => Err(e),
            Err(DefineError::Inconsistent(rendered)) => Err(format!(
                "rolled back — change is inconsistent outside a session: {} \
                 (use `begin` to repair interactively)",
                rendered.join("; ")
            )
            .into()),
            Err(DefineError::Db(e)) => Err(e.into()),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<bool, Box<dyn std::error::Error>> {
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let rest: Vec<&str> = parts.collect();
        match cmd {
            "help" => {
                println!(
                    "commands: load begin end rollback add-attr del-attr del-type new set get call"
                );
                println!("          check lint plan repairs apply query why dump consistency checkpoint recover");
                println!("          profile stats ees install-versioning quit");
            }
            "quit" | "exit" => return Ok(false),
            "load" => {
                let path = rest.first().ok_or("usage: load <file>")?;
                let src = std::fs::read_to_string(path)?;
                let in_session = self.mgr.in_evolution();
                if in_session {
                    let lowered = self
                        .mgr
                        .analyzer
                        .lower_source(&mut self.mgr.meta, &src)
                        .map_err(|e| e.to_string())?;
                    println!("lowered {} schema(s) into the open session", lowered.len());
                } else {
                    let lowered = self.mgr.define_schema(&src).map_err(|e| e.to_string())?;
                    println!("defined {} schema(s), consistent", lowered.len());
                }
            }
            "begin" => {
                self.mgr.begin_evolution()?;
                println!("BES — evolution session open");
            }
            "plan" => {
                let report = self.mgr.plan().map_err(|e| e.to_string())?;
                print!("{}", report.render());
            }
            "end" | "ees" => {
                let timing = rest.contains(&"--timing") || cmd == "ees";
                let (was_on, before) = if timing {
                    let was_on = gom_obs::enabled();
                    gom_obs::set_enabled(true);
                    (was_on, Some(gom_obs::snapshot()))
                } else {
                    (false, None)
                };
                let outcome = self.mgr.end_evolution();
                if let Some(before) = before {
                    let diff = gom_obs::snapshot().since(&before);
                    if !was_on {
                        gom_obs::set_enabled(false);
                    }
                    print!("{}", render_timing(&diff));
                }
                match outcome? {
                    EvolutionOutcome::Consistent(delta) => {
                        println!("EES — consistent, committed ({} change(s))", delta.len());
                        self.last_violations.clear();
                    }
                    EvolutionOutcome::Inconsistent(violations) => {
                        println!(
                            "EES — {} violation(s); session stays open:",
                            violations.len()
                        );
                        for (i, v) in violations.iter().enumerate() {
                            println!("  [{i}] {}", v.render(&self.mgr.meta.db));
                        }
                        println!("use `repairs <k>` / `apply <k> <m>` / `rollback`");
                        self.last_violations = violations;
                    }
                }
            }
            "rollback" => {
                self.mgr.rollback_evolution()?;
                self.last_violations.clear();
                println!("session rolled back");
            }
            "add-attr" => {
                let [tref, name, dom] = rest[..] else {
                    return Err("usage: add-attr T@S <name> <domain>".into());
                };
                let t = self.resolve_type(tref)?;
                let d = self.resolve_type(dom)?;
                self.autocommit(|mgr| Ok(mgr.meta.add_attr(t, name, d)?))?;
                println!("+Attr({tref}, {name}, {dom})");
            }
            "del-attr" => {
                let [tref, name] = rest[..] else {
                    return Err("usage: del-attr T@S <name>".into());
                };
                let t = self.resolve_type(tref)?;
                let removed = self.autocommit(|mgr| Ok(mgr.meta.remove_attr(t, name)?))?;
                println!(
                    "{}",
                    if removed {
                        "removed"
                    } else {
                        "no such attribute"
                    }
                );
            }
            "del-type" => {
                let [tref, sem] = rest[..] else {
                    return Err("usage: del-type T@S <semantics>".into());
                };
                let t = self.resolve_type(tref)?;
                let semantics = DeleteTypeSemantics::parse(sem).ok_or_else(|| {
                    format!(
                        "unknown delete semantics `{sem}` ({})",
                        DeleteTypeSemantics::CHOICES
                    )
                })?;
                let report =
                    self.autocommit(|mgr| delete_type(mgr, t, semantics).map_err(|e| e.into()))?;
                println!(
                    "deleted: {} fact(s) removed, {} edge(s) reconnected, {} instance(s) deleted",
                    report.facts_removed, report.reconnected, report.instances_deleted
                );
            }
            "new" => {
                let [tref] = rest[..] else {
                    return Err("usage: new T@S".into());
                };
                let t = self.resolve_type(tref)?;
                let oid =
                    self.autocommit(|mgr| mgr.create_object(t).map_err(|e| e.to_string().into()))?;
                println!("{}", self.mgr.meta.db.resolve(oid.sym()));
            }
            "set" => {
                if rest.len() < 3 {
                    return Err("usage: set <oid> <attr> <value>".into());
                }
                let oid = self.resolve_oid(rest[0])?;
                let value = self.parse_value(&rest[2..].join(" "))?;
                let attr = rest[1];
                self.autocommit(|mgr| {
                    mgr.set_attr(oid, attr, value).map_err(|e| e.to_string())?;
                    Ok(())
                })?;
                println!("ok");
            }
            "get" => {
                let [o, attr] = rest[..] else {
                    return Err("usage: get <oid> <attr>".into());
                };
                let oid = self.resolve_oid(o)?;
                let v = self.mgr.get_attr(oid, attr).map_err(|e| e.to_string())?;
                println!("{v}");
            }
            "call" => {
                if rest.len() < 2 {
                    return Err("usage: call <oid> <op> [args…]".into());
                }
                let oid = self.resolve_oid(rest[0])?;
                let args: Vec<Value> = rest[2..]
                    .iter()
                    .map(|a| self.parse_value(a))
                    .collect::<Result<_, _>>()?;
                let v = self
                    .mgr
                    .call(oid, rest[1], &args)
                    .map_err(|e| e.to_string())?;
                println!("{v}");
            }
            "check" => {
                let violations = self.mgr.check()?;
                if violations.is_empty() {
                    println!("consistent");
                } else {
                    for (i, v) in violations.iter().enumerate() {
                        println!("  [{i}] {}", v.render(&self.mgr.meta.db));
                    }
                }
                self.last_violations = violations;
            }
            "lint" => {
                if let ["deny", level] = rest[..] {
                    let gate = match level {
                        "off" => None,
                        l => Some(Severity::parse(l).ok_or("lint deny takes error|warn|note|off")?),
                    };
                    self.mgr.set_lint_gate(gate);
                    println!(
                        "lint gate {}",
                        gate.map_or("disarmed".to_string(), |g| format!(
                            "armed at `{}`",
                            g.name()
                        ))
                    );
                } else {
                    let report = self.mgr.lint();
                    print!("{}", render_report(&report, None, "<schema base>"));
                }
            }
            "repairs" => {
                let k: usize = rest.first().ok_or("usage: repairs <k>")?.parse()?;
                let v = self
                    .last_violations
                    .get(k)
                    .ok_or("no such violation (run `check` or `end` first)")?
                    .clone();
                self.last_repairs = self.mgr.repairs_for(&v)?;
                for (m, r) in self.last_repairs.iter().enumerate() {
                    println!("  [{m}] {}", r.render(&self.mgr.meta));
                }
                println!("  (rollback is always available)");
            }
            "apply" => {
                let [k, m] = rest[..] else {
                    return Err("usage: apply <k> <m>".into());
                };
                let _k: usize = k.parse()?;
                let m: usize = m.parse()?;
                let repair = self
                    .last_repairs
                    .get(m)
                    .ok_or("no such repair (run `repairs <k>` first)")?
                    .repair
                    .clone();
                match self.mgr.execute_repair(&repair, Value::Null)? {
                    EvolutionOutcome::Consistent(_) => {
                        println!("repair executed — session committed");
                        self.last_violations.clear();
                        self.last_repairs.clear();
                    }
                    EvolutionOutcome::Inconsistent(violations) => {
                        println!("repair executed — {} violation(s) remain", violations.len());
                        for (i, v) in violations.iter().enumerate() {
                            println!("  [{i}] {}", v.render(&self.mgr.meta.db));
                        }
                        self.last_violations = violations;
                    }
                }
            }
            "query" => {
                let body = rest.join(" ");
                let (names, rows) = self.mgr.meta.db.query_text(&body)?;
                println!("{}", names.join("\t"));
                for row in &rows {
                    let cells: Vec<String> = row
                        .iter()
                        .map(|c| c.display(self.mgr.meta.db.interner()).to_string())
                        .collect();
                    println!("{}", cells.join("\t"));
                }
                println!("({} row(s))", rows.len());
            }
            "why" => {
                if rest.is_empty() {
                    return Err("usage: why <Pred> <arg…>".into());
                }
                let pred = self
                    .mgr
                    .meta
                    .db
                    .pred_id(rest[0])
                    .ok_or_else(|| format!("unknown predicate `{}`", rest[0]))?;
                let consts: Vec<gomflex::deductive::Const> = rest[1..]
                    .iter()
                    .map(|a| {
                        a.parse::<i64>()
                            .map(gomflex::deductive::Const::Int)
                            .unwrap_or_else(|_| self.mgr.meta.db.constant(a))
                    })
                    .collect();
                let t = gomflex::deductive::Tuple::from(consts);
                match self.mgr.meta.db.why(pred, &t)? {
                    Some(d) => print!("{}", d.render(&self.mgr.meta.db)),
                    None => println!("fact does not hold"),
                }
            }
            "dump" => {
                let p = rest.first().ok_or("usage: dump <Pred>")?;
                let pred = self
                    .mgr
                    .meta
                    .db
                    .pred_id(p)
                    .ok_or_else(|| format!("unknown predicate `{p}`"))?;
                print!("{}", self.mgr.meta.render_relation(pred));
            }
            "consistency" => {
                let path = rest.first().ok_or("usage: consistency <file>")?;
                let text = std::fs::read_to_string(path)?;
                self.mgr.add_consistency(&text)?;
                println!(
                    "consistency definition extended ({} constraint(s) total)",
                    self.mgr.meta.db.constraints().len()
                );
            }
            "profile" => match rest.first().copied() {
                Some("on") => {
                    gom_obs::set_enabled(true);
                    println!("profiling on (see `stats`)");
                }
                Some("off") => {
                    gom_obs::set_enabled(false);
                    println!("profiling off");
                }
                _ => return Err("usage: profile on|off".into()),
            },
            "stats" => match rest.first().copied() {
                Some("reset") => {
                    gom_obs::reset();
                    println!("stats reset");
                }
                Some("--json") => {
                    println!("{}", gom_obs::snapshot_json(&gom_obs::snapshot()));
                }
                None => {
                    let table = gom_obs::render_table(&gom_obs::snapshot());
                    if table.is_empty() {
                        println!("no stats recorded (enable with `profile on` or --trace)");
                    } else {
                        print!("{table}");
                    }
                }
                _ => return Err("usage: stats [reset|--json]".into()),
            },
            "checkpoint" => {
                let pos = self.mgr.checkpoint()?;
                println!("checkpoint written ({pos} byte(s) journaled)");
            }
            "recover" => {
                let path = self
                    .store_path
                    .clone()
                    .ok_or("no durable store attached (run with --store <path>)")?;
                let (mgr, report) = SchemaManager::open(std::path::Path::new(&path), self.sync)
                    .map_err(|e| e.to_string())?;
                self.mgr = mgr;
                self.last_violations.clear();
                self.last_repairs.clear();
                print_recovery(&report);
                println!("{}", report.summary_line());
                println!("recovered from {path} (volatile object heap reset)");
            }
            "install-versioning" => {
                install_versioning(&mut self.mgr)?;
                println!("versioning + fashion extension installed");
            }
            "print-schema" => {
                let name = rest.first().ok_or("usage: print-schema <Schema>")?;
                let sid = self
                    .mgr
                    .meta
                    .schema_by_name(name)
                    .ok_or_else(|| format!("unknown schema `{name}`"))?;
                print!(
                    "{}",
                    gomflex::analyzer::print::print_schema(&self.mgr.meta, sid)
                );
            }
            "diff" | "migrate" => {
                let [from, to] = rest[..] else {
                    return Err(format!("usage: {cmd} <FromSchema> <ToSchema>").into());
                };
                let f = self
                    .mgr
                    .meta
                    .schema_by_name(from)
                    .ok_or_else(|| format!("unknown schema `{from}`"))?;
                let t = self
                    .mgr
                    .meta
                    .schema_by_name(to)
                    .ok_or_else(|| format!("unknown schema `{to}`"))?;
                let steps = gomflex::evolution::diff_schemas(&self.mgr.meta, f, t);
                for line in gomflex::evolution::render_diff(&steps) {
                    println!("  {line}");
                }
                println!("({} step(s))", steps.len());
                if cmd == "migrate" {
                    if !self.mgr.in_evolution() {
                        return Err("open a session first (`begin`)".into());
                    }
                    let n = gomflex::evolution::apply_diff(&mut self.mgr, f, &steps)
                        .map_err(|e| e.to_string())?;
                    println!("applied {n} step(s); `end` to check");
                }
            }
            "save" => {
                let path = rest.first().ok_or("usage: save <file>")?;
                let dump = self.mgr.meta.db.dump_facts();
                std::fs::write(path, &dump)?;
                println!("saved {} fact line(s) to {path}", dump.lines().count());
            }
            "load-facts" => {
                let path = rest.first().ok_or("usage: load-facts <file>")?;
                let text = std::fs::read_to_string(path)?;
                self.autocommit(|mgr| Ok(mgr.meta.db.load(&text)?))?;
                println!(
                    "loaded; {} base fact(s) total",
                    self.mgr.meta.db.fact_count()
                );
            }
            other => return Err(format!("unknown command `{other}` (try `help`)").into()),
        }
        Ok(true)
    }

    fn resolve_type(&mut self, r: &str) -> Result<TypeId, String> {
        self.mgr.meta.resolve_type_ref(r).map_err(|e| e.to_string())
    }

    fn resolve_oid(&mut self, s: &str) -> Result<Oid, String> {
        let sym = self
            .mgr
            .meta
            .db
            .sym(s)
            .ok_or_else(|| format!("unknown object `{s}`"))?;
        let oid = Oid(sym);
        if self.mgr.runtime.objects.get(oid).is_none() {
            return Err(format!("`{s}` is not a live object"));
        }
        Ok(oid)
    }

    fn parse_value(&mut self, s: &str) -> Result<Value, String> {
        let s = s.trim();
        if let Ok(n) = s.parse::<i64>() {
            return Ok(Value::Int(n));
        }
        if let Ok(x) = s.parse::<f64>() {
            return Ok(Value::Float(x));
        }
        if s.starts_with('"') && s.ends_with('"') && s.len() >= 2 {
            return Ok(Value::Str(s[1..s.len() - 1].to_string()));
        }
        if s == "null" {
            return Ok(Value::Null);
        }
        if s == "true" || s == "false" {
            return Ok(Value::Bool(s == "true"));
        }
        // an oid?
        if let Some(sym) = self.mgr.meta.db.sym(s) {
            let oid = Oid(sym);
            if self.mgr.runtime.objects.get(oid).is_some() {
                return Ok(Value::Obj(oid));
            }
        }
        Err(format!("cannot parse value `{s}`"))
    }
}
