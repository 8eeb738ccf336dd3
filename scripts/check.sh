#!/usr/bin/env bash
# CI gate: formatting, release build, tests, lints. Fully offline.
#
# Usage: scripts/check.sh
# Optional components (rustfmt, clippy) are skipped with a notice when the
# toolchain lacks them, so the script degrades gracefully on minimal images.

set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

# no_fixpoint_under TRACE NAME...: fail when any eval.fixpoint span in the
# obs JSONL trace TRACE has an ancestor span named one of NAME.
no_fixpoint_under() {
  local trace="$1"; shift
  awk -v names="$*" '
BEGIN { n = split(names, list, " "); for (k = 1; k <= n; k++) wanted[list[k]] = 1 }
/"ev":"span"/ {
  match($0, /"name":"[^"]*"/); nm = substr($0, RSTART + 8, RLENGTH - 9)
  match($0, /"id":[0-9]+/); i = substr($0, RSTART + 5, RLENGTH - 5)
  p = ""; if (match($0, /"parent":[0-9]+/)) p = substr($0, RSTART + 9, RLENGTH - 9)
  name[i] = nm; parent[i] = p
}
END {
  bad = 0
  for (i in name) {
    if (name[i] != "eval.fixpoint") continue
    for (a = parent[i]; a != ""; a = parent[a]) {
      if (name[a] in wanted) {
        printf "eval.fixpoint (span %s) ran under %s\n", i, name[a]; bad = 1
      }
    }
  }
  exit bad
}' "$trace"
}

if command -v rustfmt >/dev/null 2>&1; then
  step "cargo fmt --check"
  cargo fmt --all -- --check
else
  step "cargo fmt --check (SKIPPED: rustfmt not installed)"
fi

step "cargo build --release"
cargo build --release

# Every package's tests, not only the root package's: the crate-level
# referees (CoW snapshots, key checks, server concurrency and telemetry,
# the wire decoder sweep, the store CRC vectors) live in member crates.
step "cargo test --workspace -q"
cargo test --workspace -q

# The planned evaluator must agree with the naive reference interpreter;
# run the differential suite in release so it exercises the same codegen
# the benchmarks measure.
step "differential test (planned vs naive)"
cargo test -p gom-deductive --release --test planned_equivalence

# Observation must be pure: the instrumented engine (aggregation + live
# JSONL trace sink) computes a bit-identical IDB, and a full evaluation
# under tracing emits every span the taxonomy promises.
step "differential test (instrumented vs uninstrumented eval)"
cargo test -p gom-deductive --release --test obs_equivalence
cargo test -p gom-deductive --release --test obs_tracing

step "trace contains the required span names"
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
# A schema the Analyzer refuses (an attribute of an unknown type): loading
# it inside a session rolls the session back to before the load.
cat > "$trace_tmp/bad.gom" <<'EOF'
schema BadSchema is
  type Broken is
    [ wheel : NoSuchType; ]
  end type Broken;
end schema BadSchema;
EOF
{
  echo "load scripts/car_schema.gom"
  echo "begin"
  echo "add-attr Car obsCheckAttr string"
  echo "check"
  echo "end"
  echo "begin"
  echo "add-attr Car obsRollbackAttr string"
  echo "rollback"
  echo "begin"
  echo "load $trace_tmp/bad.gom"
  echo "add-attr Car obsAfterFailedLoadAttr string"
  echo "end"
  echo "quit"
} > "$trace_tmp/session.gsh"
cargo run --release -q --bin gomsh -- \
  --store "$trace_tmp/db.gomj" --trace "$trace_tmp/trace.jsonl" \
  "$trace_tmp/session.gsh" > /dev/null
# A clean interactive session commits through the maintained EES path:
# per-op dred.maintain spans while the session is open, one ees.maintained
# read at commit — and never a re-derivation of the IDB, not even after
# the failed in-session load. The check inside the session reads the
# maintained IDB: no fixpoint under it.
for span in eval.fixpoint eval.stratum ees.maintained dred.maintain \
            session.bes session.ees \
            session.journal_commit analyzer.lower load.program; do
  grep -q "\"name\":\"$span" "$trace_tmp/trace.jsonl" \
    || { echo "MISSING span $span in trace"; exit 1; }
done
grep -q '"journal.appends"' "$trace_tmp/trace.jsonl" \
  || { echo "MISSING journal counters in trace"; exit 1; }
# A committed session is one journal append; BES and rollback write
# nothing. The sessions above commit three times and roll back once.
last_counter() {
  grep -o "\"$1\":[0-9]*" "$trace_tmp/trace.jsonl" | tail -1 | cut -d: -f2
}
appends=$(last_counter journal.appends)
commits=$(last_counter session.commits)
echo "journal.appends=${appends} session.commits=${commits}"
[ -n "$commits" ] && [ "$commits" -gt 0 ] && [ "$appends" = "$commits" ] \
  || { echo "journal appends must equal committed sessions"; exit 1; }
no_fixpoint_under "$trace_tmp/trace.jsonl" check.full \
  || { echo "an in-session check re-derived the IDB instead of reading it"; exit 1; }
# Rollback maintains the IDB through the inverse ops, so the BES after the
# rollback finds it armed and runs no fixpoint.
no_fixpoint_under "$trace_tmp/trace.jsonl" session.bes \
  || { echo "a BES re-derived the IDB after a rollback"; exit 1; }
# Every EES, including the one after the failed in-session load, reads the
# IDB the session maintained: no re-arm, so no fixpoint under it.
no_fixpoint_under "$trace_tmp/trace.jsonl" session.ees \
  || { echo "an EES re-derived the IDB instead of reading it"; exit 1; }

# The maintained violation relations must agree bit-identically with full
# checking across random sessions (incl. rollback/recommit and recovery
# replay), and the maintained IDB with the naive reference interpreter
# under random per-op changes; run both sweeps in release like the others.
step "differential test (maintained vs full EES check)"
cargo test --release --test maintained_soundness
cargo test -p gom-deductive --release --test incremental_equivalence

# The seeded property oracles, in release: compiled FOL constraints agree
# with naive model checking, the SCC stratifier agrees with the relaxation
# loop and its negation-cycle witnesses are real cycles, the parser
# survives arbitrary input, the incrementally extended schema hierarchy
# agrees with a rebuild from its surviving frames, object lifecycles keep
# the schema/object constraints, and the core invariants (rollback,
# repairs, closure, change-set inversion) hold.
step "seeded property oracles (release)"
cargo test -p gom-deductive --release --test fol_equivalence
cargo test -p gom-deductive --release --test stratify_oracle
cargo test -p gom-analyzer --release --test robustness
cargo test -p gom-analyzer --release --test hierarchy_equivalence
cargo test -p gom-runtime --release --test consistency_maintenance
cargo test --release --test properties

# Crash recovery must land on a session boundary from any journal prefix,
# partial write, or corrupted tail; run the sweep in release so the
# boundary enumeration and random offsets cover the real codegen.
step "fault-injection sweep (journal crash recovery)"
cargo test --release --test recovery_fault_injection
cargo test -p gom-deductive --release --test session_atomicity

# The daemon must survive a full client session over the wire, with every
# request traced: spawn gomd on a temp socket, drive a scripted
# BES/op/EES/query/stats session through gomsh --connect, and require
# server.request spans in the obs trace.
step "gomd server smoke test (release, scripted gomsh --connect session)"
server_tmp="$(mktemp -d)"
{
  echo "begin"
  echo "load scripts/car_schema.gom"
  echo "end"
  echo "add-attr Car@CarSchema smokeAttr string"
  echo "query Attr(T, N, D)"
  echo "check"
  echo "digest"
  echo "stats"
  echo "shutdown"
} > "$server_tmp/session.gsh"
cargo run --release -q --bin gomsh -- \
  --serve "$server_tmp/gomd.sock" --store "$server_tmp/db.gomj" \
  --trace "$server_tmp/server-trace.jsonl" > "$server_tmp/server.log" 2>&1 &
server_pid=$!
cargo run --release -q --bin gomsh -- \
  --connect "$server_tmp/gomd.sock" "$server_tmp/session.gsh" \
  > "$server_tmp/client.log"
wait "$server_pid"
grep -q "EES — consistent, committed" "$server_tmp/client.log" \
  || { echo "MISSING commit confirmation in client log"; cat "$server_tmp/client.log"; exit 1; }
grep -q "smokeAttr" "$server_tmp/client.log" \
  || { echo "MISSING autocommitted attribute in query output"; exit 1; }
for span in "server.request:bes" "server.request:ees" "server.request:query" \
            "server.request:check" \
            "server.request:stats" "epoch.publish"; do
  grep -q "$span" "$server_tmp/server-trace.jsonl" \
    || { echo "MISSING $span in server trace"; exit 1; }
done
# Readers serve the writer's compiled program and maintained violations:
# the query and check above (both after the session's commit) must run no
# fixpoint under a reader's server.request:check or server.request:query.
no_fixpoint_under "$server_tmp/server-trace.jsonl" \
  server.request:check server.request:query \
  || { echo "reader requests re-derived the IDB instead of reading the snapshot"; exit 1; }
rm -rf "$server_tmp"

# Hostile clients and networks: the lease/deadline/shedding tests and the
# seeded chaos-proxy sweep run in release (100 seeds in each of the two
# seed blocks, 0.. and 1000.. → 200 faulted runs), asserting digest
# identity against an unfaulted twin, exactly-once tokened commits, and
# clean recovery.
step "chaos-proxy sweep + lease tests (release, 200 seeded runs)"
cargo test -p gom-server --release --test lease
GOM_CHAOS_SEEDS=100 cargo test -p gom-server --release --test chaos

# Snapshot publication must stay copy-on-write: capturing an epoch over a
# populated synth5000 base may copy zero tuples (counter-verified), and
# the publish cost must stay within 1.5x of the recorded microbench row
# (the pre-CoW deep-clone path sat at ~7.5 ms vs ~23 µs shared, so any
# slide back toward O(#tuples) publication blows through this gate), as
# must the cost of the commit that follows a publish.
step "snapshot CoW gate (zero tuple copies + publish and next-commit cost)"
GOM_COW_TYPES=5000 cargo test --release --test snapshot_cow
bench_tmp="$(mktemp -d)"
cargo build --release -p gom-bench --bin microbench
# microbench_gate ROW WHAT: run the microbench row ROW and fail when its
# median exceeds 1.5x the row's median in the newest BENCH_*.json that
# records it.
microbench_gate() {
  local row="$1" what="$2"
  ./target/release/microbench --iters 9 --out "$bench_tmp/$row.json" "$row" 2> /dev/null
  local baseline_file recorded current
  baseline_file=$(grep -l "\"name\": \"$row\"" BENCH_*.json | sort | tail -1)
  row_median() {
    grep -o "\"name\": \"$row\", \"median_ns\": [0-9]*" "$1" | grep -o '[0-9]*$'
  }
  recorded=$(row_median "$baseline_file")
  current=$(row_median "$bench_tmp/$row.json")
  echo "$row: ${current} ns (recorded ${recorded} ns in ${baseline_file})"
  awk -v cur="$current" -v rec="$recorded" -v what="$what" 'BEGIN {
    if (cur > rec * 1.5) {
      printf "REGRESSION: %s %d ns exceeds 1.5x recorded %d ns\n", what, cur, rec
      exit 1
    }
  }'
}
microbench_gate snapshot_publish_synth5000 "snapshot publish"
# The writer's next commit after a publish: the held snapshot shares its
# pages, so the session's first writes copy the tail pages (rows and
# interned strings) they touch. Flat pages make that copy a memcpy; a
# slide back to a heap object per row or string, or to deep-cloned rules
# and constraints at capture, shows here.
microbench_gate publish_then_commit_synth500 "commit after publish"

# A reader's query reply must cost about its bytes: querying the
# Attr(T, N, D) rows of a synth500 reader view, encoding the tuples into
# the frame (CRC), reading the frame back and decoding it must stay within
# 1.5x of the recorded microbench row (a slide back to a bytewise CRC,
# hash-set deduplication or a String per cell on the server shows here).
# A warm Digest reply writes the snapshot's stored frame: re-formatting,
# re-encoding or re-CRCing the digest per read shows in its row.
step "read reply gates (query and digest replies at synth500)"
microbench_gate wire_rows_reply_synth500 "read reply"
microbench_gate wire_digest_reply_synth500 "digest reply"

# microbench_count_gate ROW COLUMN: fail when the exact count COLUMN of
# microbench row ROW (for example `derived_per_iter`, `probes_per_iter`)
# exceeds its value in the newest BENCH_*.json that records the row. The
# counts come from the row's instrumented warmup run, so they do not depend
# on the host; the row runs once here unless a timed gate already ran it.
microbench_count_gate() {
  local row="$1" column="$2"
  [ -f "$bench_tmp/$row.json" ] \
    || ./target/release/microbench --iters 1 --out "$bench_tmp/$row.json" "$row" 2> /dev/null
  row_count() {
    grep -o "\"name\": \"$row\", [^}]*\"$column\": [0-9]*" "$1" | grep -o '[0-9]*$'
  }
  local baseline_file recorded current
  baseline_file=$(grep -l "\"name\": \"$row\"" BENCH_*.json | sort | tail -1)
  recorded=$(row_count "$baseline_file")
  current=$(row_count "$bench_tmp/$row.json")
  echo "$row: ${current} $column (recorded ${recorded} in ${baseline_file})"
  [ -n "$current" ] && [ -n "$recorded" ] && [ "$current" -le "$recorded" ] \
    || { echo "REGRESSION: $row $column rose above its recorded value"; exit 1; }
}

# gomd start-up on the gomd_bench preload (500 types, 50 x 2 objects, one
# checkpoint) must stay within 1.5x of its recorded row, and its recovery
# fixpoint may derive no more rows than recorded: the maintained IDB holds
# no copy of a constraint premise, and a slide back to copy relations
# doubles the count deterministically.
step "recovery gates (recovery fixpoint and IDB size at synth500)"
microbench_gate recover_synth500 "recovery fixpoint"
microbench_count_gate recover_synth500 derived_per_iter

# Per-op DRed may make no more probes than recorded: the six-op commit
# joins only through the literals that read a changed predicate, and a
# slide back to scanning more joins shows as more probes.
step "DRed probe gate (six-op maintained commit at synth500)"
microbench_count_gate ees_check_synth500 probes_per_iter
rm -rf "$bench_tmp"

# A hostile-client smoke over the real binaries: a writer that goes silent
# past its lease is reaped (typed `lease-expired` on its next commit), a
# connection beyond --max-conns is shed, and both events land in the obs
# trace and in the `stats` verb's vitals line.
step "gomd hostile-client smoke (lease reap + load shedding)"
hostile_tmp="$(mktemp -d)"
printf 'begin\nload scripts/car_schema.gom\nend\nquit\n' > "$hostile_tmp/seed.gsh"
{
  echo "begin"
  echo "add-attr Car@CarSchema zombieAttr string"
  echo "sleep 900"
  echo "end"
  echo "stats"
  echo "shutdown"
} > "$hostile_tmp/zombie.gsh"
echo "digest" > "$hostile_tmp/shed.gsh"
cargo run --release -q --bin gomsh -- \
  --serve "$hostile_tmp/gomd.sock" --trace "$hostile_tmp/server-trace.jsonl" \
  --lease 300 --io-deadline 500 --max-conns 1 \
  > "$hostile_tmp/server.log" 2>&1 &
hostile_pid=$!
for _ in $(seq 1 50); do [ -S "$hostile_tmp/gomd.sock" ] && break; sleep 0.1; done
# Seed the schema so the zombie's add-attr resolves. Then the zombie
# holds the single connection slot and goes silent past its 300 ms lease:
# the reaper rolls it back, its own `end` must fail with a typed
# lease-expired error, and a second client arriving mid-sleep is shed
# (it retries with backoff and lands once the slot frees).
cargo run --release -q --bin gomsh -- \
  --connect "$hostile_tmp/gomd.sock" "$hostile_tmp/seed.gsh" > /dev/null
cargo run --release -q --bin gomsh -- \
  --connect "$hostile_tmp/gomd.sock" "$hostile_tmp/zombie.gsh" \
  > "$hostile_tmp/zombie.log" 2>&1 &
zombie_pid=$!
sleep 0.4
cargo run --release -q --bin gomsh -- \
  --connect "$hostile_tmp/gomd.sock" "$hostile_tmp/shed.gsh" \
  > "$hostile_tmp/shed.log" 2>&1 || true
wait "$zombie_pid" || true
wait "$hostile_pid"
grep -q "lease-expired" "$hostile_tmp/zombie.log" \
  || { echo "MISSING lease-expired error in zombie client log"; cat "$hostile_tmp/zombie.log"; exit 1; }
grep -q "server.lease.expired=[1-9]" "$hostile_tmp/zombie.log" \
  || { echo "MISSING lease vitals in stats output"; cat "$hostile_tmp/zombie.log"; exit 1; }
grep -q '"server.lease.expired":[1-9]' "$hostile_tmp/server-trace.jsonl" \
  || { echo "MISSING server.lease.expired counter in trace"; exit 1; }
grep -q '"server.shed":[1-9]' "$hostile_tmp/server-trace.jsonl" \
  || { echo "MISSING server.shed counter in trace"; exit 1; }
rm -rf "$hostile_tmp"

# The SLO load harness must drive a live daemon end to end: replay a
# seeded 30-session Piccioni-mix trace from 4 writer + 4 reader clients
# against an in-process gomd and emit a parseable gom-bench/slo/v1 report
# with a nonzero EES p99 and no failed sessions. The op sequence is
# seed-deterministic, so a hang or error here is reproducible verbatim.
step "SLO load harness smoke (seeded 30-session trace, 4 writers + 4 readers)"
slo_tmp="$(mktemp -d)"
cargo build --release -p gom-bench --bin bench_slo
./target/release/bench_slo --seed 7 --sessions 30 --writers 4 --readers 4 \
  --out "$slo_tmp/slo.json" 2> "$slo_tmp/slo.log" \
  || { echo "bench_slo failed"; cat "$slo_tmp/slo.log"; exit 1; }
grep -q '"schema": "gom-bench/slo/v1"' "$slo_tmp/slo.json" \
  || { echo "MISSING slo/v1 schema in report"; cat "$slo_tmp/slo.json"; exit 1; }
grep -q '"verb": "ees", "count": [1-9]' "$slo_tmp/slo.json" \
  || { echo "MISSING ees row in slo report"; cat "$slo_tmp/slo.json"; exit 1; }
grep -q '"verb": "ees", [^}]*"p99_us": [1-9]' "$slo_tmp/slo.json" \
  || { echo "EES p99 must be nonzero"; cat "$slo_tmp/slo.json"; exit 1; }
grep -q '"commits": 30,' "$slo_tmp/slo.json" \
  || { echo "all 30 sessions must commit"; cat "$slo_tmp/slo.json"; exit 1; }
grep -q '"errors": 0,' "$slo_tmp/slo.json" \
  || { echo "slo run must be error-free"; cat "$slo_tmp/slo.json"; exit 1; }
rm -rf "$slo_tmp"

# Pre-EES impact planning must work end to end in release: an open
# session over the car schema gets a plan whose footprint names the
# constraint EES will check, and the impact.plan span lands in the trace.
step "impact planner smoke test (release, traced plan verb)"
plan_tmp="$(mktemp -d)"
{
  echo "load scripts/car_schema.gom"
  echo "new Car@CarSchema"
  echo "begin"
  echo "add-attr Car@CarSchema planAttr string"
  echo "plan"
  echo "rollback"
  echo "quit"
} > "$plan_tmp/session.gsh"
cargo run --release -q --bin gomsh -- \
  --store "$plan_tmp/db.gomj" --trace "$plan_tmp/trace.jsonl" \
  "$plan_tmp/session.gsh" > "$plan_tmp/plan.log"
grep -q "impact plan — 1 op(s)" "$plan_tmp/plan.log" \
  || { echo "MISSING plan report in gomsh output"; cat "$plan_tmp/plan.log"; exit 1; }
grep -q "slot_for_every_attr" "$plan_tmp/plan.log" \
  || { echo "MISSING footprint constraint in plan report"; exit 1; }
grep -q "warn\[L0601\]" "$plan_tmp/plan.log" \
  || { echo "MISSING L0601 diagnostic in plan report"; exit 1; }
for span in impact.plan impact.index.build; do
  grep -q "\"name\":\"$span" "$plan_tmp/trace.jsonl" \
    || { echo "MISSING span $span in plan trace"; exit 1; }
done
rm -rf "$plan_tmp"

# The lint severity gate must actually gate: a clean program passes the
# strictest gate, and a program with sub-error diagnostics fails once the
# gate is lowered to their severity.
step "gomsh lint --deny gate"
lint_tmp="$(mktemp -d)"
cat > "$lint_tmp/clean.cdl" <<'EOF'
base E(x, y).
derived Path(x, y).
Path(X, Y) :- E(X, Y).
Path(X, Z) :- E(X, Y), Path(Y, Z).
constraint acyclic: forall X: !Path(X, X).
E('a', 'b').
EOF
cargo run --release -q --bin gomsh -- \
  lint "$lint_tmp/clean.cdl" --deny note > "$lint_tmp/clean.log" \
  || { echo "clean program must pass --deny note"; cat "$lint_tmp/clean.log"; exit 1; }
cat > "$lint_tmp/warny.cdl" <<'EOF'
base N(x).
derived Cart(x, y).
Cart(X, Y) :- N(X), N(Y).
EOF
# Default gate (errors only): warnings do not fail the build...
cargo run --release -q --bin gomsh -- \
  lint "$lint_tmp/warny.cdl" > "$lint_tmp/warny_default.log" \
  || { echo "warning-only program must pass the default gate"; exit 1; }
# ...but an armed --deny warn gate turns them into a nonzero exit.
if cargo run --release -q --bin gomsh -- \
    lint "$lint_tmp/warny.cdl" --deny warn > "$lint_tmp/warny.log" 2>&1; then
  echo "lint --deny warn must fail on a program with warnings"
  cat "$lint_tmp/warny.log"
  exit 1
fi
rm -rf "$lint_tmp"

if command -v cargo-clippy >/dev/null 2>&1; then
  step "cargo clippy -D warnings"
  cargo clippy --all-targets -- -D warnings

  # Panic-containment gate: gom-store (recovery runs on arbitrary bytes),
  # gom-obs (on every hot path), gom-server (a panic takes down all
  # sessions; covers the wire codec, lease/session machinery, client retry
  # layer, and the fault proxy), gom-runtime (executes user method code),
  # gom-lint (runs on
  # arbitrary user programs) and gom-impact (runs inside EES; a panic would
  # take an open session down) all deny unwrap/expect via [lints.clippy]
  # in their own Cargo.toml, so a plain per-package clippy run enforces it
  # without leaking the deny into workspace dependencies. The incremental
  # maintenance module (gom-deductive/src/incr.rs) runs inside every armed
  # session and carries the same deny in-source at module level, so it is
  # enforced by any clippy run, including this one.
  step "cargo clippy unwrap/expect gate (store, obs, server, runtime, lint, impact, trace, deductive::incr)"
  cargo clippy -p gom-store -p gom-obs -p gom-server -p gom-runtime \
    -p gom-lint -p gom-impact -p gom-trace -p gom-deductive --all-targets -- -D warnings
else
  step "cargo clippy (SKIPPED: clippy not installed)"
fi

step "OK"
