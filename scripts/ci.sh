#!/usr/bin/env bash
# Local CI gate: formatting, lints, the static-analysis driver (unsafe
# audit + concurrency/panic-surface/consistency passes), tier-1 tests,
# an overflow-checked test pass, the fast-path parity gate (routed
# walker vs the general engine over the full query catalog), the paper
# reproduction gate (`experiments check`), the seek linearity gate, the
# mmap ingest smoke, the input-path parity gate, the hardware-counter and
# timeline-trace smokes, the profile-overhead gate,
# differential fuzz smoke, and (when the host toolchain provides them)
# Miri, AddressSanitizer, and ThreadSanitizer lanes. It ends with the
# size series (two rows and the line-count ratchet are gates) and a lane
# summary: every lane, whether it ran, and why not when it was skipped.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# `lane NAME` opens a lane that runs; `skip NAME WHY` records one this
# host cannot run. Both feed the summary printed last.
LANES=()
lane() {
  echo "==> $1"
  LANES+=("ran      $1")
}
skip() {
  echo "==> $1 SKIPPED ($2)"
  LANES+=("skipped  $1 — $2")
}
# A name-filtered `cargo test` whose filter matches nothing passes
# vacuously; a rename must not turn a lane into a no-op.
filtered_tests() {
  local out
  out="$(cargo test "$@" 2>&1)" || {
    echo "$out"
    return 1
  }
  echo "$out"
  if [ "$(awk '/^test result:/{n+=$4} END{print n+0}' <<<"$out")" -eq 0 ]; then
    echo "filtered lane: 'cargo test $*' matched no test"
    return 1
  fi
}

lane "cargo fmt --check"
cargo fmt --all -- --check

lane "cargo xtask analyze (static-analysis gate, zero findings)"
# All five passes (DESIGN.md §14): the unsafe audit, panic-surface
# justification, lock order, atomic-ordering policy, and consistency of
# the docs with the source and the series registry. The JSON rendering is
# part of the contract, so sanity-check it too.
cargo run --quiet --package xtask -- analyze
cargo run --quiet --package xtask -- analyze --json \
  | python3 -c 'import json,sys
r = json.load(sys.stdin)
assert r["schema_version"] == 1 and not r["findings"], r
assert len(r["passes"]) == 5, r["passes"]'

lane "cargo clippy (deny warnings, undocumented unsafe blocks)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::undocumented-unsafe-blocks

lane "tier-1: release build + tests (the whole workspace: default-members)"
cargo build --release
cargo test -q

lane "workspace tests with overflow checks"
RUSTFLAGS="-C overflow-checks=on" cargo test --workspace -q

lane "batch determinism gate (multi-threaded merge, SWAR override)"
# The rsq-batch suites sweep worker counts {1, 2, 3, 8, 64} and assert the
# merged outcomes are identical to a sequential run; the second pass
# repeats that under the portable backend override.
cargo test -p rsq-batch -q
RSQ_BACKEND=swar cargo test -p rsq-batch -q
# The NDJSON splitter and framer run the SIMD line-boundary kernel; their
# differential tests (against verbatim copies of the per-byte loops) pin
# every backend the host has, and `split_ndjson`/`NdjsonFramer::new`
# themselves follow the override — so the suite above has covered the
# default and SWAR; repeat those tests under AVX2 where the host has it.
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  lane "NDJSON differential under RSQ_BACKEND=avx2"
  RSQ_BACKEND=avx2 filtered_tests -p rsq-batch -q --lib ndjson::
else
  skip "NDJSON differential under RSQ_BACKEND=avx2" "no AVX2 on this host"
fi

lane "serve smoke gate (pipe protocol vs --batch-ndjson oracle)"
# Stream a corpus with CRLF lines, a blank line, an in-string newline,
# and no trailing newline through `rsq --serve`, fragmented into 3-byte
# writes so the incremental framer crosses escape/CRLF boundaries, and
# require byte-identical stdout to the batch run plus a clean drain
# (exit 0, silent stderr). The deeper fragmentation/fault matrix lives
# in the rsq-serve robustness suite below.
cargo build --release -p rsq-cli
SERVE_TMP="$(mktemp -d)"
trap 'rm -rf "$SERVE_TMP"' EXIT
printf '{"a": {"b": 1}}\n{"b": [1, 2, 3]}\r\n\n{"b": "x\\ny"}\n{"c": 0}' \
  > "$SERVE_TMP/corpus.ndjson"
./target/release/rsq --count '$..b' --batch-ndjson "$SERVE_TMP/corpus.ndjson" \
  > "$SERVE_TMP/batch.out"
dd if="$SERVE_TMP/corpus.ndjson" bs=3 2>/dev/null \
  | ./target/release/rsq --serve --count '$..b' \
  > "$SERVE_TMP/serve.out" 2> "$SERVE_TMP/serve.err"
diff -u "$SERVE_TMP/batch.out" "$SERVE_TMP/serve.out"
if [ -s "$SERVE_TMP/serve.err" ]; then
  echo "serve smoke gate: unexpected diagnostics on stderr:"
  cat "$SERVE_TMP/serve.err"
  exit 1
fi

lane "fast-path parity gate (routed walker vs RSQ_ROUTE=general, full catalog)"
# Every catalog query on the detected backend, the portable SWAR
# override and — where the host has it and it is not what was detected
# anyway — AVX2, so that each instantiation of the pipeline this machine
# can run does run end to end: forcing the general engine must not change
# a single emitted position. dump-corpus materializes the datasets plus a query
# manifest; the gate also requires that the shape analyzer routed a
# healthy share of the catalog off the general path, so parity can't
# pass vacuously because everything fell back.
RSQ_DATASET_MB=2 cargo run --quiet --release -p rsq-bench --bin experiments -- \
  dump-corpus "$SERVE_TMP/corpus"
FAST_ROUTED=0
QUERIES=0
PARITY_BACKENDS=("" swar)
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  PARITY_BACKENDS+=(avx2)
fi
while IFS=$'\t' read -r id file query; do
  doc="$SERVE_TMP/corpus/$file"
  QUERIES=$((QUERIES + 1))
  route="$(./target/release/rsq --stats-json --count "$query" "$doc" 2>&1 >/dev/null \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["route"])')"
  case "$route" in
    field_chain|selective) FAST_ROUTED=$((FAST_ROUTED + 1)) ;;
  esac
  for backend in "${PARITY_BACKENDS[@]}"; do
    RSQ_BACKEND="$backend" ./target/release/rsq --positions "$query" "$doc" \
      > "$SERVE_TMP/parity-fast.txt"
    RSQ_BACKEND="$backend" RSQ_ROUTE=general ./target/release/rsq \
      --positions "$query" "$doc" > "$SERVE_TMP/parity-general.txt"
    if ! cmp -s "$SERVE_TMP/parity-fast.txt" "$SERVE_TMP/parity-general.txt"; then
      echo "parity gate: $id ($query) diverges under backend '${backend:-auto}':"
      diff "$SERVE_TMP/parity-fast.txt" "$SERVE_TMP/parity-general.txt" | head
      exit 1
    fi
  done
done < "$SERVE_TMP/corpus/catalog.tsv"
if [ "$FAST_ROUTED" -lt 8 ]; then
  echo "parity gate: only $FAST_ROUTED of $QUERIES queries routed fast (expected >= 8)"
  exit 1
fi
echo "parity gate: $QUERIES queries x ${#PARITY_BACKENDS[@]} backends" \
  "(auto ${PARITY_BACKENDS[*]:1}) agree; $FAST_ROUTED routed fast"

lane "paper reproduction gate (experiments check)"
# Regenerates Tables 2 and 4–7, Appendix D and the ablations at 4 MB per
# dataset and holds them to the shapes of EXPERIMENTS.md's summary
# (`rsq_bench::SHAPES`, each bound written beside it); exits non-zero when
# a gated shape fails. About 6 s on a 2-vCPU VM; keep it under 60 s.
RSQ_DATASET_MB=4 cargo run --quiet --release -p rsq-bench --bin experiments -- check

lane "seek linearity gate (label-free siblings, both routes, 5 s each)"
# 100 000 sibling containers that lack the sought label, whose only other
# occurrence is at the far end of the document (general route: `$..a..b.c`)
# or nowhere (routed walker: `$.r.*.a.b`). Every seek must stop at its own
# container's end without searching the rest of the document again: a
# linear run takes ~25 ms, a quadratic one ~10 s, so `timeout 5` tells
# them apart (the DOM oracle's own half second included). The third
# document is the head start's: 100 000 `"a"` string values, each a
# candidate the document seek declines (no colon follows), before one
# `{"a":1}`. --verify checks the matches against that oracle.
python3 - "$SERVE_TMP" <<'PYEOF'
import sys
sibling = '{"a":{"x":{"y":{"z":{"w":{"v":1}}}}}}'
siblings = ",".join([sibling] * 100_000)
with open(sys.argv[1] + "/seek-descendant.json", "w") as f:
    f.write("[" + siblings + ',{"a":{"x":{"b":{"c":7}}}}]')
with open(sys.argv[1] + "/seek-routed.json", "w") as f:
    f.write('{"r":[' + siblings + "]}")
with open(sys.argv[1] + "/seek-declined.json", "w") as f:
    f.write("[" + ",".join(['"a"'] * 100_000) + ',{"a":1}]')
PYEOF
while read -r file query want; do
  for env in "" RSQ_BACKEND=swar RSQ_ROUTE=general; do
    status=0
    verdict="$(env $env timeout 5 ./target/release/rsq --verify "$query" \
      "$SERVE_TMP/$file")" || status=$?
    if [ "$status" -ne 0 ] || [[ "$verdict" != "ok: $want matches,"* ]]; then
      echo "seek linearity gate: $query on $file under '${env:-auto}':" \
        "exit $status (124 = timed out), '$verdict', expected $want matches"
      exit 1
    fi
  done
done <<'CASES'
seek-descendant.json $..a..b.c 1
seek-routed.json $.r.*.a.b 0
seek-declined.json $..a 1
CASES
echo "seek linearity gate: 3 documents x 3 configurations linear and verified"

lane "mmap smoke gate (--mmap on vs off over a multi-MB batch dir)"
# Multi-MiB documents through --batch-dir under both ingest policies:
# mapped and buffered reads must produce byte-identical output. The
# corpus files are above the 1 MiB threshold, so `auto` maps too.
MMAP_DIR="$SERVE_TMP/mmap-batch"
mkdir -p "$MMAP_DIR"
cp "$SERVE_TMP/corpus/B.json" "$SERVE_TMP/corpus/G.json" \
  "$SERVE_TMP/corpus/Wa.json" "$MMAP_DIR/"
./target/release/rsq --count '$..id' --batch-dir "$MMAP_DIR" --mmap on \
  > "$SERVE_TMP/mmap-on.out"
./target/release/rsq --count '$..id' --batch-dir "$MMAP_DIR" --mmap off \
  > "$SERVE_TMP/mmap-off.out"
./target/release/rsq --count '$..id' --batch-dir "$MMAP_DIR" \
  > "$SERVE_TMP/mmap-auto.out"
diff -u "$SERVE_TMP/mmap-on.out" "$SERVE_TMP/mmap-off.out"
diff -u "$SERVE_TMP/mmap-auto.out" "$SERVE_TMP/mmap-off.out"

lane "input-path parity gate (FILE, < FILE, cat FILE |, --mmap off|on FILE; --batch-ndjson FILE|-)"
# Every single-document golden case, through each way a document can reach
# the engine — the file as named (copied: the fixtures are far below the
# 1 MiB mapping threshold), redirected, through a pipe, with mapping off,
# and mapped by force — must give the same stdout and the same exit status
# (the table's). The one known
# divergence is listed by name: a mapped document counts only the openings
# the run examines against --max-depth, a copied one all of them
# (DESIGN.md §7; both behaviours are pinned by the golden fixtures).
PARITY_EXCEPT=" doc-deep-skipped-mapped doc-deep-skipped-stdin "
PARITY_RSQ="$PWD/target/release/rsq"
PARITY_CASES=0
set -f # the arguments are split on spaces, not globbed (queries hold `*`)
while IFS=$'\t' read -r name exit stdin args; do
  case "$name" in doc-*) ;; *) continue ;; esac
  case "$PARITY_EXCEPT" in *" $name "*)
    echo "parity gate: $name skipped (known divergence)"
    continue ;;
  esac
  args="${args//@METRICS/$SERVE_TMP/parity.metrics}"
  if [ "$stdin" = "-" ]; then
    file="${args##* }" flags="${args% *}"
  else
    file="$stdin" flags="$args"
  fi
  for path in file redirect pipe mmap-off mmap-on; do
    status=0
    (
      cd crates/cli/tests/golden
      case "$path" in
        file) RSQ_PERF=off "$PARITY_RSQ" $flags "$file" ;;
        redirect) RSQ_PERF=off "$PARITY_RSQ" $flags < "$file" ;;
        pipe) cat "$file" | RSQ_PERF=off "$PARITY_RSQ" $flags ;;
        mmap-off) RSQ_PERF=off "$PARITY_RSQ" --mmap off $flags "$file" ;;
        mmap-on) RSQ_PERF=off "$PARITY_RSQ" --mmap on $flags "$file" ;;
      esac
    ) > "$SERVE_TMP/parity-$path.out" 2> /dev/null || status=$?
    if [ "$status" -ne "$exit" ]; then
      echo "parity gate: $name as $path exits $status, the case table says $exit"
      exit 1
    fi
    if ! cmp -s "$SERVE_TMP/parity-file.out" "$SERVE_TMP/parity-$path.out"; then
      echo "parity gate: $name: stdout as $path differs from stdout as file"
      exit 1
    fi
  done
  PARITY_CASES=$((PARITY_CASES + 1))
done < crates/cli/tests/golden/cases.tsv
set +f
if [ "$PARITY_CASES" -lt 12 ]; then
  echo "parity gate: only $PARITY_CASES single-document cases ran (expected >= 12)"
  exit 1
fi
echo "parity gate: $PARITY_CASES cases x 5 input paths agree"
# The batch cases that name an NDJSON file, through each way that file can
# reach the splitter — as named (copied: the fixture is far below the
# mapping threshold), mapped by force, with mapping off, and redirected as
# `-` — against the pinned stdout and the table's exit status.
BATCH_PARITY_CASES=0
set -f
while IFS=$'\t' read -r name exit stdin args; do
  case "$name $stdin $args" in
    batch-*" - "*"--batch-ndjson docs.ndjson"*) ;;
    *) continue ;;
  esac
  args="${args//@METRICS/$SERVE_TMP/parity.metrics}"
  for path in file mmap-on mmap-off redirect; do
    status=0
    (
      cd crates/cli/tests/golden
      case "$path" in
        file) RSQ_PERF=off "$PARITY_RSQ" $args ;;
        mmap-on) RSQ_PERF=off "$PARITY_RSQ" --mmap on $args ;;
        mmap-off) RSQ_PERF=off "$PARITY_RSQ" --mmap off $args ;;
        redirect)
          RSQ_PERF=off "$PARITY_RSQ" ${args/--batch-ndjson docs.ndjson/--batch-ndjson -} \
            < docs.ndjson ;;
      esac
    ) > "$SERVE_TMP/parity-batch.out" 2> /dev/null || status=$?
    if [ "$status" -ne "$exit" ]; then
      echo "parity gate: $name as $path exits $status, the case table says $exit"
      exit 1
    fi
    if ! cmp -s "crates/cli/tests/golden/$name.stdout" "$SERVE_TMP/parity-batch.out"; then
      echo "parity gate: $name: stdout as $path differs from the pinned stdout"
      exit 1
    fi
  done
  BATCH_PARITY_CASES=$((BATCH_PARITY_CASES + 1))
done < crates/cli/tests/golden/cases.tsv
set +f
if [ "$BATCH_PARITY_CASES" -lt 7 ]; then
  echo "parity gate: only $BATCH_PARITY_CASES NDJSON batch cases ran (expected >= 7)"
  exit 1
fi
echo "parity gate: $BATCH_PARITY_CASES NDJSON batch cases x 4 input paths agree"

lane "hardware-counter smoke gate (forced denial + armed path)"
# Counters must never change results. The forced-denial half runs
# everywhere: RSQ_PERF=deny (open fails with a simulated EPERM) must
# leave stdout AND the stats JSON byte-identical to RSQ_PERF=off, with
# no "perf" object in either. The armed half (RSQ_PERF unset → auto)
# asserts nonzero counters only where the kernel grants access; denied
# hosts — containers, VMs without a PMU — get a visible skip notice.
PERF_DOC="$SERVE_TMP/perf-doc.json"
printf '{"a": {"b": [1, 2, 3]}, "b": 7}' > "$PERF_DOC"
RSQ_PERF=off ./target/release/rsq --count --stats-json '$..b' "$PERF_DOC" \
  > "$SERVE_TMP/perf-off.out" 2> "$SERVE_TMP/perf-off.err"
RSQ_PERF=deny ./target/release/rsq --count --stats-json '$..b' "$PERF_DOC" \
  > "$SERVE_TMP/perf-deny.out" 2> "$SERVE_TMP/perf-deny.err"
diff -u "$SERVE_TMP/perf-off.out" "$SERVE_TMP/perf-deny.out"
diff -u "$SERVE_TMP/perf-off.err" "$SERVE_TMP/perf-deny.err"
if grep -q '"perf"' "$SERVE_TMP/perf-deny.err"; then
  echo "perf smoke gate: denied run leaked a perf object"
  exit 1
fi
./target/release/rsq --count --stats-json '$..b' "$PERF_DOC" \
  > "$SERVE_TMP/perf-auto.out" 2> "$SERVE_TMP/perf-auto.err"
diff -u "$SERVE_TMP/perf-off.out" "$SERVE_TMP/perf-auto.out"
if grep -q '"perf"' "$SERVE_TMP/perf-auto.err"; then
  python3 - "$SERVE_TMP/perf-auto.err" <<'PYEOF'
import json, sys
stats = json.load(open(sys.argv[1]))
perf = stats["perf"]
assert perf["docs"] == 1 and perf["bytes"] > 0, perf
assert perf["counters"]["cycles"] > 0, perf
assert perf["cycles_per_byte"] > 0.0, perf
PYEOF
  lane "hardware-counter armed path (nonzero cycles recorded)"
else
  skip "hardware-counter armed path" \
    "the kernel denies perf_event_open here; the denial path is verified above"
fi

lane "timeline trace smoke gate (--trace-out well-formedness)"
# A batch run over the serve corpus must leave a Perfetto-loadable
# Chrome trace: valid JSON, thread_name metadata, one doc slice plus
# exactly four phase slices (queue-wait/run/reorder-wait/emit) per
# document.
./target/release/rsq --count '$..b' --batch-ndjson "$SERVE_TMP/corpus.ndjson" \
  --trace-out "$SERVE_TMP/trace.json" > /dev/null
python3 - "$SERVE_TMP/trace.json" <<'PYEOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
xs = [e for e in events if e["ph"] == "X"]
metas = [e for e in events if e["ph"] == "M"]
assert xs, "no X slices"
assert any(e["name"] == "thread_name" for e in metas), metas
for e in xs:
    assert e["ts"] >= 0 and e["dur"] >= 0, e
    assert isinstance(e["pid"], int) and isinstance(e["tid"], int), e
docs = [e for e in xs if e["name"].startswith("doc ")]
phases = [e for e in xs if e["name"] in ("queue-wait", "run", "reorder-wait", "emit")]
assert docs, xs
assert len(phases) == 4 * len(docs), (len(phases), len(docs))
PYEOF

lane "serve live-telemetry smoke gate (scrape under load + postmortem)"
# Part 1: a socket server with the scrape endpoint armed. A client
# streams fragmented NDJSON while curl scrapes /metrics through the
# second socket: the exposition must carry rolling-window series with
# their headers and show nonzero worker/document gauges; /healthz must answer ok; POST /shutdown must
# drain the server to a clean exit.
TELEMETRY_PIDS=""
trap 'kill $TELEMETRY_PIDS 2>/dev/null || true; rm -rf "$SERVE_TMP"' EXIT
./target/release/rsq --serve-socket "$SERVE_TMP/serve-t.sock" \
  --telemetry-socket "$SERVE_TMP/tele.sock" --count '$..b' &
TELEMETRY_PIDS="$!"
for _ in $(seq 1 100); do
  [ -S "$SERVE_TMP/serve-t.sock" ] && [ -S "$SERVE_TMP/tele.sock" ] && break
  sleep 0.05
done
python3 - "$SERVE_TMP/serve-t.sock" <<'PYEOF' &
import socket, sys, threading, time
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
# Drain responses concurrently: the serve protocol is full-duplex, so a
# client that sends everything before reading deadlocks both sides once
# the response buffer fills.
def drain_responses():
    while s.recv(65536):
        pass
drain = threading.Thread(target=drain_responses)
drain.start()
payload = b'{"a": {"b": [1, 2]}, "b": 3}\n' * 4000
for i in range(0, len(payload), 7):  # hostile fragmentation
    s.sendall(payload[i : i + 7])
    if i % 70000 == 0:
        time.sleep(0.02)
s.shutdown(socket.SHUT_WR)
drain.join()
PYEOF
LOAD_PID=$!
TELEMETRY_PIDS="$TELEMETRY_PIDS $LOAD_PID"
sleep 0.5  # scrape mid-load: documents are flowing by now
curl -sf --unix-socket "$SERVE_TMP/tele.sock" http://localhost/metrics \
  > "$SERVE_TMP/scrape.prom"
curl -sf --unix-socket "$SERVE_TMP/tele.sock" http://localhost/healthz | grep -q '^ok$'
grep -q '^rsq_window_documents{window="10s"} [1-9]' "$SERVE_TMP/scrape.prom"
grep -q '^rsq_workers [1-9]' "$SERVE_TMP/scrape.prom"
grep -q '^rsq_window_latency_ns{window="10s",quantile="0.99"}' "$SERVE_TMP/scrape.prom"
grep -q '^# TYPE rsq_queue_depth gauge' "$SERVE_TMP/scrape.prom"
grep -q '^# TYPE rsq_serve_documents_total counter' "$SERVE_TMP/scrape.prom"
wait "$LOAD_PID"
curl -sf --unix-socket "$SERVE_TMP/tele.sock" -X POST http://localhost/shutdown \
  | grep -q draining
wait "${TELEMETRY_PIDS%% *}"

# Part 2: a zero-deadline single-worker server times out both submitted
# documents deterministically; each fault must leave a postmortem whose
# stage timeline sums to its recorded latency (telescoping laps make
# them equal by construction — the gate pins that invariant), and the
# second postmortem's flight-recorder history must carry the first span.
./target/release/rsq --serve-socket "$SERVE_TMP/serve-pm.sock" \
  --telemetry-socket "$SERVE_TMP/tele-pm.sock" \
  --postmortem-dir "$SERVE_TMP/pm" --flight-window 4 --threads 1 \
  --deadline-ms 0 --count '$..b' &
PM_SERVER_PID=$!
TELEMETRY_PIDS="$TELEMETRY_PIDS $PM_SERVER_PID"
for _ in $(seq 1 100); do
  [ -S "$SERVE_TMP/serve-pm.sock" ] && [ -S "$SERVE_TMP/tele-pm.sock" ] && break
  sleep 0.05
done
python3 - "$SERVE_TMP/serve-pm.sock" <<'PYEOF'
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b'{"a": {"b": 1}}\n{"a": {"b": 2}}\n')
s.shutdown(socket.SHUT_WR)
data = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
assert data.count(b"[timeout]") == 2, data
PYEOF
curl -sf --unix-socket "$SERVE_TMP/tele-pm.sock" -X POST http://localhost/shutdown \
  > /dev/null
PM_STATUS=0
wait "$PM_SERVER_PID" || PM_STATUS=$?
[ "$PM_STATUS" -eq 7 ] # deadline failure class on exit
[ "$(ls "$SERVE_TMP/pm" | wc -l)" -eq 2 ]
# Postmortems carry the stats schema version (STATS_SCHEMA_VERSION in
# crates/obs/src/profile.rs); read it from the source so the gate follows
# the constant.
SCHEMA_VERSION="$(sed -n 's/^pub const STATS_SCHEMA_VERSION: u64 = \([0-9]*\);$/\1/p' \
  crates/obs/src/profile.rs)"
python3 - "$SCHEMA_VERSION" "$SERVE_TMP"/pm/postmortem-*.json <<'PYEOF'
import json, sys
schema_version = int(sys.argv[1])
pms = [json.load(open(p)) for p in sorted(sys.argv[2:])]
for pm in pms:
    assert pm["schema_version"] == schema_version, pm
    assert pm["code"] == "timeout", pm
    doc = pm["doc"]
    phases = (
        doc["queue_wait_ns"]
        + doc["run_ns"]
        + doc["reorder_wait_ns"]
        + doc["emit_ns"]
    )
    assert abs(phases - pm["latency_ns"]) <= 1_000_000, (phases, pm["latency_ns"])
# Single worker: the second fault's flight recorder must remember the
# first span.
assert pms[1]["recent"], "flight recorder history present in second dump"
assert pms[1]["recent"][0]["seq"] == pms[0]["doc"]["seq"], pms[1]["recent"]
PYEOF

lane "serve robustness chaos sweep (slow-tests)"
# 200 seeded fragmentation/stall/truncation/disconnect plans, each
# checked for output parity with the batch oracle.
cargo test -p rsq-serve --release --features slow-tests -q

lane "profile-overhead gate (Tier C compiles out of unprofiled runs)"
# Tier C profiling is always-compiled (no cargo feature): the Recorder
# hooks default to empty #[inline] bodies, so NoStats/RunStats runs must
# stay byte-identical in matches and Tier A counters to a profiled run,
# and the stats-overhead ablation must stay throughput-neutral. The
# release-mode guard asserts the consistency half; the skip-map property
# test pins the byte-span accounting across backends.
cargo test -p rsq --release --features slow-tests --test obs_overhead -q
cargo test -p rsq-engine --release --test skipmap -q
RSQ_BACKEND=swar cargo test -p rsq-engine --release --test skipmap -q

lane "profiling lanes (batch profile merge, CLI --profile surface)"
filtered_tests -p rsq-batch --release -q profile
filtered_tests -p rsq-cli -q profile
filtered_tests -p rsq-cli -q metrics

lane "differential fuzz smoke (30s budget across all targets)"
cargo run --quiet --package xtask -- fuzz-smoke --max-seconds 30

# Optional lanes: both need components the offline stable image may not
# ship. Each is gated on a probe so the gate stays green everywhere but
# runs the deeper check wherever the toolchain allows it.
if cargo +nightly miri --version >/dev/null 2>&1; then
  lane "Miri lane (kernel + stackvec crates, SWAR fallback)"
  # Miri interprets Rust, not vendor intrinsics: Simd::detect falls back
  # to the portable SWAR backend under cfg(miri) (DESIGN.md §9).
  cargo +nightly miri test -p rsq-stackvec -p rsq-simd -q
  cargo +nightly miri test -p rsq-difftest -q
else
  skip "Miri lane" "nightly miri not installed"
fi

if [ "$(uname -sm)" = "Linux x86_64" ] && rustc +nightly --version >/dev/null 2>&1; then
  lane "AddressSanitizer lane (kernel + stackvec crates)"
  # --tests only: doctest binaries don't link the ASan runtime.
  RUSTFLAGS="-Zsanitizer=address" cargo +nightly test \
    -p rsq-stackvec -p rsq-simd -q --tests --target x86_64-unknown-linux-gnu
else
  skip "AddressSanitizer lane" "needs nightly on x86_64 Linux"
fi

if [ "$(uname -sm)" = "Linux x86_64" ] && rustc +nightly --version >/dev/null 2>&1 \
  && rustup component list --toolchain nightly 2>/dev/null | grep -q '^rust-src.*(installed)'; then
  lane "ThreadSanitizer lane (batch determinism + serve robustness)"
  # TSan needs std rebuilt with instrumentation (-Zbuild-std, hence the
  # rust-src probe) or it reports false races inside precompiled std.
  # The lock-order pass above is static; this lane is the dynamic check
  # over the threaded crates' suites.
  RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -Zbuild-std \
    -p rsq-batch -p rsq-serve -q --tests --target x86_64-unknown-linux-gnu
else
  skip "ThreadSanitizer lane" "needs nightly + rust-src on x86_64 Linux"
fi

lane "size series (non-test lines, dispatch entries, text bytes, popcnt)"
# Three rows are gates. Three instantiations of the pipeline must not grow
# the binary without bound (1.05 MB before per-run dispatch), and on
# x86-64 a binary without a single `popcnt` means the pipeline is no
# longer being inlined into the backends' entries — every `count_ones`
# has silently gone back to shifts and masks (DESIGN.md §9). The
# non-test line count is a ratchet (ROADMAP item 4): MAX_LINES is what
# the last simplicity PR landed at, each one lowers it, and a PR that
# has to raise it says in its description what the lines bought.
MAX_LINES=28131
scripts/loc.sh | tee "$SERVE_TMP/loc.txt"
LINES="$(awk '/^total non-test lines/{print $NF}' "$SERVE_TMP/loc.txt")"
TEXT_BYTES="$(awk '/^text bytes/{print $NF}' "$SERVE_TMP/loc.txt")"
POPCNT="$(awk '/^popcnt instructions/{print $NF}' "$SERVE_TMP/loc.txt")"
if [ "$LINES" -gt "$MAX_LINES" ]; then
  echo "size gate: $LINES non-test lines (ratchet $MAX_LINES)"
  exit 1
fi
if [ "$TEXT_BYTES" -gt 1500000 ]; then
  echo "size gate: text is $TEXT_BYTES bytes (limit 1500000)"
  exit 1
fi
if [ "$(uname -m)" = "x86_64" ] && [ "$POPCNT" -eq 0 ]; then
  echo "size gate: no popcnt instruction in target/release/rsq"
  exit 1
fi

echo "==> lane summary"
printf '  %s\n' "${LANES[@]}"
echo "CI OK"
