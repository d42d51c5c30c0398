#!/usr/bin/env bash
# Local CI gate: formatting, clippy with the unsafe, panic-surface and
# disallowed-type lints, the lint-teeth lane, tier-1 tests (the contract
# tests among them: doc tables, lint configuration, this script's names),
# an overflow-checked test pass, the batch determinism and serve smoke
# gates, the fast-path parity gate (routed walker vs the general engine
# over the full query catalog), the paper reproduction gate
# (`experiments check`), the seek linearity gate, the mmap ingest smoke,
# the input-path parity gate, the values parity gate, the stdin streaming
# gate, the instruction-meter lane, the live-telemetry smoke, the serve
# chaos sweep, the profile-overhead gate (counters and wall time), the
# seeded differential fuzz sweep, and (when the host toolchain provides
# them) Miri, AddressSanitizer, and ThreadSanitizer lanes. It ends with
# the size series (two rows and the line-count ratchet are gates) and a
# lane summary: pass, fail or skipped for every lane, and why a skipped
# one could not run. A failed lane does not stop the lanes after it; the
# script exits 1 if any lane failed.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# `run NAME FUNCTION` runs a lane in a subshell under `set -e`, so the
# lane stops at its first failing command and the next lane still runs;
# `skip NAME WHY` records one this host cannot run. Both feed the summary
# printed last.
SUMMARY=()
FAILED=0
run() {
  echo "==> $1"
  local status start=$SECONDS
  set +e
  (
    set -e
    "$2"
  )
  status=$?
  set -e
  if [ "$status" -eq 0 ]; then
    SUMMARY+=("pass     $1 ($((SECONDS - start)) s)")
  else
    SUMMARY+=("fail     $1 (exit $status)")
    FAILED=1
  fi
}
skip() {
  echo "==> $1 SKIPPED ($2)"
  SUMMARY+=("skipped  $1 — $2")
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

# The lanes' scratch directory: corpora and outputs one lane writes and a
# later one reads.
SERVE_TMP="$(mktemp -d)"
trap 'rm -rf "$SERVE_TMP"' EXIT

lane_fmt() {
cargo fmt --all -- --check
}
run "cargo fmt --check" lane_fmt

lane_clippy() {
# The kernel manifests deny undocumented unsafe, the crate roots declare
# their panic-surface tier, and `clippy.toml` disallows raw atomics
# outside `rsq_batch::sync`, so plain `cargo clippy` enforces all three.
cargo clippy --workspace --all-targets -- -D warnings
}
run "cargo clippy (deny warnings; the crates' own unsafe, panic-surface and disallowed-type lints)" lane_clippy

lane_teeth() {
# DESIGN.md §14.1 names the rustc or clippy lint that replaced each class
# the deleted analyzer passes reported. Each seed is appended to a copy
# of a real crate — `rsq-obs` exterior, `rsq-memmem` contained,
# `rsq-stackvec` a kernel — and clippy must fail on it, naming that lint.
TEETH="$(mktemp -d)"
trap 'rm -rf "$TEETH"' EXIT
tar --exclude=./.git --exclude=./target --exclude=./.bench_build \
  --exclude=./benchmark/target --exclude=./benchmark/out -cf - . | tar -xf - -C "$TEETH"
# `teeth CRATE LINT SEED [CLIPPY ARGS...]`: LINT is `clippy::name`, a
# rustc lint name, or an error code, matched where the report states it.
teeth() {
  local lib="$TEETH/crates/$1/src/lib.rs" want out
  case "$2" in
    clippy::*) want="index.html#${2#clippy::}\$" ;;
    E0*) want="^error\\[$2\\]" ;;
    *) want="-[DF] ${2//_/-}\`" ;;
  esac
  cp "$lib" "$TEETH/lib.rs.orig"
  printf '\n%s\n' "$3" >>"$lib"
  if out="$(cd "$TEETH" && CARGO_TARGET_DIR="$TEETH/target" \
    cargo clippy --offline -q -p "rsq-$1" --lib "${@:4}" 2>&1)"; then
    echo "lint teeth: rsq-$1 passed clippy despite a seeded $2"
    return 1
  fi
  if ! grep -qE -- "$want" <<<"$out"; then
    echo "$out"
    echo "lint teeth: rsq-$1 failed clippy without naming $2"
    return 1
  fi
  mv "$TEETH/lib.rs.orig" "$lib"
}
RAW='pub fn teeth(v: &[u8]) -> u8 {'
teeth obs clippy::unwrap_used "$RAW v.first().copied().unwrap() }"
teeth obs clippy::indexing_slicing "$RAW v[0] }"
teeth obs unsafe_code "$RAW unsafe { *v.as_ptr() } }"
teeth obs E0453 '#[allow(unsafe_code, reason = "an exception the forbid must refuse")]
pub fn teeth() {}'
teeth obs clippy::allow_attributes_without_reason "#[expect(clippy::indexing_slicing)]
$RAW v[0] }"
teeth obs unfulfilled_lint_expectations "#[expect(clippy::indexing_slicing, reason = \"stale\")]
$RAW v.first().copied().unwrap_or(0) }" -- -D warnings
teeth obs clippy::disallowed_types 'pub static TEETH: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);' -- -D warnings
teeth memmem clippy::unwrap_used "$RAW v.first().copied().unwrap() }"
teeth memmem clippy::expect_used "$RAW v.first().copied().expect(\"non-empty\") }"
for mac in panic unreachable todo unimplemented; do
  teeth memmem "clippy::$mac" "$RAW $mac!() }"
done
teeth stackvec clippy::undocumented_unsafe_blocks "$RAW unsafe { *v.as_ptr() } }"
teeth stackvec clippy::undocumented_unsafe_blocks '/// Shares a pointer across threads.
pub struct Teeth(*const u8);
unsafe impl Send for Teeth {}'
teeth stackvec clippy::missing_safety_doc '/// Reads nothing.
pub unsafe fn teeth(_p: *const u8) {}'
teeth stackvec unsafe_op_in_unsafe_fn '/// # Safety
/// `p` is valid for reads of two bytes.
pub unsafe fn teeth(p: *const u8) -> *const u8 { p.add(1) }'
teeth stackvec E0133 '#[target_feature(enable = "avx2")]
fn kernel() {}
pub fn teeth() { kernel() }'
# rustdoc holds a `compile_fail,E0133` doctest to its error code only on
# nightly: where one exists, pin rsq-simd's doctest to E0133 exactly.
if rustc +nightly --version >/dev/null 2>&1; then
  CARGO_TARGET_DIR="$TEETH/nightly" cargo +nightly test --offline -q -p rsq-simd --doc Backend
fi
rm -rf "$TEETH"
trap - EXIT
}
run "lint teeth (each lint that replaced an analyzer class fires on a seeded violation)" lane_teeth

lane_tier1() {
cargo build --release
cargo test -q
}
run "tier-1: release build + tests (the whole workspace: default-members)" lane_tier1

lane_overflow() {
RUSTFLAGS="-C overflow-checks=on" cargo test --workspace -q
}
run "workspace tests with overflow checks" lane_overflow

lane_batch() {
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
}
run "batch determinism gate (multi-threaded merge, SWAR override)" lane_batch

lane_ndjson_avx2() {
RSQ_BACKEND=avx2 filtered_tests -p rsq-batch -q --lib ndjson::
}
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  run "NDJSON differential under RSQ_BACKEND=avx2" lane_ndjson_avx2
else
  skip "NDJSON differential under RSQ_BACKEND=avx2" "no AVX2 on this host"
fi

lane_serve_smoke() {
# Stream a corpus with CRLF lines, a blank line, an in-string newline,
# and no trailing newline through `rsq --serve`, fragmented into 3-byte
# writes so the incremental framer crosses escape/CRLF boundaries, and
# require byte-identical stdout to the batch run plus a clean drain
# (exit 0, silent stderr). `--threads 1` runs every document on the
# connection's thread with no helper; `--threads 3` adds two helpers, so
# responses finish out of order. The deeper fragmentation/fault matrix
# lives in the rsq-serve robustness suite below.
cargo build --release -p rsq-cli
printf '{"a": {"b": 1}}\n{"b": [1, 2, 3]}\r\n\n{"b": "x\\ny"}\n{"c": 0}' \
  > "$SERVE_TMP/corpus.ndjson"
./target/release/rsq --count '$..b' --batch-ndjson "$SERVE_TMP/corpus.ndjson" \
  > "$SERVE_TMP/batch.out"
for threads in "" 1 3; do
  dd if="$SERVE_TMP/corpus.ndjson" bs=3 2>/dev/null \
    | ./target/release/rsq --serve ${threads:+--threads "$threads"} --count '$..b' \
    > "$SERVE_TMP/serve.out" 2> "$SERVE_TMP/serve.err"
  diff -u "$SERVE_TMP/batch.out" "$SERVE_TMP/serve.out"
  if [ -s "$SERVE_TMP/serve.err" ]; then
    echo "serve smoke gate (threads ${threads:-default}): unexpected diagnostics on stderr:"
    cat "$SERVE_TMP/serve.err"
    exit 1
  fi
done

}
run "serve smoke gate (pipe protocol vs --batch-ndjson oracle, 1/3/default threads)" lane_serve_smoke

lane_fast_path() {
# Every catalog query on the detected backend, the portable SWAR
# override and — where the host has it and it is not what was detected
# anyway — AVX2, so that each instantiation of the pipeline this machine
# can run does run end to end: forcing the general engine must not change
# a single emitted position. dump-corpus materializes the datasets plus a
# query manifest, twice: at 1 MB per dataset, under the routing probe's
# 1 MiB threshold (routable queries take the walker on their shape), and
# at 2 MB, over it (each run takes the route its probe chooses). The
# gate requires that the shape analyzer routed a healthy share of the
# catalog off the general path, and that on the long inputs the probe
# both kept the walker and turned it down, so parity can't pass
# vacuously because everything fell back.
FAST_ROUTED=0
PROBE_KEPT=0
PROBE_DECLINED=0
QUERIES=0
PARITY_BACKENDS=("" swar)
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  PARITY_BACKENDS+=(avx2)
fi
declare -A SHAPE_ROUTE=()
for mb in 1 2; do
  RSQ_DATASET_MB=$mb cargo run --quiet --release -p rsq-bench --bin experiments -- \
    dump-corpus "$SERVE_TMP/corpus-$mb"
  while IFS=$'\t' read -r id file query; do
    doc="$SERVE_TMP/corpus-$mb/$file"
    QUERIES=$((QUERIES + 1))
    route="$(./target/release/rsq --stats-json --count "$query" "$doc" 2>&1 >/dev/null \
      | python3 -c 'import json,sys; print(json.load(sys.stdin)["route"])')"
    if [ "$mb" = 1 ]; then
      SHAPE_ROUTE[$id]="$route"
      [ "$route" = selective ] && FAST_ROUTED=$((FAST_ROUTED + 1))
    elif [ "${SHAPE_ROUTE[$id]}" = selective ]; then
      case "$route" in
        selective) PROBE_KEPT=$((PROBE_KEPT + 1)) ;;
        general) PROBE_DECLINED=$((PROBE_DECLINED + 1)) ;;
      esac
    fi
    for backend in "${PARITY_BACKENDS[@]}"; do
      RSQ_BACKEND="$backend" ./target/release/rsq --positions "$query" "$doc" \
        > "$SERVE_TMP/parity-fast.txt"
      RSQ_BACKEND="$backend" RSQ_ROUTE=general ./target/release/rsq \
        --positions "$query" "$doc" > "$SERVE_TMP/parity-general.txt"
      if ! cmp -s "$SERVE_TMP/parity-fast.txt" "$SERVE_TMP/parity-general.txt"; then
        echo "parity gate: $id ($query, $mb MB) diverges under backend '${backend:-auto}':"
        diff "$SERVE_TMP/parity-fast.txt" "$SERVE_TMP/parity-general.txt" | head
        exit 1
      fi
    done
  done < "$SERVE_TMP/corpus-$mb/catalog.tsv"
done
if [ "$FAST_ROUTED" -lt 8 ]; then
  echo "parity gate: only $FAST_ROUTED catalog queries routed fast (expected >= 8)"
  exit 1
fi
if [ "$PROBE_KEPT" -lt 1 ] || [ "$PROBE_DECLINED" -lt 1 ]; then
  echo "parity gate: on long inputs the probe kept the walker for $PROBE_KEPT and" \
    "declined it for $PROBE_DECLINED routable queries (expected >= 1 each)"
  exit 1
fi
echo "parity gate: $QUERIES runs x ${#PARITY_BACKENDS[@]} backends" \
  "(auto ${PARITY_BACKENDS[*]:1}) agree; $FAST_ROUTED routed fast, of which" \
  "the probe kept $PROBE_KEPT and declined $PROBE_DECLINED on long inputs"
}
run "fast-path parity gate (routed walker vs RSQ_ROUTE=general, full catalog)" lane_fast_path

lane_paper() {
# Regenerates Tables 2 and 4–7, Appendix D and the ablations at 4 MB per
# dataset and holds them to the shapes of EXPERIMENTS.md's summary
# (`rsq_bench::SHAPES`, each bound written beside it); exits non-zero when
# a gated shape fails. About 6 s on a 2-vCPU VM; keep it under 60 s.
RSQ_DATASET_MB=4 cargo run --quiet --release -p rsq-bench --bin experiments -- check
}
run "paper reproduction gate (experiments check)" lane_paper

lane_seek() {
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
}
run "seek linearity gate (label-free siblings, both routes, 5 s each)" lane_seek

lane_mmap() {
# Multi-MiB documents through --batch-dir under both ingest policies:
# mapped and buffered reads must produce byte-identical output. The
# corpus files are above the 1 MiB threshold, so `auto` maps too.
MMAP_DIR="$SERVE_TMP/mmap-batch"
mkdir -p "$MMAP_DIR"
cp "$SERVE_TMP/corpus-2/B.json" "$SERVE_TMP/corpus-2/G.json" \
  "$SERVE_TMP/corpus-2/Wa.json" "$MMAP_DIR/"
./target/release/rsq --count '$..id' --batch-dir "$MMAP_DIR" --mmap on \
  > "$SERVE_TMP/mmap-on.out"
./target/release/rsq --count '$..id' --batch-dir "$MMAP_DIR" --mmap off \
  > "$SERVE_TMP/mmap-off.out"
./target/release/rsq --count '$..id' --batch-dir "$MMAP_DIR" \
  > "$SERVE_TMP/mmap-auto.out"
diff -u "$SERVE_TMP/mmap-on.out" "$SERVE_TMP/mmap-off.out"
diff -u "$SERVE_TMP/mmap-auto.out" "$SERVE_TMP/mmap-off.out"
}
run "mmap smoke gate (--mmap on vs off over a multi-MB batch dir)" lane_mmap

lane_input_parity() {
# Every single-document golden case, through each way a document can reach
# the engine — the file as named (copied: the fixtures are far below the
# 1 MiB mapping threshold), redirected, through a pipe, with mapping off,
# mapped by force, and redirected with mapping forced (a streamed run walks
# it through mapped windows) — must give the same stdout and the same exit
# status (the table's), with no exception: --max-depth bounds the nesting
# the run traverses on every path (DESIGN.md §7).
PARITY_RSQ="$PWD/target/release/rsq"
PARITY_CASES=0
set -f # the arguments are split on spaces, not globbed (queries hold `*`)
while IFS=$'\t' read -r name exit stdin args; do
  case "$name" in doc-*) ;; *) continue ;; esac
  args="${args//@METRICS/$SERVE_TMP/parity.metrics}"
  if [ "$stdin" = "-" ]; then
    file="${args##* }" flags="${args% *}"
  else
    file="$stdin" flags="$args"
  fi
  for path in file redirect pipe mmap-off mmap-on mmap-on-redirect; do
    status=0
    (
      cd crates/cli/tests/golden
      case "$path" in
        file) "$PARITY_RSQ" $flags "$file" ;;
        redirect) "$PARITY_RSQ" $flags < "$file" ;;
        pipe) cat "$file" | "$PARITY_RSQ" $flags ;;
        mmap-off) "$PARITY_RSQ" --mmap off $flags "$file" ;;
        mmap-on) "$PARITY_RSQ" --mmap on $flags "$file" ;;
        mmap-on-redirect) "$PARITY_RSQ" --mmap on $flags < "$file" ;;
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
echo "parity gate: $PARITY_CASES cases x 6 input paths agree"
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
        file) "$PARITY_RSQ" $args ;;
        mmap-on) "$PARITY_RSQ" --mmap on $args ;;
        mmap-off) "$PARITY_RSQ" --mmap off $args ;;
        redirect)
          "$PARITY_RSQ" ${args/--batch-ndjson docs.ndjson/--batch-ndjson -} \
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
}
run "input-path parity gate (FILE, < FILE, cat FILE |, --mmap off|on FILE, --mmap on < FILE; --batch-ndjson FILE|-)" lane_input_parity

lane_values_parity() {
# Values mode cuts a short value at record time from one 64-byte load and
# spans the rest after the run (DESIGN.md §15.5). A document of 8 MiB and
# more whose `v` values are known by construction — strings of 0-200
# bytes, with and without escapes, and numbers, shifted so their ends
# fall on every byte of a 64-byte block — must print exactly those values
# through each way in. `$` over the same file prints the document; it is
# held as its start and spanned when written, never copied, so the
# child's peak RSS stays under the file's size plus 16 MiB.
python3 - "$PWD/target/release/rsq" "$SERVE_TMP/values.json" <<'PYEOF'
import hashlib, os, subprocess, sys
rsq, path = sys.argv[1], sys.argv[2]
# The document is written and the values hashed as they are made, so
# that this process stays small: a child's peak RSS, as wait4 reports
# it, is never below its parent's at the spawn.
expected, size, count = hashlib.sha256(), 0, 0
with open(path, "wb") as f:
    f.write(b"[")
    while size < 8 << 20:
        n = count % 201
        if count % 4 == 0:
            v = '"' + "s" * n + '"'
        elif count % 4 == 1:
            v = '"' + "e" * (n // 2) + '\\"' + "e" * (n - n // 2) + '"'
        elif count % 4 == 2:
            v = '"' + "b" * n + '\\\\"'
        else:
            v = "1" + "0" * n + (".5e3" if n % 3 else "")
        record = ("," if count else "") + '{"p": "%s", "v": %s}' % ("x" * (count % 64), v)
        f.write(record.encode())
        expected.update((v + "\n").encode())
        size += len(record)
        count += 1
    f.write(b"]")
size += 2

def run(way, command, stdin=None):
    child = subprocess.Popen(command, stdin=stdin, stdout=subprocess.PIPE)
    out = hashlib.sha256()
    while chunk := child.stdout.read(1 << 16):
        out.update(chunk)
    _, status, usage = os.wait4(child.pid, 0)
    assert status == 0, (way, status)
    return out.digest(), usage.ru_maxrss / 1024

try:
    digest, peak_mib = run("$", [rsq, "$", path])
    whole = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            whole.update(chunk)
    whole.update(b"\n")
    assert digest == whole.digest(), "values parity gate: $ does not print the document"
    limit = size / (1 << 20) + 16
    print(f"values parity gate: $ peak RSS {peak_mib:.1f} MiB (limit {limit:.1f})")
    assert peak_mib < limit, f"$: peak RSS {peak_mib:.1f} MiB (limit {limit:.1f})"
    for way, command, stdin in [
        ("FILE", [rsq, "$..v", path], None),
        ("< FILE", [rsq, "$..v"], open(path, "rb")),
        ("cat FILE |", ["sh", "-c", 'cat "$1" | "$0" \'$..v\'', rsq, path], None),
        ("--mmap off FILE", [rsq, "--mmap", "off", "$..v", path], None),
    ]:
        digest, _ = run(way, command, stdin)
        assert digest == expected.digest(), f"values parity gate: $..v as {way} differs from the values written"
    print(f"values parity gate: {count} values of a {size >> 20} MiB document agree on 4 paths")
finally:
    os.remove(path)
PYEOF
}
run "values parity gate (an 8 MiB document of known values: FILE, < FILE, cat FILE |, --mmap off FILE; \$ in bounded memory)" lane_values_parity

lane_streaming() {
# A document made up as it is written — 2 097 152 records of 128 bytes,
# 256 MiB, never held anywhere whole — is piped into `rsq --count`: the
# count must be exact and the child's peak RSS under 32 MiB, where a
# whole-document read would need 256 MiB (DESIGN.md §7). The same document
# is then written to a temporary file and redirected into it: walked
# through windows mapped one at a time, and read with `--mmap off`, each
# child must count exactly under the same bound, which one mapping of the
# whole file would pass by 224 MiB. The streamed run's window edges are
# then checked against the slice run under the forced backends (the
# detected one ran in tier-1).
python3 - "$PWD/target/release/rsq" "$SERVE_TMP/stream.json" <<'PYEOF'
import os, subprocess, sys
records = 2 * 1024 * 1024
record = b'{"a": {"b": 0}, "pad": "' + b"x" * 102 + b'"}'
assert len(record) == 128
chunk = (b"," + record) * 8192

def write(sink):
    sink.write(b"[" + record)
    for _ in range((records - 1) // 8192):
        sink.write(chunk)
    sink.write((b"," + record) * ((records - 1) % 8192) + b"]")

def check(way, args, stdin, feed=None):
    child = subprocess.Popen([sys.argv[1], *args, "--count", "$..b"], stdin=stdin,
                             stdout=subprocess.PIPE)
    if feed:
        feed(child.stdin)
        child.stdin.close()
    out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    assert status == 0, (way, status)
    assert out == b"%d\n" % records, (way, out)
    peak_mib = usage.ru_maxrss / 1024
    print(f"stdin streaming gate: {records} matches in 256 MiB {way}, peak RSS {peak_mib:.1f} MiB")
    assert peak_mib < 32, f"{way}: peak RSS {peak_mib:.1f} MiB (limit 32)"

check("through a pipe", [], subprocess.PIPE, write)
path = sys.argv[2]
try:
    with open(path, "wb") as f:
        write(f)
    for way, args in [("from a file, mapped", []), ("from a file, read", ["--mmap", "off"])]:
        with open(path, "rb") as f:
            check(way, args, f)
finally:
    os.remove(path)
PYEOF
RSQ_BACKEND=swar filtered_tests -p rsq-difftest -q --test corpus window_edges
}
run "stdin streaming gate (256 MB through a pipe and from a file in bounded memory; window-edge differential)" lane_streaming

lane_window_edges_avx2() {
RSQ_BACKEND=avx2 filtered_tests -p rsq-difftest -q --test corpus window_edges
}
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  run "window-edge differential under RSQ_BACKEND=avx2" lane_window_edges_avx2
else
  skip "window-edge differential under RSQ_BACKEND=avx2" "no AVX2 on this host"
fi

lane_meter() {
# The stepping meter (DESIGN.md §16) counts every user-mode instruction
# of a child; the counts repeat to a few in a million. B1's general-route
# child is stepped over a 32 KiB document, plain and with an extra pass
# over its first 2 %, and the floor (the child over `{}`) is subtracted:
# the seeded run must read at least 1.01x the plain one. About 25 s on a
# 2-vCPU VM; keep it under 30 s.
RSQ_METER_KB=32 cargo run --quiet --release -p rsq-bench --bin experiments -- \
  instructions --seeded B1
}
if [ "$(uname -sm)" = "Linux x86_64" ]; then
  run "instruction meter (B1 at 32 KiB, plain and with a seeded +2 % pass)" lane_meter
else
  skip "instruction meter" "single-stepping needs x86_64 Linux"
fi

lane_telemetry() {
# Part 1: a socket server with the scrape endpoint armed. A client
# streams fragmented NDJSON while curl scrapes /metrics through the
# second socket: the exposition must carry rolling-window series with
# their headers and show nonzero worker/document gauges; /healthz must answer ok; POST /shutdown must
# drain the server to a clean exit.
TELEMETRY_PIDS=""
trap 'kill $TELEMETRY_PIDS 2>/dev/null || true' EXIT
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

# Part 2: a zero-deadline single-worker server with the scrape endpoint
# armed times out both submitted documents deterministically and exits
# with the deadline failure class.
./target/release/rsq --serve-socket "$SERVE_TMP/serve-deadline.sock" \
  --telemetry-socket "$SERVE_TMP/tele-deadline.sock" --threads 1 \
  --deadline-ms 0 --count '$..b' &
DEADLINE_SERVER_PID=$!
TELEMETRY_PIDS="$TELEMETRY_PIDS $DEADLINE_SERVER_PID"
for _ in $(seq 1 100); do
  [ -S "$SERVE_TMP/serve-deadline.sock" ] && [ -S "$SERVE_TMP/tele-deadline.sock" ] && break
  sleep 0.05
done
python3 - "$SERVE_TMP/serve-deadline.sock" <<'PYEOF'
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
curl -sf --unix-socket "$SERVE_TMP/tele-deadline.sock" -X POST http://localhost/shutdown \
  > /dev/null
DEADLINE_STATUS=0
wait "$DEADLINE_SERVER_PID" || DEADLINE_STATUS=$?
[ "$DEADLINE_STATUS" -eq 7 ] # deadline failure class on exit
}
run "serve live-telemetry smoke gate (scrape under load + zero deadline)" lane_telemetry

lane_chaos() {
# 200 seeded fragmentation/stall/truncation/disconnect plans, each
# checked for output parity with the batch oracle.
cargo test -p rsq-serve --release --features slow-tests -q
}
run "serve robustness chaos sweep (slow-tests)" lane_chaos

lane_profile_overhead() {
# Tier C profiling is always-compiled (no cargo feature): the Recorder
# hooks default to empty #[inline] bodies, so NoStats/RunStats runs must
# stay byte-identical in matches and Tier A counters to a profiled run,
# and the stats-overhead ablation must stay throughput-neutral. The
# release-mode guard asserts the consistency half; the skip-span property
# test pins the byte-span accounting across backends (no consumed event
# inside an elided [from, to) span) and holds a profiled run to one clock
# read per stage, however many skips it takes.
cargo test -p rsq --release --features slow-tests --test obs_overhead -q
# The wall-clock half: the best of 31 alternating runs of `--count
# --profile` within 1.1x of the best of 31 of `--count` on a 29 MB
# document, in one of up to three attempts (ROADMAP 8(d)).
cargo test -p rsq-cli --release --features slow-tests --test profile_overhead -q
cargo test -p rsq-engine --release --test skip_spans -q
RSQ_BACKEND=swar cargo test -p rsq-engine --release --test skip_spans -q
}
run "profile-overhead gate (Tier C compiles out of unprofiled runs)" lane_profile_overhead

lane_profiling() {
filtered_tests -p rsq-batch --release -q profile
filtered_tests -p rsq-cli -q profile
filtered_tests -p rsq-cli -q metrics
}
run "profiling lanes (batch profile merge, CLI --profile surface)" lane_profiling

lane_fuzz() {
# Every difftest target (fuzz/README.md) over 10 000 seeded random inputs
# each, alternating raw bytes and structured JSON; the checked-in corpus
# runs in tier-1 (`tests/corpus.rs`).
cargo test -p rsq-difftest --release --features slow-tests --test random -q
}
run "differential fuzz sweep (70 000 seeded random cases across all targets)" lane_fuzz

# Optional lanes: both need components the offline stable image may not
# ship. Each is gated on a probe so the gate stays green everywhere but
# runs the deeper check wherever the toolchain allows it.
lane_miri() {
# Miri interprets Rust, not vendor intrinsics: Simd::detect falls back
# to the portable SWAR backend under cfg(miri) (DESIGN.md §9).
cargo +nightly miri test -p rsq-stackvec -p rsq-simd -q
cargo +nightly miri test -p rsq-difftest -q
}
if cargo +nightly miri --version >/dev/null 2>&1; then
  run "Miri lane (kernel + stackvec crates, SWAR fallback)" lane_miri
else
  skip "Miri lane" "nightly miri not installed"
fi

lane_asan() {
# --tests only: doctest binaries don't link the ASan runtime.
RUSTFLAGS="-Zsanitizer=address" cargo +nightly test \
  -p rsq-stackvec -p rsq-simd -q --tests --target x86_64-unknown-linux-gnu
}
if [ "$(uname -sm)" = "Linux x86_64" ] && rustc +nightly --version >/dev/null 2>&1; then
  run "AddressSanitizer lane (kernel + stackvec crates)" lane_asan
else
  skip "AddressSanitizer lane" "needs nightly on x86_64 Linux"
fi

lane_tsan() {
# TSan needs std rebuilt with instrumentation (-Zbuild-std, hence the
# rust-src probe) or it reports false races inside precompiled std.
# `rsq_batch::sync` asserts in debug builds that no lock nests and none
# is held across a write; this lane looks for data races in the threaded
# crates' suites (DESIGN.md §14.3 says why both).
RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -Zbuild-std \
  -p rsq-batch -p rsq-serve -q --tests --target x86_64-unknown-linux-gnu
}
if [ "$(uname -sm)" = "Linux x86_64" ] && rustc +nightly --version >/dev/null 2>&1 \
  && rustup component list --toolchain nightly 2>/dev/null | grep -q '^rust-src.*(installed)'; then
  run "ThreadSanitizer lane (batch determinism + serve robustness)" lane_tsan
else
  skip "ThreadSanitizer lane" "needs nightly + rust-src on x86_64 Linux"
fi

lane_test_layout() {
# scripts/loc.sh stops counting a file at the `#[cfg(test)]` that opens
# an inline `mod NAME {`; a test item above non-test code would drop that
# code from the size series.
awk '
  FNR == 1 { state = 0 }
  state == 3 && NF { print FILENAME ":" FNR ": non-test code after the test module"; bad = 1; nextfile }
  state == 2 && /^}/ { state = 3; next }
  state == 2 { next }
  state == 1 && /^mod [A-Za-z0-9_]+ \{/ { state = 2; next }
  state == 1 { print FILENAME ":" FNR - 1 ": a #[cfg(test)] item before non-test code"; bad = 1; nextfile }
  /^#\[cfg\(test\)\]/ { state = 1 }
  END { exit bad }' $(find crates/*/src crates/shims/*/src src -name '*.rs')
}
run "test code sits in one inline module at the end of its file" lane_test_layout

lane_size() {
# Three rows are gates. Three instantiations of the pipeline must not grow
# the binary without bound (1.05 MB before per-run dispatch), and on
# x86-64 a binary without a single `popcnt` means the pipeline is no
# longer being inlined into the backends' entries — every `count_ones`
# has silently gone back to shifts and masks (DESIGN.md §9). The
# non-test line count is a ratchet (ROADMAP item 4): MAX_LINES is what
# the last simplicity PR landed at, each one lowers it, and a PR that
# has to raise it says in its description what the lines bought. The
# last raise (27 875 -> 28 025) bought values cut at record time; the
# lenient validator's deletion then lowered it to 27 992, the
# hardware-counter layer's deletion (its crate replaced by the stepping
# meter) to 27 386, and the static analyzer's (its contracts now types
# and tests) to 25142.
MAX_LINES=25142
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
}
run "size series (non-test lines, dispatch entries, text bytes, popcnt)" lane_size

echo "==> lane summary"
printf '  %s\n' "${SUMMARY[@]}"
if [ "$FAILED" -ne 0 ]; then
  echo "CI FAILED"
  exit 1
fi
echo "CI OK"
