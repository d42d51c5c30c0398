#!/usr/bin/env bash
# The size series ROADMAP item 4 is judged by: non-test source lines per
# crate and in total (everything above a file's first `#[cfg(test)]`
# that opens an inline `mod NAME {`, which ci.sh holds to the file's end),
# and what the release binary carries: how many functions were compiled
# inside each backend's dispatch entry (`rsq_simd::<backend>::enter`: one
# per pass, sink/recorder pair and outlined routine), its text size, its
# `popcnt` instructions (0 would mean no `count_ones` reached an entry),
# and the calls that still reach a vector kernel out of line (the per-call
# `Simd` paths, plus whatever the inliner declined inside an entry).
# Needs `cargo build --release -p rsq-cli`; ci.sh gates on two of the rows.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  awk '
    FNR == 1 { skip = 0; held = 0 }
    skip { next }
    held && /^mod [A-Za-z0-9_]+ \{/ { skip = 1; held = 0; next }
    held { n++; held = 0 }
    /^#\[cfg\(test\)\]/ { held = 1; next }
    { n++ }
    END { print n + held }' $(find "$@" -name '*.rs')
}

for dir in crates/*/src crates/shims/*/src src; do
  printf '%-28s %6d\n' "$dir" "$(count "$dir")"
done
printf '%-28s %6d\n' "total non-test lines" "$(count crates/*/src crates/shims/*/src src)"

bin="${CARGO_TARGET_DIR:-target}/release/rsq"
symbols="$(nm -C "$bin")"
for backend in avx512 avx2 swar; do
  printf '%-28s %6d\n' "entries compiled for $backend" \
    "$(grep -c "rsq_simd::$backend::enter" <<<"$symbols" || true)"
done
printf '%-28s %6d\n' "text bytes" "$(size "$bin" | awk 'NR==2{print $1}')"
asm="$(objdump -d -C --no-show-raw-insn "$bin")"
printf '%-28s %6d\n' "popcnt instructions" "$(grep -cw popcnt <<<"$asm" || true)"
printf '%-28s %6d\n' "out-of-line kernel calls" \
  "$(grep -E 'call .*<rsq_simd::(avx512|avx2)::' <<<"$asm" | grep -vc '::enter>' || true)"
