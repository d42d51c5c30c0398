#!/usr/bin/env bash
# The size series ROADMAP item 4 is judged by: non-test source lines per
# crate and in total (everything above a file's first `#[cfg(test)]`),
# how many copies of the engine's main loop the release binary carries,
# and the binary's text size. Needs `cargo build --release -p rsq-cli`.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  awk 'FNR==1{skip=0} /^#\[cfg\(test\)\]/{skip=1} !skip{n++} END{print n+0}' \
    $(find "$@" -name '*.rs')
}

for dir in crates/*/src crates/shims/*/src src; do
  printf '%-28s %6d\n' "$dir" "$(count "$dir")"
done
printf '%-28s %6d\n' "total non-test lines" "$(count crates/*/src crates/shims/*/src src)"

bin="${CARGO_TARGET_DIR:-target}/release/rsq"
printf '%-28s %6d\n' "run_element instantiations" \
  "$(nm -C "$bin" | grep -c 'main_loop::run_element')"
printf '%-28s %6d\n' "text bytes" "$(size "$bin" | awk 'NR==2{print $1}')"
