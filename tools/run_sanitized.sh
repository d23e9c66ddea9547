#!/usr/bin/env bash
# Configure, build and run the full test suite under a sanitizer.
#
# Usage: [IPSA_SANITIZE=mode] tools/run_sanitized.sh \
#            [--fuzz-seconds=N] [--fuzz-only] [ctest args...]
#
#   IPSA_SANITIZE     address (default): ASan + UBSan in build-asan/.
#                     thread: TSan in build-tsan/ — the gate for the RCU
#                     entry-publication paths and the parallel drains; ctest
#                     -R matches test names, e.g.
#                     `-R 'FastPathDeterminism\.|ChurnTest\.|RcuDomainTest\.'`.
#   --fuzz-seconds=N  after the suite, run a bounded rp4fuzz round (N seconds
#                     of cases) with the sanitized binary; repro files land
#                     in fuzz-artifacts/.
#   --fuzz-only       skip ctest (and only build rp4fuzz); use together with
#                     --fuzz-seconds for the CI fuzz job's sanitized round.
#
# Uses separate build trees so the regular build stays fast.
set -euo pipefail

cd "$(dirname "$0")/.."

mode="${IPSA_SANITIZE:-address}"
case "$mode" in
  address|ON|on) mode=address ;;
  thread) ;;
  *) echo "unknown IPSA_SANITIZE mode: $mode (want address or thread)" >&2
     exit 2 ;;
esac
build_dir="build-asan"
if [ "$mode" = thread ]; then
  build_dir="build-tsan"
fi

fuzz_seconds=0
fuzz_only=0
args=()
for a in "$@"; do
  case "$a" in
    --fuzz-seconds=*) fuzz_seconds="${a#*=}" ;;
    --fuzz-only) fuzz_only=1 ;;
    *) args+=("$a") ;;
  esac
done

cmake -B "$build_dir" -DIPSA_SANITIZE="$mode" -DCMAKE_BUILD_TYPE=RelWithDebInfo
if [ "$fuzz_only" -eq 1 ]; then
  cmake --build "$build_dir" -j"$(nproc)" --target rp4fuzz
else
  cmake --build "$build_dir" -j"$(nproc)"
fi

if [ "$mode" = thread ]; then
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
else
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
fi

if [ "$fuzz_only" -eq 0 ]; then
  ctest --test-dir "$build_dir" --output-on-failure ${args[@]+"${args[@]}"}
fi

if [ "$fuzz_seconds" -gt 0 ]; then
  mkdir -p fuzz-artifacts
  ./"$build_dir"/tools/rp4fuzz --seconds="$fuzz_seconds" --seed-from-env \
      --out-dir=fuzz-artifacts
fi
