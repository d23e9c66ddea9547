#!/usr/bin/env bash
# Lists the functions that src/ defines but no executable links.
#
# Usage: tools/unlinked_functions.sh <build dir>
#
# Builds the whole tree and perfbench (perfbench/CMakeLists.txt) under
# <build dir> as Debug at -O0 with one section per function, links every
# executable with --gc-sections, and compares the global text symbols of
# the src/ libraries against the symbols each executable keeps. -O0 matters:
# an optimized build inlines functions into their callers, so a function that
# is called would look unlinked.
#
# Prints two lists (demangled):
#   1. src/ functions that no executable links;
#   2. src/ functions that only test executables (tests/, perfbench_selftest)
#      link.
# Exits 1 when the first list is not empty.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build dir>" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
jobs=$(nproc)

configure_and_build() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
  cmake --build "$2" -j"$jobs" > /dev/null
}
configure_and_build "$root" "$out/repo"
configure_and_build "$root/perfbench" "$out/perfbench"

text_symbols() {  # global functions (nm type T) defined by the given files
  nm -g --defined-only "$@" 2> /dev/null | awk '$2 == "T" { print $3 }' |
    sort -u
}
is_elf() { [[ "$(head -c 4 "$1" | od -An -c | tr -d ' ')" == '177ELF' ]]; }

defined=$(mktemp)
tests_link=$(mktemp)
others_link=$(mktemp)
trap 'rm -f "$defined" "$tests_link" "$others_link"' EXIT

text_symbols $(find "$out/repo/src" -name 'libipsa_*.a') > "$defined"

tests=()
others=()
while IFS= read -r exe; do
  is_elf "$exe" || continue
  case "$exe" in
    "$out/repo/tests/"* | */perfbench_selftest) tests+=("$exe") ;;
    *) others+=("$exe") ;;
  esac
done < <(find "$out/repo/bench" "$out/repo/examples" "$out/repo/tests" \
              "$out/repo/tools" "$out/perfbench" \
              -path '*/CMakeFiles' -prune -o -type f -perm -u+x -print)

text_symbols "${tests[@]}" > "$tests_link"
text_symbols "${others[@]}" > "$others_link"

unlinked=$(comm -23 "$defined" <(sort -u "$tests_link" "$others_link"))
tests_only=$(comm -23 <(comm -12 "$defined" "$tests_link") "$others_link")

report() {  # <title> <mangled names, one a line>
  echo
  if [[ -z "$2" ]]; then
    echo "== $1: 0"
  else
    echo "== $1: $(wc -l <<< "$2")"
    c++filt <<< "$2" | sort
  fi
}
echo "$(wc -l < "$defined") src/ functions; ${#others[@]} executables and" \
     "${#tests[@]} test executables"
report "src/ functions that no executable links" "$unlinked"
report "src/ functions that only tests link" "$tests_only"
[[ -z "$unlinked" ]]
