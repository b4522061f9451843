#!/usr/bin/env bash
# Machine-code identity of the jit's kernels between two checkouts, e.g.
# a parent commit and a change that only touches how kernels are compiled
# (prelude, flags, link line).  For the benchmark's seed-1 fuse-cold
# chains plus its ten kernels-hot chains, each side compiles the winner
# the default engine picks (tools/jit_identity_dump.cpp) and the script
# checks, chain by chain:
#
#   * the run_native outputs are bit-identical;
#   * `objdump -d --no-show-raw-insn` of the two tu_*.so objects is
#     identical once addresses and the key-derived kernel symbol are
#     normalised away;
#   * the objects' NEEDED lists are identical.
#
# It also prints, per side, the number of vfmadd instructions on xmm, ymm
# and zmm registers summed over the winners, so a change that is meant to
# alter the machine code (a wider micro-kernel) shows how.
#
# usage: tools/check_jit_identity.sh PARENT_DIR CHANGE_DIR [N_COLD]
#
# Each DIR is a checkout whose library is built in DIR/build
# (`cmake -B build -S . && cmake --build build --target mcfuser`).
# N_COLD (default 32) is the number of fuse-cold chains.  Exits 0 when
# every chain matches on all three counts.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,24p' "$0" >&2
  exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
n_cold=${3:-32}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

declare -A root=([parent]=$1 [change]=$2)
for side in parent change; do
  dir=${root[$side]}
  "${CXX:-c++}" -std=c++20 -O2 -I"$dir/src" -I"$dir/bench/e2e" \
    "$here/jit_identity_dump.cpp" "$dir/build/libmcfuser.a" -lpthread -ldl \
    -o "$work/$side"
  "$work/$side" "$work/$side.jit" "$n_cold" > "$work/$side.out"
done

# Addresses move when anything ahead of a function changes size, and the
# kernel symbol hashes the compile line; neither is machine code.
normalise() {
  objdump -d --no-show-raw-insn "$1" | tail -n +3 |
    sed -E -e 's/mcf_k[0-9a-f]+/KERNEL/g' \
           -e 's/^ *[0-9a-f]+:/:/' \
           -e 's/^[0-9a-f]{16} </</' \
           -e 's/[0-9a-f]+ </</g' \
           -e 's/-?0x[0-9a-f]+\(%rip\)/DISP(%rip)/g'
}
needed() {
  readelf -d "$1" | sed -nE 's/.*\(NEEDED\).*\[(.*)\]/\1/p' | tr '\n' ' '
}
fma_widths() {
  local fmas
  fmas=$(for so in "$work/$1.jit"/*/tu_*.so; do
           objdump -d --no-show-raw-insn "$so"
         done | grep vfmadd || true)
  echo "$1 vfmadd: xmm $(grep -c xmm <<< "$fmas") ymm $(grep -c ymm <<< "$fmas")" \
       "zmm $(grep -c zmm <<< "$fmas")"
}

status=0
if ! diff "$work/parent.out" "$work/change.out"; then
  echo "run_native outputs differ" >&2
  status=1
fi
kernels=0
while read -r index name _; do
  so_p=$(ls "$work/parent.jit/$index"/tu_*.so)
  so_c=$(ls "$work/change.jit/$index"/tu_*.so)
  if ! diff -q <(normalise "$so_p") <(normalise "$so_c") > /dev/null; then
    echo "$index $name: machine code differs" >&2
    status=1
  fi
  if [[ "$(needed "$so_p")" != "$(needed "$so_c")" ]]; then
    echo "$index $name: NEEDED $(needed "$so_p")-> $(needed "$so_c")" >&2
    status=1
  fi
  kernels=$((kernels + 1))
done < "$work/parent.out"

echo "$kernels kernels: NEEDED $(needed "$(ls "$work"/change.jit/000/tu_*.so)")"
fma_widths parent
fma_widths change
if [[ $status -eq 0 ]]; then
  echo "outputs bit-identical, machine code identical, NEEDED identical"
fi
exit $status
