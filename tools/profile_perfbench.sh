#!/usr/bin/env bash
# Profile one perfbench workload with gprof, libc time included.
#
# Usage: tools/profile_perfbench.sh <workload> [seed] [seconds]
# Defaults: seed 1, 5 seconds of host time (perfbench's --seconds).
#
# Builds the perfbench CMake project (which compiles the src/ libraries) into
# .bench_build/profile with -pg and links it -static, runs one untraced
# workload there, and prints gprof's flat profile. A dynamically linked -pg
# build samples only the executable's own text, so time spent in libc
# (memmove, memset, malloc, free) never shows up. Linked statically, libc is
# part of the sampled image: its functions appear with self time but without
# call counts, since libc itself is not compiled with -pg. The benchmark's
# JSON line and gmon.out stay in .bench_build/profile; nothing is written
# under perfbench/.
set -euo pipefail

usage="usage: tools/profile_perfbench.sh <workload> [seed] [seconds]"
workload="${1:?${usage}}"
seed="${2:-1}"
seconds="${3:-5}"

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/.bench_build/profile"

if [ ! -f "${build_dir}/CMakeCache.txt" ]; then
  cmake -S "${repo_root}/perfbench" -B "${build_dir}" \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-pg \
    -DCMAKE_EXE_LINKER_FLAGS="-pg -static" >&2
fi
cmake --build "${build_dir}" -j 4 >&2

# gmon.out is written to the working directory when the program exits.
cd "${build_dir}"
rm -f gmon.out
./dk_perfbench --workload "${workload}" --seed "${seed}" \
  --seconds "${seconds}" --trace 0 > "${workload}-seed${seed}.json"
gprof --brief --flat-profile ./dk_perfbench gmon.out
