#!/bin/sh
# Runs a command under the hostprof sampler and leaves one <pid>.prof per
# process of the command in OUTDIR, for scripts/hostprof_report.py.
#
#   scripts/hostprof.sh OUTDIR COMMAND [ARGS...]
#
# Example: the timed window of kv-failover, over 10 s of rounds
#   python3 perfbench/run.py --workload kv-failover --seed 1 --seconds 1
#   scripts/hostprof.sh build/prof python3 perfbench/run.py \
#       --workload kv-failover --seed 1 --seconds 10
#   python3 scripts/hostprof_report.py build/prof --exe perfbench \
#       --under run_until
#
# Build the profiled program first: every process the command starts is
# sampled, compilers included. Release builds need no -g (the symbol table
# is enough); an inlined callee is charged to the function it was inlined
# into.
set -eu
[ $# -ge 2 ] || { sed -n '2,17p' "$0"; exit 2; }
out=$(mkdir -p "$1" && cd "$1" && pwd)
shift
gcc -O2 -shared -fPIC -o "$out/hostprof.so" "$(dirname "$0")/hostprof.c"
HOSTPROF_DIR="$out" LD_PRELOAD="$out/hostprof.so" "$@"
