#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload of it.
#
#   bash perfbench/run.sh --workload <relay-saturate|paced-delay|farm-fanout> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build cache, the binary and the
# generated inputs all live under $CARGO_TARGET_DIR (default .bench_build)
# in the current directory; nothing is fetched from the network. The last
# line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

# Keep the go command's cache, module path, config and telemetry inside
# the build directory.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --work "$out" "$@"
