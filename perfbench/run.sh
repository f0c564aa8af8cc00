#!/usr/bin/env bash
# Builds the benchmark and the query server from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload tiger-topk --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build), including
# the Go build cache. The last line of standard output is the JSON
# result; the human-readable report goes to standard error.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/run" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cd "$root/perfbench"
go build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/distjoin-server" distjoin/cmd/distjoin-server >&2
exec "$out/bin/perfbench" -bin-dir "$out/bin" -work-dir "$out/run" "$@"
