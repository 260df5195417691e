#!/usr/bin/env bash
# Builds the load benchmark and the promipsd server of this checkout from
# source, then runs one workload. Run from the repository root:
#
#   bash loadbench/run.sh --workload heldout-fit --seed 1 --seconds 20 --trace 0
#
# Every build product, cache, index and trace stays under .bench_build/ in
# the current directory; nothing is fetched over the network. The load
# generator runs at niceness -10 (where permitted) and starts promipsd ten
# steps lower, so on a two-core machine the generator keeps its schedule.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0

go -C "$root/loadbench" build -o "$out/loadbench" .
go build -o "$out/promipsd" ./cmd/promipsd
exec nice -n -10 "$out/loadbench" -promipsd "$out/promipsd" -work "$out" "$@"
