#!/usr/bin/env bash
# Builds pathalgebrad and the pathbench program from the sources of the
# checkout it is run from, then runs one benchmark pass:
#
#   bash pathbench/run.sh --workload cold-paths --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, temporary data
# directory and trace file goes under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/pathalgebrad" || ! -f "$root/pathbench/go.mod" ]]; then
	echo "pathbench: run from the root of a pathalgebra checkout (cmd/pathalgebrad and pathbench/ must exist)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"

# Keep the Go build cache and tool state inside the checkout and never
# let the go command fetch a toolchain or module.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go build -o "$out/pathalgebrad" ./cmd/pathalgebrad
(cd "$root/pathbench" && go build -o "$out/pathbench" .)
exec "$out/pathbench" -daemon "$out/pathalgebrad" -out "$out" "$@"
