#!/usr/bin/env bash
# Builds perfbench and the mbrimd daemon from the checkout's source,
# then runs perfbench with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload mbrim-k256 --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

if [[ ! -f perfbench/go.mod ]]; then
	echo "perfbench/run.sh: run from the repository root" >&2
	exit 2
fi
build=.bench_build
mkdir -p "$build"
abs=$(cd "$build" && pwd)
export GOCACHE="$abs/gocache" GOPATH="$abs/gopath" XDG_CONFIG_HOME="$abs/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
(
	cd perfbench
	go build -o "$abs/perfbench" .
	go build -o "$abs/mbrimd" mbrim/cmd/mbrimd
)
exec "$build/perfbench" --build-dir "$build" --golden perfbench/golden.json "$@"
