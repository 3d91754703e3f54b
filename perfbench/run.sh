#!/usr/bin/env bash
# Builds cmd/ussd and the benchmark command from this checkout, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload dashboard-mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache included).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ussd || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the root of a repository checkout (cmd/ussd and go.mod not found)" >&2
  exit 2
fi

out=.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/bin/ussd" ./cmd/ussd
go -C perfbench build -o "../$out/bin/perfbench" .
exec "$out/bin/perfbench" -ussd "$out/bin/ussd" -work "$out/run" "$@"
