#!/usr/bin/env bash
# Builds slumreport, slumserve and the slumbench program from the checkout
# this is run in, then runs slumbench with the given arguments:
#
#   bash slumbench/run.sh --workload crawl-study --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# every scratch file stay under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off GOENV=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/slumreport ./cmd/slumserve
(cd slumbench && go build -o "$out/bin/slumbench" .)
exec "$out/bin/slumbench" -bin "$out/bin" "$@"
