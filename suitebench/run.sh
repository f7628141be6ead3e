#!/usr/bin/env bash
# Builds the suite benchmark from source and runs it. Run it from the
# repository root; every argument is passed on to the benchmark:
#
#   bash suitebench/run.sh --workload scale-kset --seed 0 --seconds 20 --trace 0
#
# The Go build cache, module cache, telemetry and the binary all live
# under .bench_build/suitebench, so a run writes only inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/suitebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/suitebench" && go build -o "$out/suitebench" .) >&2
exec "$out/suitebench" "$@"
