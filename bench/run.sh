#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root. Everything the build and the run
# write (Go build cache, temporary files, the binary, traces) stays under
# .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	GOSUMDB=off GOTELEMETRY=off
(cd bench && go build -buildvcs=false -o "$out/humnet-bench" .)
exec "$out/humnet-bench" "$@"
