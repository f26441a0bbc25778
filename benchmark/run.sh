#!/usr/bin/env bash
# Builds zofs-e2e from source and runs it with the given flags. Everything the
# build leaves behind (binary, Go build cache, temp files, Go config)
# stays in .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
	echo "run.sh: no go.mod at $PWD: the benchmark builds the file system from the repository's source" >&2
	exit 2
fi
b="$PWD/.bench_build"
mkdir -p "$b/tmp" "$b/config/go/telemetry"
# Telemetry off, or each go command in a fresh config directory starts a
# background uploader process that outlives it.
echo off >"$b/config/go/telemetry/mode"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" XDG_CONFIG_HOME="$b/config" GOTOOLCHAIN=local
go build -o "$b/zofs-e2e" ./benchmark/cmd/zofs-e2e
exec "$b/zofs-e2e" "$@"
