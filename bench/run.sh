#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build leaves behind (the binary, Go's build and module
# caches) stays inside bench/out/, so a run reads and writes only inside its
# checkout and needs neither $HOME nor the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
# The commit is stamped into the binary for the report's fingerprint; where
# git cannot answer (no repository, or one it refuses to read) build without.
(cd "$here" && { go build -o "$out/bench" . 2>/dev/null || go build -buildvcs=false -o "$out/bench" .; })
cd "$here/.."
exec "$out/bench" "$@"
