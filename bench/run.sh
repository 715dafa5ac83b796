#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it. Every
# build artefact (binary, Go build and module caches) stays under
# .bench_build/ at the repository root, so nothing outside the checkout is
# written. Arguments are passed to the harness unchanged.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/guptbench" .) >&2
cd "$root"
exec "$build/guptbench" "$@"
