#!/usr/bin/env bash
# Builds perfbench from source, generates the seeded inputs of --seed
# once (kept under .bench_build/inputs), and runs one measurement:
#
#   bash perfbench/run.sh --workload cold-recommend --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it writes — the Go build
# cache, the binary, the inputs and the scratch files — stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

seed=1
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--seed) seed="${args[i + 1]}" ;;
	--seed=*) seed="${args[i]#--seed=}" ;;
	esac
done

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
"$build/perfbench" gen --seed "$seed" --out "$build/inputs/seed-$seed" >&2
exec "$build/perfbench" run --inputs "$build/inputs/seed-$seed" --work "$build/work" "$@"
