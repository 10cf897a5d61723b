#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see the header of perfbench/main.ml). Run from the repository
# root. Build output goes to stderr, so the last stdout line stays the
# benchmark's JSON result.
set -euo pipefail
dune build --root . --cache=disabled --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
