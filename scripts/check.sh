#!/usr/bin/env bash
# Pre-merge gate: the full CI tier (scripts/ci.sh full) — build, vet
# (standard + project-specific), full tests, the race tier, a short fuzz
# pass, the BENCH_*.json component gates and run-summary validation.
# EXPERIMENTS.md results are only comparable across commits that pass this
# script.
#
# FUZZTIME (default 10s) controls the per-target fuzz budget; set
# FUZZTIME=0 to skip fuzzing (the seed corpora still run under go test).
set -euo pipefail
exec "$(dirname "$0")/ci.sh" full
