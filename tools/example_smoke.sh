#!/usr/bin/env bash
# End-to-end smoke test: run one example program (quickstart, bank_audit,
# crash_recovery, supply_chain) against a throwaway chain directory; the
# example's own checks decide the exit status. Registered as the
# `<example>_smoke` ctests.
#
#   tools/example_smoke.sh <path-to-example-binary>
set -eu

bin="${1:?usage: example_smoke.sh <example-binary>}"
dir="$(mktemp -d "${TMPDIR:-/tmp}/harmony-example-smoke.XXXXXX")"
trap 'rm -rf "$dir"' EXIT

"$bin" "$dir"
