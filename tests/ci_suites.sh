#!/usr/bin/env bash
# The CI workflow and ci/run.sh name the same suites: ci/run.sh parses,
# every suite in the workflow's matrix is one the script runs, every suite
# the script runs is in the matrix, and an unknown suite fails.  Plain
# text processing, no YAML library.
#
#   tests/ci_suites.sh [<repository root>]
set -euo pipefail
root=${1:-$(dirname "$0")/..}
bash -n "$root/ci/run.sh"

if usage=$(bash "$root/ci/run.sh" no-such-suite 2>&1); then
  echo "FAIL: ci/run.sh accepted an unknown suite"
  exit 1
fi
script=$(sed -n 's/^  \([a-z0-9-]*\)$/\1/p' <<<"$usage" | sort)
# The list under `suite:` in the workflow, one `- name` per line.
matrix=$(awk '/^ *suite:$/ { on = 1; next }
              on && /^ *- [a-z0-9-]+$/ { print $2; next }
              { on = 0 }' "$root/.github/workflows/ci.yml" | sort)

if [ -z "$matrix" ] || [ "$matrix" != "$script" ]; then
  echo "FAIL: workflow matrix (<) and ci/run.sh suites (>) differ"
  diff <(echo "$matrix") <(echo "$script") || true
  exit 1
fi
echo "ok: $(wc -l <<<"$matrix") suites agree"
