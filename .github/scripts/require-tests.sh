#!/usr/bin/env bash
# Usage: require-tests.sh PATTERN PACKAGE...
#
# Fails unless every |-separated name in PATTERN begins the name of at least
# one test in the packages. `go test -run PATTERN` passes with "no tests to
# run" when nothing matches, so a CI step that selects tests by name would go
# on passing after one of them is renamed or deleted.
set -euo pipefail
pattern=$1
shift
listed=$(go test -list "$pattern" "$@")
status=0
IFS='|' read -ra names <<<"$pattern"
for name in "${names[@]}"; do
  if ! grep -q "^${name}" <<<"$listed"; then
    echo "require-tests: no test in $* begins with ${name}" >&2
    status=1
  fi
done
exit "$status"
