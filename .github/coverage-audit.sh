#!/usr/bin/env bash
# Coverage audit: runs every test of the packages outside cmd/ and examples/
# with coverage over those same packages, and fails when an exported function
# or method never executes unless .github/coverage-allowlist.txt names it.
# The allowlist holds one "<file> <function>" line per entry, sorted
# (LC_ALL=C), keyed by name so that moving code does not invalidate it. A
# trailing "# reason" says why the entry stays; the audit ignores it.
#
#   bash .github/coverage-audit.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export LC_ALL=C
allow=.github/coverage-allowlist.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

pkgs=$(go list ./... | grep -v -e '/cmd/' -e '/examples/')
go test -coverpkg="$(paste -sd, <<<"$pkgs")" -coverprofile="$work/cover.out" $pkgs >/dev/null
go tool cover -func="$work/cover.out" |
	awk '$NF == "0.0%" && $2 ~ /^[A-Z]/ { f = $1; sub(/:[0-9]+:$/, "", f); sub(/^spq\//, "", f); print f, $2 }' |
	sort -u >"$work/zero.txt"

sed 's/[[:space:]]*#.*$//' "$allow" >"$work/allow.txt"
sort -c -u "$work/allow.txt"
missing=$(comm -23 "$work/zero.txt" "$work/allow.txt")
stale=$(comm -13 "$work/zero.txt" "$work/allow.txt")
if [ -n "$stale" ]; then
	printf 'allowlisted but executed now (remove from %s):\n%s\n' "$allow" "$stale"
fi
if [ -n "$missing" ]; then
	printf 'exported functions no test executes (delete them, test them, or allowlist them in %s):\n%s\n' "$allow" "$missing"
	exit 1
fi
echo "coverage audit: every exported function runs or is allowlisted ($(wc -l <"$work/allow.txt") allowlisted)"
