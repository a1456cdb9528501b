#!/bin/sh
# Rerunnable size-and-duplication audit (ROADMAP item 3). One row per
# package of the module:
#
#   code      non-test Go lines
#   test      _test.go lines
#   imp       packages of this module importing it (its integration surface)
#   dead      //rootlint:allow deadcode directives: declarations no binary
#             reaches, kept for bench/ or for a test (rootlint's deadcode
#             analyzer proves there is no other kind)
#   mix       SplitMix64 finalizer bodies      (one, in internal/seeded)
#   fnv       open-coded FNV-1a loops          (one pair, in internal/seeded)
#   unit      top-53-bits-to-[0,1) idioms      (one, in internal/seeded)
#   rename    tmp-file + os.Rename writers     (one, in internal/checkpoint)
#   seal      seal/restore interface types     (one, in internal/checkpoint)
#   flags     for a cmd/ row, the options its -h lists: the count to take
#             before and after a change next to the line count
#
# The fingerprint columns count non-test files only and skip the analyzers'
# fixtures under testdata. Run it before and after a change and diff the two
# tables; the last row is the module total.
set -eu
cd "$(dirname "$0")/.."

mod=$(go list -m)
imports=$(mktemp)
trap 'rm -f "$imports"' EXIT INT TERM
go list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' ./... >"$imports"

count() { # count <regex> <files...>: matching lines across the files
	pattern=$1
	shift
	[ $# -gt 0 ] || { echo 0; return; }
	cat "$@" | grep -Eic -e "$pattern" || true
}

printf '%-28s %6s %6s %4s %4s %4s %4s %5s %7s %5s %5s\n' package code test imp dead mix fnv unit rename seal flags
go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read -r pkg dir; do
	code_files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	test_files=$(find "$dir" -maxdepth 1 -name '*_test.go' | sort)
	# shellcheck disable=SC2086 # file lists are split on purpose
	set -- $code_files
	code=0
	[ $# -gt 0 ] && code=$(cat "$@" | wc -l)
	dead=$(count '^[[:space:]]*//rootlint:allow deadcode:' "$@")
	mix=$(count '0xbf58476d1ce4e5b9' "$@")
	fnv=$(count '1099511628211' "$@")
	unit=$(count '>> *11\) */ *\(1 *<< *53\)' "$@")
	rename=$(count 'os\.Rename\(' "$@")
	seal=0
	# Interface types that declare (or embed) a seal method.
	[ $# -gt 0 ] && seal=$(cat "$@" | awk '
		/^type [A-Za-z]+ interface/ { inside = 1; next }
		inside && /^}/ { inside = 0 }
		inside && /CheckpointSeal\(\)|Checkpointable/ { n++ }
		END { print n + 0 }')
	# shellcheck disable=SC2086
	set -- $test_files
	tests=0
	[ $# -gt 0 ] && tests=$(cat "$@" | wc -l)
	imp=$(awk -v p="$pkg" '{ for (i = 2; i <= NF; i++) if ($i == p) { n++; break } } END { print n + 0 }' "$imports")
	flags=-
	case $pkg in
	"$mod"/cmd/*) flags=$(go run "$pkg" -h 2>&1 | grep -c '^  -' || true) ;;
	esac
	printf '%-28s %6d %6d %4d %4d %4d %4d %5d %7d %5d %5s\n' "${pkg#"$mod"/}" "$code" "$tests" "$imp" "$dead" "$mix" "$fnv" "$unit" "$rename" "$seal" "$flags"
done | awk '
	{ print; for (i = 2; i <= NF; i++) sum[i] += $i }
	END { printf "%-28s %6d %6d %4s %4d %4d %4d %5d %7d %5d %5d\n", "TOTAL", sum[2], sum[3], "-", sum[5], sum[6], sum[7], sum[8], sum[9], sum[10], sum[11] }'
