#!/usr/bin/env bash
# Reach audit: which functions do the production entry points never
# run? Builds ccbench, cclserve, every example and perfbench with
# coverage of every ccl package, drives them through the audit set
# below under GOCOVERDIR, and compares the functions that ran 0% with
# .github/reach_allowlist.tsv. A mechanism that only its own tests
# reach fails the audit until it is deleted, wired to a result, or
# listed with a reason. Run it from the repository root:
#
#   bash .github/reach_audit.sh
#
# The audit set: `ccbench -parallel 2 all`, `ccbench -profile`,
# `ccbench -fault arena-grow:3 table2`, `cclserve -selftest`, the ten
# examples, and perfbench's three workloads (2 s each, untraced and
# traced; its serve workload uploads traces to cclserve's
# /v1/replay). About 150 s of runs on 2 vCPUs, plus the builds.
#
# Allowlist rows are file<TAB>func<TAB>reason, keyed by the file and
# function name `go tool covdata func` prints (no line number, so a
# row survives edits above it). The reason starts with its kind:
#   sweep <Test>  an error or degradation path; <Test> reaches it
#   verify        a verification tool (oracle, CheckInvariants, ...)
#   facade        a ccl facade function no example calls
#   full          code reached only at paper scale (-full)
#   endpoint      a cclserve path the audit traffic does not drive
#   accessor      a one-line getter, or a String or Error method
# The audit fails on a 0% function outside ccl/examples/ that no row
# lists, a row with no reason or an unknown kind, a row naming a
# function that no longer exists, and a sweep row naming a test that
# does not exist. Rows whose function ran are printed, not failed.
set -euo pipefail

root=$PWD
allow=$root/.github/reach_allowlist.tsv
if [[ ! -f "$root/go.mod" || ! -f "$allow" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "reach audit: run from the repository root" >&2
	exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
export GOCOVERDIR=$work/cov
mkdir -p "$bin" "$GOCOVERDIR" "$work/out"

echo "reach audit: building" >&2
build() { go build -cover -coverpkg=ccl/... -o "$@"; }
build "$bin/ccbench" ./cmd/ccbench
build "$bin/cclserve" ./cmd/cclserve
examples=()
for d in examples/*/; do
	name=$(basename "$d")
	build "$bin/example-$name" "./$d"
	examples+=("$name")
done
(cd perfbench && build "$bin/perfbench" .)

# run runs one audit command with its output in a log, printing the
# log's tail if the command fails.
run() {
	if ! "$@" >>"$work/run.log" 2>&1; then
		tail -n 40 "$work/run.log" >&2
		echo "reach audit: $* failed" >&2
		exit 1
	fi
}

echo "reach audit: running" >&2
run "$bin/ccbench" -parallel 2 all
run "$bin/ccbench" -profile "$work/out/profile"
run "$bin/ccbench" -fault arena-grow:3 table2 -json "$work/out/fault.json"
run "$bin/cclserve" -selftest -tenants 4 -concurrent 12
for name in "${examples[@]}"; do
	# From the scratch directory: examples/profiling writes its
	# profile exports to the working directory.
	(cd "$work/out" && run "$bin/example-$name")
done
for workload in layout-race regen serve; do
	for trace in 0 1; do
		run "$bin/perfbench" -bin "$bin" -out "$work/out/perfbench" \
			-workload "$workload" -seed 1 -seconds 2 -trace "$trace"
	done
done

go tool covdata func -i="$GOCOVERDIR" >"$work/funcs.txt"

python3 - "$work/funcs.txt" "$allow" <<'EOF'
import collections, re, subprocess, sys

funcs_path, allow_path = sys.argv[1], sys.argv[2]
kinds = {"sweep", "verify", "facade", "full", "endpoint", "accessor"}

# (file, func) -> coverage of every function with that key: two
# methods of one name in one file share a key.
cover = collections.defaultdict(list)
for line in open(funcs_path):
    parts = line.split()
    if len(parts) < 3 or not parts[-1].endswith("%") or parts[0] == "total":
        continue
    path = parts[0].rstrip(":").rsplit(":", 1)[0]
    cover[(path, parts[1])].append(float(parts[-1].rstrip("%")))
zero = {k for k, pcts in cover.items() if 0.0 in pcts and not k[0].startswith("ccl/examples/")}

tests = set()
files = subprocess.run(["git", "ls-files", "*_test.go"], capture_output=True, text=True, check=True).stdout.split()
for f in files:
    tests.update(re.findall(r"^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(", open(f).read(), re.M))

failed = False
def fail(msg):
    global failed
    failed = True
    print("FAIL:", msg)

listed = {}
for n, line in enumerate(open(allow_path), 1):
    line = line.rstrip("\n")
    if not line.strip() or line.startswith("#"):
        continue
    cols = line.split("\t")
    where = f"{allow_path}:{n}"
    if len(cols) != 3 or not cols[2].strip():
        fail(f"{where}: want file<TAB>func<TAB>reason, got {line!r}")
        continue
    key, reason = (cols[0], cols[1]), cols[2].split()
    if key in listed:
        fail(f"{where}: {key[0]} {key[1]} listed twice")
    listed[key] = cols[2]
    if reason[0] not in kinds:
        fail(f"{where}: reason {cols[2]!r} is not one of {sorted(kinds)}")
    elif reason[0] == "sweep" and (len(reason) < 2 or reason[1] not in tests):
        fail(f"{where}: {cols[2]!r} names no existing test")
    if key not in cover:
        fail(f"{where}: {key[0]} {key[1]} no longer exists")
    elif key not in zero:
        print(f"ran: {key[0]}\t{key[1]}\t{cols[2]}")

for key in sorted(zero - listed.keys()):
    fail(f"never reached and not allowlisted: {key[0]}\t{key[1]}")

print(f"reach audit: {len(zero)} functions at 0% outside ccl/examples/, {len(listed)} allowlisted")
sys.exit(1 if failed else 0)
EOF
