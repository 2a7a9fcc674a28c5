#!/usr/bin/env python3
"""Paper-scale lock: compare a ccbench -full report with the checked-in tables.

Every table's id, title, header, rows and notes in a `ccbench -full -json`
report must equal internal/bench/testdata/full_tables.json, and the run
must have no failures and no interruption. The raw telemetry and profile
payloads are not compared; their numbers reach the rows. With -update the
script rewrites the lock from the report instead, and the lock's diff is
the review artifact. Run from the repository root (about 2 min on 2
vCPUs):

    go run ./cmd/ccbench -full -parallel 2 -json /tmp/full.json all
    python3 .github/full_lock.py /tmp/full.json            # check
    python3 .github/full_lock.py -update /tmp/full.json    # regenerate
"""
import json
import sys

LOCK = "internal/bench/testdata/full_tables.json"
FIELDS = ("id", "title", "header", "rows", "notes")


def main(argv):
    update = argv[:1] == ["-update"]
    if update:
        argv = argv[1:]
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rep = json.load(open(argv[0]))
    if not rep.get("full"):
        print(f"{argv[0]}: not a -full report", file=sys.stderr)
        return 1
    if rep.get("failures") or rep.get("interrupted"):
        print(f"{argv[0]}: interrupted={rep.get('interrupted', False)} failures:", file=sys.stderr)
        for f in rep.get("failures") or []:
            print(f"  {f}", file=sys.stderr)
        return 1
    got = [{k: t.get(k) for k in FIELDS} for t in rep["experiments"]]
    if update:
        with open(LOCK, "w") as f:
            json.dump(got, f, indent=2, ensure_ascii=False)
            f.write("\n")
        print(f"rewrote {LOCK} ({len(got)} tables)")
        return 0
    want = json.load(open(LOCK))
    ids = lambda ts: [t["id"] for t in ts]
    if ids(got) != ids(want):
        print(f"experiments {ids(got)}, lock has {ids(want)}")
        return 1
    bad = 0
    for g, w in zip(got, want):
        for k in FIELDS:
            if g[k] == w[k]:
                continue
            bad += 1
            print(f"{g['id']}: {k} drifted from {LOCK}")
            if isinstance(w[k], list) and isinstance(g[k], list):
                for i, (a, b) in enumerate(zip(g[k], w[k])):
                    if a != b:
                        print(f"  first difference at {k}[{i}]\n  got:  {a}\n  want: {b}")
                        break
                else:
                    print(f"  {len(g[k])} entries, lock has {len(w[k])}")
            else:
                print(f"  got:  {g[k]}\n  want: {w[k]}")
    if bad:
        print("regenerate with -update if the change is intended")
        return 1
    print(f"{len(got)} -full tables match {LOCK}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
