#!/bin/sh
# Pre-PR gate: formatting, vet, build and the full test suite under the race
# detector, then the CLI-level gates. Run from the repository root; exits
# non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

# Every CLI is linked once, into $bin. Bench runs happen in $tracedir:
# experiments write BENCH_*.json into the working directory, and a -quick
# pass must not clobber the committed full-fidelity results.
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
bin="$tracedir/bin"
go build -o "$bin/" ./cmd/...
bench() { (cd "$tracedir" && "$bin/zofs-bench" "$@" >/dev/null); }

echo "== trace smoke =="
# Record one tiny fig7 append cell with the flight recorder on, then gate on
# the auditor: a crash-free run must have zero lost lines.
"$bin/zofs-obs" trace record -workload append -system Ext4-DAX \
    -o "$tracedir/smoke.jsonl" -threads 1 -ops 8 -device-mb 64 >/dev/null
"$bin/zofs-obs" trace audit -max-lost 0 "$tracedir/smoke.jsonl" >/dev/null

echo "== obs smoke =="
# What no collector may disturb is asserted by tier-1 (harness
# TestCollectorsObserveOnly). Here one -obs collection run — telemetry,
# spans, series and lock profile together — must publish one document,
# obs.json, that every panel's check accepts (share sums, wait/hold
# conservation, edge bounds, per-op count conservation), and beside it only
# JSON-lines logs: a cell log and raw logs the Chrome export can draw. top
# must render the document as text and JSON, and df must reconcile flow and
# space accounting on a live instance (-validate exits 1 on violation).
bench -quick -obs "$tracedir/obs" fig8
test -s "$tracedir/obs/cells.jsonl"
"$bin/zofs-obs" validate "$tracedir/obs" >/dev/null
for f in "$tracedir"/obs/*; do
    case "${f##*/}" in
    obs.json | *.jsonl) ;;
    *)
        echo "obs smoke: $f published beside obs.json and the logs" >&2
        exit 1
        ;;
    esac
done
"$bin/zofs-obs" top -once -dir "$tracedir/obs" >/dev/null
"$bin/zofs-obs" top -json -dir "$tracedir/obs" >/dev/null
"$bin/zofs-obs" trace export -obs "$tracedir/obs" -o "$tracedir/obs/chrome.json" >/dev/null
"$bin/zofs-obs" df -files 128 -validate >/dev/null

echo "== bench identity gate =="
# Virtual time makes the committed results bit-reproducible: a full-size
# "wa" and "chaos" run (both self-asserting: byte conservation, flow
# ordering; containment, byte-identical replay) must
# regenerate BENCH_wa.json and BENCH_chaos.json byte for byte. Any drift is
# a real change to a simulated number — refresh the file deliberately.
bench wa chaos
cmp BENCH_wa.json "$tracedir/BENCH_wa.json"
cmp BENCH_chaos.json "$tracedir/BENCH_chaos.json"

echo "== e2e floors =="
# One pass of a benchmark workload at seed 101 (read-only use; it builds
# into .bench_build/) must verify and hold its floors. Rows are
# "workload seconds metric op bound"; a workload runs once, at its first row.
ran=
while read -r workload seconds name op bound; do
    case "$workload" in '' | '#'*) continue ;; esac
    if [ "$workload" != "$ran" ]; then
        ran=$workload
        e2e=$(bash benchmark/run.sh --workload "$workload" --seed 101 \
            --seconds "$seconds" --trace 0 </dev/null | tail -n 1)
        case "$e2e" in
        *'"correct":true'*) ;;
        *)
            echo "e2e gate: $workload did not verify: $e2e" >&2
            exit 1
            ;;
        esac
    fi
    v=$(printf '%s' "$e2e" | sed -n 's/.*"'"$name"'":{"value":\([0-9.eE+-]*\).*/\1/p')
    if ! awk -v v="$v" -v b="$bound" 'BEGIN { exit !(v != "" && v + 0 '"$op"' b + 0) }'; then
        echo "e2e gate: $workload $name = '$v', want $op $bound" >&2
        exit 1
    fi
done <<'EOF'
# Listings come off the directory index and unlink reads an empty file's two
# indirect words, not the 3 KB pointer area (55106 B/op scanned, 3.2 now).
meta_churn 1 nvm_rbytes_per_op < 50
# Each op resolves its path once and O_CREAT probes the name once (680, 929 now).
meta_churn 1 sim_kops_per_vsec >= 850
# Paths are sliced, not rebuilt; windows, commits and inode state cost no heap
# object, open-file descriptions and handles are recycled, and a listing fills
# the thread's buffer (18.2, then 0.97 with an FD entry and a handle per open,
# 0.46 with a slice per listing, 0.42 now: directory-index inserts and device
# chunks).
meta_churn 1 host_allocs_per_op <= 1
# ReadDir returns the thread's listing buffer, as readdir(3) does, and device
# chunks materialize in an OS mapping, not on the Go heap (690 with a fresh
# 256-entry slice per listing, 256 with heap chunks, 47 now).
meta_churn 1 host_bytes_per_op <= 100
# A 64 KiB pread of a file written front to back is one device access, not
# sixteen (895 a block at a time, 1513 now).
data_read 3 sim_kops_per_vsec >= 1350
# Truncating a 16 MiB log reads and clears each pointer array once (902 slot
# by slot, 1185 now).
data_write 3 sim_kops_per_vsec >= 1050
# The bandwidth ledger keeps windows in dense pages (14.8 with a map entry per
# window, 1.7 now).
data_write 3 host_bytes_per_op <= 5
# B-tree pages are searched and edited in place, rows are written and read by
# a typed codec, keys are bytes and lookups return views; the journal's handle
# is a recycled one and its page list at unlink is built in thread scratch;
# pages and slot tables come from pager slabs and the tables follow each edit
# (7954 with decoded pages, 241 with encoding/json rows, 7.3 with a handle and
# a page list per transaction, 1.8 with a page and a slot table per page grown,
# 0.01 now: a slab per 64 pages grown).
app_tpcc 1 host_allocs_per_op <= 0.5
# Device growth maps media instead of zeroing 4 MiB heap chunks (1530 with
# heap chunks, 831 now).
app_tpcc 1 host_bytes_per_op <= 1000
# Files open, close, change permission and move between coffers without
# garbage: recycled descriptions and handles, symlink targets and page lists
# in thread scratch, typed kernel-agent tables (2.65 before, 0.57 now: the
# path a symlinked open expands to, and per chmod split/merge cycle a coffer
# record, a path-mirror entry, a mapper table and a mount).
coffer_share 1 host_allocs_per_op <= 1.5
# The same objects are all the bytes there are: chunks of device media are
# pointers into one OS mapping per device (1055 with heap chunks, 41 now).
coffer_share 1 host_bytes_per_op <= 100
EOF

echo "== crashmc smoke =="
# Crash-state model checker gates: a dense ZoFS sweep (>=200 states under
# all media models on both crash edges) and one baseline must hold every
# invariant. (The detection contracts — injected faults caught by the
# checker, a seeded chaos violation failing its campaign — are tier-1 tests:
# zofs-crashmc's TestExitCodes and chaos.TestSeededViolationFails.)
"$bin/zofs-crashmc" -system ZoFS -points 35 -ops 24 -device-mb 64 \
    -min-states 200 >/dev/null
"$bin/zofs-crashmc" -system Ext4-DAX -points 8 -ops 16 -device-mb 64 >/dev/null

echo "== scalability gate =="
# Regression gate for the kernfs.big decomposition: a quick fxmark-scale
# sweep widened to 64 and 512 threads must show the metadata-bound ZoFS
# workloads (MWCL/MWRL) still climbing at 64 threads, and all three gated
# workloads (DWAL/MWCL/MWRL) holding at least half their peak throughput
# at 512. DWAL saturates the device's write bandwidth by a few threads
# (paper Fig. 7), so its un-collapsed signature is the plateau, not the
# climb. A global kernel-agent mutex — or any new serial section on the
# metadata-write path — fails this gate.
bench -quick -scale-gate fxmark-scale

echo "== size =="
# What each CHANGES.md entry quotes before/after (ROADMAP aim 2).
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' \
    ! -path './benchmark/*' | xargs cat | wc -l)
# fields FILE: exported fields of the file's "type Options struct".
fields() {
    awk '/^type Options struct/ { f = 1; next } f && /^}/ { exit }
        f && /^\t[A-Z][A-Za-z0-9]* / { n++ } END { print n }' "$1"
}
obs=$(find internal/telemetry internal/pmemtrace internal/spans internal/byteflow \
    internal/lockprof internal/series internal/obsfs \
    cmd/zofs-obs cmd/zofs-bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
echo "non-test Go lines outside benchmark/: $lines; zofs.Options fields: $(fields internal/zofs/fs.go)"
echo "CLIs: $(ls cmd | wc -l); observability set + zofs-obs + zofs-bench: $obs lines"
echo "experiments: $(grep -c '^	{"' internal/harness/harness.go); zofs-bench flags:" \
    "$(grep -cE 'fl\.[A-Z][A-Za-z0-9]*\("' cmd/zofs-bench/main.go); harness.Options fields: $(fields internal/harness/harness.go)"

echo "OK"
