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

echo "== every package has a test =="
# A Go package outside benchmark/ with no _test.go file has nothing checking
# it; == size == reports the count.
untested=$(go list -f '{{if and (not .TestGoFiles) (not .XTestGoFiles)}}{{.ImportPath}}{{end}}' ./... |
    grep -v -e '^$' -e '^zofs/benchmark\(/\|$\)' || true)
if [ -n "$untested" ]; then
    echo "packages without a test:" >&2
    echo "$untested" >&2
    exit 1
fi

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

echo "== obs smoke =="
# What no collector may disturb is asserted by tier-1 (harness
# TestCollectorsObserveOnly). Here one -obs collection run — telemetry,
# spans, the event log, series and lock profile together — must publish one
# document, obs.json, that every panel's check accepts (share sums, wait/hold
# conservation, edge bounds, per-op count conservation), and beside it only
# the cell log (cells.jsonl) and the two record logs every per-op view is
# decoded from (spans.rec, events.rec). The auditor must find no lost line
# in the crash-free run's event log, top must render the document as text
# and JSON, the Chrome export and the worst-op listing must decode the
# record logs, and df must reconcile flow and space accounting on a live
# instance (-validate exits 1 on violation).
bench -quick -obs "$tracedir/obs" fig8
test -s "$tracedir/obs/cells.jsonl"
"$bin/zofs-obs" validate "$tracedir/obs" >/dev/null
for f in "$tracedir"/obs/*; do
    case "${f##*/}" in
    obs.json | cells.jsonl | spans.rec | events.rec) ;;
    *)
        echo "obs smoke: $f published beside obs.json and the logs" >&2
        exit 1
        ;;
    esac
done
"$bin/zofs-obs" trace audit -max-lost 0 "$tracedir/obs" >/dev/null
"$bin/zofs-obs" top -once -dir "$tracedir/obs" >/dev/null
"$bin/zofs-obs" top -json -dir "$tracedir/obs" >/dev/null
"$bin/zofs-obs" trace export -o "$tracedir/chrome.json" "$tracedir/obs" >/dev/null
"$bin/zofs-obs" trace worst "$tracedir/obs" >/dev/null
"$bin/zofs-obs" df -files 128 -validate >/dev/null
# The price of observation: -quick table7 dark, then observed. The record
# logs of a stepped run are deterministic, so their bytes per root span and
# per device event are bounded tightly (29.0 and 17.8 when the bounds were
# set; 206 and 91 as JSON lines). The host-time ratio is bounded loosely: a
# shared 2-vCPU VM drifts 20-45 % for minutes (1.7 when the bound was set,
# about 5 with JSON lines).
now() { date +%s.%N; }
t0=$(now)
bench -quick table7
t1=$(now)
bench -quick -obs "$tracedir/t7" table7
t2=$(now)
roots=$(sed -n 's/^ *"finished": \([0-9]*\),*$/\1/p' "$tracedir/t7/obs.json" | head -n 1)
events=$("$bin/zofs-obs" trace audit -max-lost 0 "$tracedir/t7" | sed -n 's/^events: \([0-9]*\) .*/\1/p')
awk -v t0="$t0" -v t1="$t1" -v t2="$t2" -v r="$roots" -v e="$events" \
    -v rb="$(wc -c <"$tracedir/t7/spans.rec")" -v eb="$(wc -c <"$tracedir/t7/events.rec")" 'BEGIN {
    dark = t1 - t0; obs = t2 - t1
    printf "table7 -quick: %.2f s dark, %.2f s observed (ratio %.2f); %d roots at %.1f B, %d events at %.1f B\n",
        dark, obs, obs / dark, r, rb / r, e, eb / e
    if (r <= 0 || e <= 0 || rb / r > 32 || eb / e > 20 || obs / dark > 3) {
        print "obs smoke: observation costs more than its bounds (32 B a root, 20 B an event, 3x the dark run)" > "/dev/stderr"
        exit 1
    }
}'

echo "== bench identity gate =="
# Virtual time makes the committed results bit-reproducible: a full-size
# "wa", "chaos" and "fxmark-scale" run (all self-asserting: byte
# conservation, flow ordering; containment, byte-identical replay; profiler
# bit-identity, lock-wait books, and the scaling gate — ZoFS MWCL/MWRL still
# climbing at 64 threads, DWAL/MWCL/MWRL holding half their peak at 512)
# must regenerate BENCH_wa.json, BENCH_chaos.json and BENCH_fxmark_scale.json
# byte for byte, and so must the fidelity scoreboard, BENCH_fidelity.json:
# the paper cells of the full-size scored experiments, each scored against
# the paper's value, from a run of those alone (a freshly booted machine, as
# tier-1's harness.TestFidelityHolds reruns them). Any drift is a real change
# to a simulated number — refresh the file deliberately.
bench wa chaos fxmark-scale
cmp BENCH_wa.json "$tracedir/BENCH_wa.json"
cmp BENCH_chaos.json "$tracedir/BENCH_chaos.json"
cmp BENCH_fxmark_scale.json "$tracedir/BENCH_fxmark_scale.json"
bench table2 fig8 fig11 table9 recovery
cmp BENCH_fidelity.json "$tracedir/BENCH_fidelity.json"

echo "== results =="
# results/ holds the outputs EXPERIMENTS.md quotes, each from the command
# results/README.md lists. They must regenerate byte for byte but for the
# wall-clock "---- NAME done in" lines (about 2.5 minutes on 2 vCPUs). A
# moved cell is a model change: refresh the file deliberately.
regen() {
    out=$1
    shift
    (cd "$tracedir" && "$bin/zofs-bench" "$@") | grep -v '^---- .* done in ' >"$tracedir/$out"
    if ! grep -v '^---- .* done in ' "results/$out" | diff - "$tracedir/$out" >&2; then
        echo "results: results/$out differs from a fresh 'zofs-bench $*'" >&2
        exit 1
    fi
}
regen fast-experiments.txt -quick all
regen fig7.txt fig7
regen fig9.txt fig9
regen fig10.txt fig10
regen fig11.txt -quick fig11
regen table7.txt -quick table7
regen table9-recovery-full.txt table9 recovery
regen crashmc.txt crashmc

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
# Each op resolves its path once and O_CREAT probes the name once (680, 929,
# 976 now).
meta_churn 1 sim_kops_per_vsec >= 850
# An unlinked inode page is scrubbed over what it holds, not all 4 KiB, unless
# a block pointer may lie past EOF, and a metadata grant scrubs only the pages
# granted before: one never granted since mkfs reads zero (1142 with the 4 KiB
# scrub on free, 294 with every grant scrubbed, 70 now).
meta_churn 1 nvm_wbytes_per_op <= 100
# Paths are sliced, not rebuilt; windows, commits and inode state cost no heap
# object, open-file descriptions and handles are recycled, a listing fills
# the thread's buffer, and inode states, directory indexes and free-slot
# blocks are carved from slabs (18.2, then 0.97 with an FD entry and a handle
# per open, 0.46 with a slice per listing, 0.42 with a free-slot append per
# slot and an object per first-seen inode, 0.004 now).
meta_churn 1 host_allocs_per_op <= 0.05
# ReadDir returns the thread's listing buffer, as readdir(3) does, device
# chunks materialize in an OS mapping, not on the Go heap, and directory
# indexes are reset in place (690 with a fresh 256-entry slice per listing,
# 256 with heap chunks, 47 with slices grown per free slot, 23 now).
meta_churn 1 host_bytes_per_op <= 30
# A 64 KiB pread of a file written front to back is one device access, not
# sixteen (895 a block at a time, 1513 now).
data_read 3 sim_kops_per_vsec >= 1350
# Truncating a 16 MiB log reads and clears each pointer array once (902 slot
# by slot, 1185 before appends stopped zeroing past EOF, 1327 now).
data_write 3 sim_kops_per_vsec >= 1050
# The bandwidth ledger keeps windows in dense pages (14.8 with a map entry per
# window, 1.7 now).
data_write 3 host_bytes_per_op <= 5
# An append zeroes nothing past EOF: what a write or truncate exposes is
# zeroed when it is exposed (4422 zero-filling each fresh page's tail, 3648 now).
data_write 3 nvm_wbytes_per_op <= 3800
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
# The rollback journal's page-straddling appends no longer zero-fill each fresh
# page's tail, and its unlinked inode page is scrubbed over what it holds
# (121725, then 80471, 76521 now).
app_tpcc 1 nvm_wbytes_per_op <= 78000
# Unlink reads the indirect words and the direct slots the file's size covers,
# not all 392: the rollback journal's inode costs 24 bytes a transaction, not
# 3,152 (3576 before, 522 now).
app_tpcc 1 nvm_rbytes_per_op <= 1000
# Files open, close, change permission and move between coffers without
# garbage: recycled descriptions and handles, symlink targets and page lists
# in thread scratch, typed kernel-agent tables; what a coffer call keeps (a
# coffer record, a path-mirror entry, a mount) comes from slabs, mappers fit
# in the record and a symlinked open's path is the thread's memoized one
# (2.65 before, 0.57 with those objects made per chmod split/merge cycle and
# per symlinked open, 0.003 now).
coffer_share 1 host_allocs_per_op <= 0.05
# Chunks of device media are pointers into one OS mapping per device, and the
# kept coffer objects come in slab chunks (1055 with heap chunks, 41 with an
# object each, 29 now).
coffer_share 1 host_bytes_per_op <= 30
# Root pages update in place and emptied bucket heads stay; an unlinked symlink
# scrubs its header and target; a zeroed root page is written over its path, a
# dead one zeroed over it, and a merged pool page over its slots (2603
# rewriting pages, 1795, 1494, 1193 now).
coffer_share 1 nvm_wbytes_per_op <= 1300
# Path-table removes read the entry the mirror locates, not its 4 KiB page,
# and a split reads the block pointers the file's size covers (2350, then
# 1944, 1789 now).
coffer_share 1 nvm_rbytes_per_op <= 1900
# Smaller root-page writes; kernfs.registry held only to publish (1450 before, 1568 now).
coffer_share 1 sim_kops_per_vsec >= 1500
# A thread's coffer_enlarge grants ramp from one page up to the batch cap, so
# a coffer is granted about what it uses (1.0546 with a 512 + 32-page first
# grant per coffer, 1.0129 now).
coffer_share 1 space_amp <= 1.02
EOF

echo "== crashmc smoke =="
# Crash-state model checker gates: a dense ZoFS sweep (>=200 states under
# all media models on both crash edges), LogFS and two baselines must hold
# what each guarantees. (The detection contracts — injected faults caught by the
# checker, a seeded chaos violation failing its campaign — are tier-1 tests:
# zofs-crashmc's TestExitCodes and chaos.TestSeededViolationFails.)
"$bin/zofs-crashmc" -system ZoFS -points 35 -ops 24 -device-mb 64 \
    -min-states 200 >/dev/null
"$bin/zofs-crashmc" -system Ext4-DAX -points 8 -ops 16 -device-mb 64 >/dev/null
"$bin/zofs-crashmc" -system LogFS -points 8 -ops 16 -device-mb 64 >/dev/null
"$bin/zofs-crashmc" -system NOVA -points 8 -ops 16 -device-mb 64 >/dev/null

echo "== size =="
# What each CHANGES.md entry quotes before/after (ROADMAP aim 2).
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' \
    ! -path './benchmark/*' | xargs cat | wc -l)
tests=$(find . -name '*_test.go' ! -path './.bench_build/*' ! -path './benchmark/*' |
    xargs cat | wc -l)
# fields FILE: exported fields of the file's "type Options struct".
fields() {
    awk '/^type Options struct/ { f = 1; next } f && /^}/ { exit }
        f && /^\t[A-Z][A-Za-z0-9]* / { n++ } END { print n }' "$1"
}
obs=$(find internal/telemetry internal/pmemtrace internal/spans internal/byteflow \
    internal/lockprof internal/series internal/obsfs \
    cmd/zofs-obs cmd/zofs-bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
crash=$(find internal/crashmc internal/sysfactory internal/logfs -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
# ROADMAP item 11(a): the experiments as one table and one observed cell.
harness=$(find internal/harness -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
pkgs=$(go list ./... | grep -vc '^zofs/benchmark\(/\|$\)')
echo "non-test Go lines outside benchmark/: $lines; test Go lines: $tests;" \
    "Go packages outside benchmark/: $pkgs (without a test: $(printf '%s' "$untested" | grep -c .));" \
    "zofs.Options fields: $(fields internal/zofs/fs.go)"
echo "DESIGN.md lines: $(wc -l <DESIGN.md)"
echo "CLIs: $(ls cmd | wc -l); observability set + zofs-obs + zofs-bench: $obs lines;" \
    "crash checker + sysfactory + logfs: $crash lines; harness lines: $harness"
# hand-built machines: non-test Go files outside sysfactory that boot their
# own (call kernfs.Mkfs) instead of sysfactory's New and Instance.Spawn.
echo "hand-built machines: $(grep -rl --include='*.go' --exclude='*_test.go' 'kernfs\.Mkfs(' . |
    grep -vc -e '^\./internal/sysfactory/' -e '^\./\.bench_build/')"
# kernel mounts outside sysfactory: non-test Go files that mount KernFS
# themselves (call kernfs.Mount) instead of booting through sysfactory.Boot.
echo "kernel mounts outside sysfactory: $(grep -rl --include='*.go' --exclude='*_test.go' 'kernfs\.Mount(' . |
    grep -vc -e '^\./internal/sysfactory/' -e '^\./\.bench_build/')"
# ROADMAP item 27: one crash driver over the coffer protocol, no longer than
# the three bespoke crash tests it replaced (265 lines).
echo "coffer crash driver test lines: $(wc -l <internal/zofs/coffercrash_test.go) (replaced: 265)"
# One implementation per coffer step: the systems sysfactory builds, and the
# non-test call sites of the Table-5 calls the ZoFS µFS makes (one each).
systems=$(awk '/^var All = \[\]System\{/ { f = 1; next } f && /^}/ { exit }
    f { gsub(/[ \t]/, ""); n += split($0, a, ",") - 1 } END { print n }' internal/sysfactory/sysfactory.go)
coffercalls=$(find internal/zofs -name '*.go' ! -name '*_test.go' | xargs grep -oE \
    'kern\.(CofferNew|CofferDelete|CofferSplit|CofferMerge|SetCofferMeta)\(' | wc -l)
echo "sysfactory.All systems: $systems; zofs coffer-call sites (CofferNew, CofferDelete," \
    "CofferSplit, CofferMerge, SetCofferMeta): $coffercalls"
# One naming rule (G3): the non-test places in internal/zofs that turn a
# dentry's coffer field into a coffer ID — the rule's dentry form (target) and
# ReadDir's listing, 2 when it was set; another is a cross-coffer dentry used
# unchecked.
dentrycoffers=$(find internal/zofs -name '*.go' ! -name '*_test.go' | xargs grep -oE \
    'coffer\.ID\([a-z]+\.cofferID\)' | wc -l)
echo "zofs dentry-to-coffer conversions (naming rule, ReadDir): $dentrycoffers"
# One authorisation rule: the non-test lines in internal/kernfs and
# internal/zofs, outside the predicates (kernfs.MayAlter and MayMerge;
# coffer.Class), that restate the owner rule or the permission class (12 when
# it was set). internal/baselines' POSIX checks are another system's.
rules=$(find internal/kernfs internal/zofs -name '*.go' ! -name '*_test.go' | xargs grep -hE \
    'u != 0 &&|uid == 0 \|\||&\^ ?0o111|execMask\(|\.Mode != [a-z]+\.rp\.Mode|\.UID [!=]= [a-z.]+\.UID' |
    grep -vc '^func May' || true)
echo "coffer-permission rules restated outside the predicates: $rules"
echo "experiments: $(grep -c '^	{"' internal/harness/harness.go); zofs-bench flags:" \
    "$(grep -cE 'fl\.[A-Z][A-Za-z0-9]*\("' cmd/zofs-bench/main.go); harness.Options fields: $(fields internal/harness/harness.go)"

echo "OK"
