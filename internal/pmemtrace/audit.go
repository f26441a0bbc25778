package pmemtrace

import (
	"fmt"
	"io"
	"sort"

	"zofs/internal/perfmodel"
)

// LineSize is the cacheline granularity at which persistence is audited
// (matches nvm.LineSize without importing nvm).
const LineSize = perfmodel.CachelineSize

// PageSize mirrors nvm.PageSize for page-level cross-checks.
const PageSize = perfmodel.PageSize

// OpSpan is one file-system operation's interval on a thread's virtual
// timeline — what the auditor needs to name the op a device event fell
// inside. zofs-obs trace audit builds them from an observation directory's
// causal-span roots.
type OpSpan struct {
	TID   int
	Op    string
	Start int64
	Dur   int64
}

// LostLine is one cacheline that was dirty — stored but never covered by a
// flush+fence — when a crash event occurred. Op is the op span the dirtying
// store fell inside, when one matches ("" otherwise).
type LostLine struct {
	Line     int64  `json:"line"`     // byte offset of the line start
	StoreTS  int64  `json:"store_ts"` // virtual time of the dirtying store
	TID      int32  `json:"tid"`
	Key      int16  `json:"key"`
	Op       string `json:"op,omitempty"`
	CrashSeq uint64 `json:"crash_seq"` // Seq of the crash event that lost it
}

// Report is the auditor's verdict over one event stream.
type Report struct {
	Events  int64 `json:"events"`
	Dropped bool  `json:"dropped"` // stream head missing (ring overflow, no spill)

	Stores   int64 `json:"stores"`    // cached stores
	NTStores int64 `json:"nt_stores"` // nt_store + store64 + cas + zero
	Flushes  int64 `json:"flushes"`
	Fences   int64 `json:"fences"` // explicit fence events only

	Crashes    int64 `json:"crashes"`
	Injected   int64 `json:"injected"`
	Violations int64 `json:"violations"`

	// LostLines are dirty-at-crash lines: lost-update risk (a).
	LostLines []LostLine `json:"lost_lines"`

	// Redundant work (b): flushes whose every line was already clean, and
	// explicit fences with no store since the previous fence point.
	RedundantFlushes    int64            `json:"redundant_flushes"`
	RedundantFlushLines int64            `json:"redundant_flush_lines"` // clean lines clwb'd (incl. partial)
	RedundantFlushByOp  map[string]int64 `json:"redundant_flush_by_op,omitempty"`
	EmptyFences         int64            `json:"empty_fences"`
	EmptyFenceByOp      map[string]int64 `json:"empty_fence_by_op,omitempty"`

	// Epoch summaries (c): an epoch ends at every fence point (explicit
	// fences plus the fences folded into persisting stores).
	Epochs             int64   `json:"epochs"`
	StoresPerEpochMean float64 `json:"stores_per_epoch_mean"`
	StoresPerEpochMax  int64   `json:"stores_per_epoch_max"`
	FlushFanoutMean    float64 `json:"flush_fanout_mean"` // lines per flush
}

// spanIndex answers "which traced op was thread T inside at time ts".
type spanIndex struct {
	byTID map[int32][]OpSpan
}

func newSpanIndex(spans []OpSpan) *spanIndex {
	idx := &spanIndex{byTID: map[int32][]OpSpan{}}
	for _, s := range spans {
		idx.byTID[int32(s.TID)] = append(idx.byTID[int32(s.TID)], s)
	}
	for tid := range idx.byTID {
		ss := idx.byTID[tid]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	return idx
}

// opAt returns the name of the op span containing ts on thread tid, or "".
func (idx *spanIndex) opAt(tid int32, ts int64) string {
	ss := idx.byTID[tid]
	// Last span starting at or before ts; spans from one thread are
	// sequential in virtual time, so at most one can contain ts.
	i := sort.Search(len(ss), func(i int) bool { return ss[i].Start > ts }) - 1
	if i >= 0 && ts <= ss[i].Start+ss[i].Dur {
		return ss[i].Op
	}
	return ""
}

// dirtyInfo remembers who dirtied a line, for attribution at crash time.
type dirtyInfo struct {
	ts  int64
	tid int32
	key int16
}

// devLine keys the dirty set: benchmark logs interleave several devices
// whose address ranges overlap, so replay state is partitioned per device.
type devLine struct {
	dev  uint64
	line int64
}

// DirtySet is the persistence model's state: every cache line stored through
// the cache and not yet covered by a persisting event. Apply is the model's
// one transition; the auditor and the Chrome exporter's dirty-line counter
// track both replay a stream through it.
type DirtySet struct{ lines map[devLine]dirtyInfo }

// NewDirtySet returns an empty set.
func NewDirtySet() *DirtySet { return &DirtySet{lines: map[devLine]dirtyInfo{}} }

// Len returns the number of dirty lines.
func (d *DirtySet) Len() int { return len(d.lines) }

// Apply advances the set across one event: a cached store dirties the lines
// it touches, a persisting event cleans them, a crash drops every line of
// its device (each handed to lost, when non-nil, as a LostLine without its
// Op, before it goes), and any other event — a fence, a fault, a lock wait —
// leaves it as it is. covered counts the lines in the event's range and
// clean how many of those were not dirty — a flush with clean == covered
// persisted nothing.
func (d *DirtySet) Apply(ev Event, lost func(LostLine)) (covered, clean int64) {
	switch ev.Kind {
	case KindStore, KindNTStore, KindStore64, KindCAS, KindZero, KindFlush:
		for lo := ev.Off / LineSize * LineSize; lo < ev.Off+ev.Len; lo += LineSize {
			k := devLine{ev.Dev, lo}
			_, dirty := d.lines[k]
			covered++
			if !dirty {
				clean++
			}
			if ev.Kind != KindStore {
				delete(d.lines, k)
			} else if !dirty {
				d.lines[k] = dirtyInfo{ts: ev.TS, tid: ev.TID, key: ev.Key}
			}
		}
	case KindCrash:
		for k, by := range d.lines {
			if k.dev != ev.Dev {
				continue // the power failure hit one device only
			}
			if lost != nil {
				lost(LostLine{Line: k.line, StoreTS: by.ts, TID: by.tid, Key: by.key, CrashSeq: ev.Seq})
			}
			delete(d.lines, k)
		}
	}
	return covered, clean
}

// Audit replays an event stream through the persistence model and reports
// lost-update risks, redundant persistence work and epoch shape; lock waits
// are not device events and are skipped. spans, when non-nil, attribute
// findings to file system operations.
func Audit(events []Event, spans []OpSpan) *Report {
	rep := &Report{
		RedundantFlushByOp: map[string]int64{},
		EmptyFenceByOp:     map[string]int64{},
	}
	idx := newSpanIndex(spans)
	if len(events) > 0 && events[0].Seq > 1 {
		rep.Dropped = true
	}
	dirty := NewDirtySet()

	var storesInEpoch int64 // stores since the last fence point
	var totalEpochStores int64
	var flushes, flushLines int64
	sawStoreSinceFence := false

	endEpoch := func() {
		rep.Epochs++
		totalEpochStores += storesInEpoch
		if storesInEpoch > rep.StoresPerEpochMax {
			rep.StoresPerEpochMax = storesInEpoch
		}
		storesInEpoch = 0
		sawStoreSinceFence = false
	}

	for _, ev := range events {
		if ev.Kind == KindLockWait {
			continue
		}
		rep.Events++
		switch ev.Kind {
		case KindStore:
			rep.Stores++
			storesInEpoch++
			sawStoreSinceFence = true
			dirty.Apply(ev, nil)

		case KindNTStore, KindStore64, KindCAS, KindZero:
			rep.NTStores++
			storesInEpoch++
			dirty.Apply(ev, nil)
			endEpoch()

		case KindFlush:
			rep.Flushes++
			flushes++
			covered, cleanCovered := dirty.Apply(ev, nil)
			flushLines += covered
			rep.RedundantFlushLines += cleanCovered
			if covered > 0 && cleanCovered == covered {
				rep.RedundantFlushes++
				rep.RedundantFlushByOp[opOrUnattributed(idx, ev)]++
			}
			endEpoch()

		case KindFence:
			rep.Fences++
			if !sawStoreSinceFence {
				rep.EmptyFences++
				rep.EmptyFenceByOp[opOrUnattributed(idx, ev)]++
			}
			endEpoch()

		case KindCrash:
			rep.Crashes++
			dirty.Apply(ev, func(l LostLine) {
				l.Op = idx.opAt(l.TID, l.StoreTS)
				rep.LostLines = append(rep.LostLines, l)
			})

		case KindCrashInject:
			rep.Injected++

		case KindViolation:
			rep.Violations++
		}
	}
	if rep.Epochs > 0 {
		rep.StoresPerEpochMean = float64(totalEpochStores) / float64(rep.Epochs)
	}
	if flushes > 0 {
		rep.FlushFanoutMean = float64(flushLines) / float64(flushes)
	}
	sort.Slice(rep.LostLines, func(i, j int) bool {
		if rep.LostLines[i].CrashSeq != rep.LostLines[j].CrashSeq {
			return rep.LostLines[i].CrashSeq < rep.LostLines[j].CrashSeq
		}
		return rep.LostLines[i].Line < rep.LostLines[j].Line
	})
	return rep
}

func opOrUnattributed(idx *spanIndex, ev Event) string {
	if op := idx.opAt(ev.TID, ev.TS); op != "" {
		return op
	}
	return "(unattributed)"
}

// WriteText renders the report as a human-readable summary.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "events: %d (stores %d, nt-stores %d, flushes %d, explicit fences %d)\n",
		r.Events, r.Stores, r.NTStores, r.Flushes, r.Fences)
	if r.Dropped {
		fmt.Fprintf(w, "WARNING: stream head missing (ring overflow without spill); dirty-state replay is incomplete\n")
	}
	fmt.Fprintf(w, "crashes: %d (injected %d)  mpk violations: %d\n", r.Crashes, r.Injected, r.Violations)
	fmt.Fprintf(w, "lost lines (dirty at crash, never flushed): %d\n", len(r.LostLines))
	for _, l := range r.LostLines {
		op := l.Op
		if op == "" {
			op = "(unattributed)"
		}
		fmt.Fprintf(w, "  line %#x  stored at t=%dns by tid %d key %d during %s (crash seq %d)\n",
			l.Line, l.StoreTS, l.TID, l.Key, op, l.CrashSeq)
	}
	fmt.Fprintf(w, "redundant flushes (all lines already clean): %d ops, %d clean lines clwb'd\n",
		r.RedundantFlushes, r.RedundantFlushLines)
	writeByOp(w, r.RedundantFlushByOp)
	fmt.Fprintf(w, "empty fences (ordered nothing): %d\n", r.EmptyFences)
	writeByOp(w, r.EmptyFenceByOp)
	fmt.Fprintf(w, "epochs: %d  stores/fence mean %.2f max %d  flush fan-out mean %.2f lines\n",
		r.Epochs, r.StoresPerEpochMean, r.StoresPerEpochMax, r.FlushFanoutMean)
}

func writeByOp(w io.Writer, m map[string]int64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-24s %d\n", name, m[name])
	}
}

// RepairSite is one repair an integrity checker (zofs fsck) performed after
// a crash, in device coordinates: Off is the repaired word/record, Target
// the page the dropped referent pointed at (0 if none).
type RepairSite struct {
	Off    int64  `json:"off"`
	Target int64  `json:"target"`
	Kind   string `json:"kind"`
}

// CrossCheck compares the auditor's lost-line report against the repairs an
// integrity checker performed on the post-crash image. It returns a list of
// disagreements (empty = the two views agree):
//
//   - a repair neither at a lost line nor referencing a page containing one
//     means fsck found damage the flight recorder cannot explain;
//   - any repair at all while the auditor saw zero lost lines means the
//     recorder missed a persistence hazard outright.
//
// The converse (lost lines with no repair) is NOT a disagreement: a lone
// unflushed line reverts to its last persisted — self-consistent — content,
// which is a lost update, not structural damage.
//
// Three repair kinds finish an op the crash cut between two persisted steps
// — sequence damage the stream explains by the crash event itself, not by
// lost lines — so they are exempt whenever the stream recorded a crash:
//
//   - "stale_ptr" undoes a block pointer published before its size commit;
//   - "coffer_ref" is the naming rule's: it sets a dentry's coffer field from
//     who owns its inode page (a split or merge cut before its dentry
//     update), or gives a published coffer its missing dentry (a create,
//     mkdir or rename cut before that dentry landed);
//   - "cross_ref" drops a dentry naming a coffer that is gone: an unlink or
//     rmdir of a coffer deletes the coffer in the kernel before it frees the
//     dentry, so a cut between the two leaves that dentry.
func CrossCheck(rep *Report, repairs []RepairSite) []string {
	var disagreements []string
	seqExplained := func(rp RepairSite) bool {
		switch rp.Kind {
		case "stale_ptr", "coffer_ref", "cross_ref":
			return rep.Crashes > 0 || rep.Injected > 0
		}
		return false
	}
	structural := 0
	for _, rp := range repairs {
		if !seqExplained(rp) {
			structural++
		}
	}
	if len(rep.LostLines) == 0 && structural > 0 {
		disagreements = append(disagreements,
			fmt.Sprintf("auditor reported 0 lost lines but fsck performed %d repair(s)", structural))
	}
	lostLines := map[int64]bool{}
	lostPages := map[int64]bool{}
	for _, l := range rep.LostLines {
		lostLines[l.Line] = true
		lostPages[l.Line/PageSize] = true
	}
	for _, rp := range repairs {
		if seqExplained(rp) {
			continue
		}
		if lostLines[rp.Off/LineSize*LineSize] || lostPages[rp.Off/PageSize] {
			continue // repair sits on lost state
		}
		if rp.Target != 0 && lostPages[rp.Target] {
			continue // repair dropped a reference into lost state
		}
		disagreements = append(disagreements,
			fmt.Sprintf("fsck repair %s at %#x (target page %d) matches no lost line", rp.Kind, rp.Off, rp.Target))
	}
	return disagreements
}
