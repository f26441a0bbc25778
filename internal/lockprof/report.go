package lockprof

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"zofs/internal/telemetry"
)

// LockRow is one named lock's statistics in a Report.
type LockRow struct {
	Lock      string `json:"lock"`
	Class     string `json:"class"`
	Real      bool   `json:"real,omitempty"`
	Overflow  bool   `json:"overflow,omitempty"`
	Acquires  int64  `json:"acquires"`
	Reads     int64  `json:"reads,omitempty"`
	Contended int64  `json:"contended"`
	WaitNS    int64  `json:"wait_ns"`
	MaxWaitNS int64  `json:"max_wait_ns"`
	WaitP50NS int64  `json:"wait_p50_ns"`
	WaitP99NS int64  `json:"wait_p99_ns"`
	HoldNS    int64  `json:"hold_ns"`
	MaxHoldNS int64  `json:"max_hold_ns"`
	HoldP50NS int64  `json:"hold_p50_ns"`
	HoldP99NS int64  `json:"hold_p99_ns"`
	LastTID   int64  `json:"last_holder_tid,omitempty"`
}

// EdgeRow is one wait-for edge: a thread holding From waited on To for
// WaitNS total across Count contended acquisitions.
type EdgeRow struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Count  int64  `json:"count"`
	WaitNS int64  `json:"wait_ns"`
}

// ThreadRow is one thread's blocked totals.
type ThreadRow struct {
	TID    int   `json:"tid"`
	Blocks int64 `json:"blocks"`
	WaitNS int64 `json:"wait_ns"`
}

// BlockedInterval is one blocked-on interval from the ring, in virtual time
// — the raw material for the Chrome trace's lock-wait lanes.
type BlockedInterval struct {
	TID       int    `json:"tid"`
	HolderTID int    `json:"holder_tid"`
	Lock      string `json:"lock"`
	StartNS   int64  `json:"start_ns"`
	DurNS     int64  `json:"dur_ns"`
}

// Report is a point-in-time rendering of a registry generation. The virtual
// conservation invariants (non-real lock waits sum exactly to WaitNS, holds
// to HoldNS, real waits to RealWaitNS) hold by construction and are enforced
// again by the OpenMetrics validator.
type Report struct {
	Acquires     int64       `json:"acquires"`
	Contended    int64       `json:"contended"`
	WaitNS       int64       `json:"wait_ns"`
	HoldNS       int64       `json:"hold_ns"`
	RealWaitNS   int64       `json:"real_wait_ns"`
	HeldNow      int64       `json:"held_now"`
	LocksDropped int64       `json:"locks_dropped,omitempty"`
	EdgesDropped int64       `json:"edges_dropped,omitempty"`
	Locks        []LockRow   `json:"locks"`
	Edges        []EdgeRow   `json:"edges,omitempty"`
	Inversions   []Inversion `json:"inversions,omitempty"`
	Threads      []ThreadRow `json:"threads,omitempty"`
}

// Snapshot renders the current generation. Safe to call concurrently with
// collection; counters are read atomically but not as one transaction, so
// exact conservation is guaranteed only at quiescence (which is when the
// gates read it).
func (r *Registry) Snapshot() Report {
	rs := r.state.Load()
	rep := Report{
		Acquires:     rs.acquires.Load(),
		Contended:    rs.contended.Load(),
		WaitNS:       rs.waitNS.Load(),
		HoldNS:       rs.holdNS.Load(),
		RealWaitNS:   rs.realWaitNS.Load(),
		HeldNow:      r.heldNow.Load(),
		LocksDropped: rs.dropped.Load(),
		EdgesDropped: rs.edgesDropped.Load(),
	}
	names := map[*entry]string{}
	rs.entries.Range(func(_, v any) bool {
		e := v.(*entry)
		names[e] = e.name()
		row := LockRow{
			Lock:      e.name(),
			Class:     e.class,
			Real:      e.real,
			Overflow:  e.other,
			Acquires:  e.acquires.Load(),
			Reads:     e.reads.Load(),
			Contended: e.contended.Load(),
			WaitNS:    e.waitNS.Load(),
			MaxWaitNS: e.maxWaitNS.Load(),
			HoldNS:    e.holdNS.Load(),
			MaxHoldNS: e.maxHoldNS.Load(),
			LastTID:   e.lastHolder.Load(),
		}
		if wc, _, wb := e.waitH.Snapshot(); wc > 0 {
			row.WaitP50NS = telemetry.Quantile(wb, wc, 0.50)
			row.WaitP99NS = telemetry.Quantile(wb, wc, 0.99)
		}
		if hc, _, hb := e.holdH.Snapshot(); hc > 0 {
			row.HoldP50NS = telemetry.Quantile(hb, hc, 0.50)
			row.HoldP99NS = telemetry.Quantile(hb, hc, 0.99)
		}
		rep.Locks = append(rep.Locks, row)
		return true
	})
	sort.Slice(rep.Locks, func(i, j int) bool {
		if rep.Locks[i].WaitNS != rep.Locks[j].WaitNS {
			return rep.Locks[i].WaitNS > rep.Locks[j].WaitNS
		}
		// Uncontended ties: busiest first, so the top of an idle report is
		// still the interesting part of it.
		if rep.Locks[i].Acquires != rep.Locks[j].Acquires {
			return rep.Locks[i].Acquires > rep.Locks[j].Acquires
		}
		return rep.Locks[i].Lock < rep.Locks[j].Lock
	})
	rs.edges.Range(func(k, v any) bool {
		ek, ed := k.(edgeKey), v.(*edge)
		rep.Edges = append(rep.Edges, EdgeRow{
			From:   names[ek.from],
			To:     names[ek.to],
			Count:  ed.count.Load(),
			WaitNS: ed.waitNS.Load(),
		})
		return true
	})
	sort.Slice(rep.Edges, func(i, j int) bool {
		if rep.Edges[i].WaitNS != rep.Edges[j].WaitNS {
			return rep.Edges[i].WaitNS > rep.Edges[j].WaitNS
		}
		return rep.Edges[i].From+"\x00"+rep.Edges[i].To < rep.Edges[j].From+"\x00"+rep.Edges[j].To
	})
	rs.invMu.Lock()
	rep.Inversions = append(rep.Inversions, rs.invs...)
	rs.invMu.Unlock()
	rs.thMu.Lock()
	for _, tr := range rs.threads {
		rep.Threads = append(rep.Threads, ThreadRow{TID: tr.tid, Blocks: tr.blocks.Load(), WaitNS: tr.waitNS.Load()})
	}
	rs.thMu.Unlock()
	sort.Slice(rep.Threads, func(i, j int) bool {
		if rep.Threads[i].WaitNS != rep.Threads[j].WaitNS {
			return rep.Threads[i].WaitNS > rep.Threads[j].WaitNS
		}
		return rep.Threads[i].TID < rep.Threads[j].TID
	})
	return rep
}

// Blocked copies out the blocked-interval ring, oldest first.
func (r *Registry) Blocked() []BlockedInterval {
	return r.blocked(func(blockedRec) bool { return true })
}

// BlockedIn returns tid's blocked intervals overlapping [t0, t1], oldest
// first — the spans layer pulls these when capturing a worst-op exemplar to
// blame the contended locks (and their holders) behind a tail latency.
func (r *Registry) BlockedIn(tid int, t0, t1 int64) []BlockedInterval {
	if r == nil {
		return nil
	}
	return r.blocked(func(b blockedRec) bool {
		return b.tid == tid && b.start <= t1 && b.start+b.dur >= t0
	})
}

func (r *Registry) blocked(keep func(blockedRec) bool) []BlockedInterval {
	rs := r.state.Load()
	rs.ringMu.Lock()
	defer rs.ringMu.Unlock()
	var out []BlockedInterval
	start := 0
	if rs.ringLen == len(rs.ring) {
		start = rs.ringPos
	}
	for i := 0; i < rs.ringLen; i++ {
		if b := rs.ring[(start+i)%len(rs.ring)]; keep(b) {
			out = append(out, BlockedInterval{
				TID: b.tid, HolderTID: b.holder, Lock: b.e.name(),
				StartNS: b.start, DurNS: b.dur,
			})
		}
	}
	return out
}

// TopLocks returns the n most-contended virtual locks by total wait.
func (rep Report) TopLocks(n int) []LockRow {
	var out []LockRow
	for _, l := range rep.Locks {
		if l.Real || l.WaitNS == 0 {
			continue
		}
		out = append(out, l)
		if len(out) == n {
			break
		}
	}
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// WriteText renders the human-readable contention report: per-lock table,
// wait-for edges, inversions and the most-blocked threads.
func (rep Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "named locks: %d acquires, %d contended, wait %.3f ms virtual (+%.3f ms real), hold %.3f ms, held now %d\n",
		rep.Acquires, rep.Contended, ms(rep.WaitNS), ms(rep.RealWaitNS), ms(rep.HoldNS), rep.HeldNow)
	if rep.LocksDropped > 0 || rep.EdgesDropped > 0 {
		fmt.Fprintf(w, "  (bounded: %d acquisitions folded into ~other rows, %d edges dropped)\n",
			rep.LocksDropped, rep.EdgesDropped)
	}
	t := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(t, "lock\tacq\tcont\twait ms\tp50 µs\tp99 µs\tmax µs\thold ms\tlast tid")
	shown := 0
	for _, l := range rep.Locks {
		if l.Acquires == 0 {
			continue
		}
		name := l.Lock
		if l.Real {
			name += " (real)"
		}
		fmt.Fprintf(t, "%s\t%d\t%d\t%.3f\t%.1f\t%.1f\t%.1f\t%.3f\t%d\n",
			name, l.Acquires, l.Contended, ms(l.WaitNS),
			float64(l.WaitP50NS)/1e3, float64(l.WaitP99NS)/1e3, float64(l.MaxWaitNS)/1e3,
			ms(l.HoldNS), l.LastTID)
		if shown++; shown == 20 {
			break
		}
	}
	if err := t.Flush(); err != nil {
		return err
	}
	if len(rep.Edges) > 0 {
		fmt.Fprintln(w, "\nwait-for edges (held -> wanted, by total wait):")
		t = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(t, "held\twanted\twaits\twait ms")
		for i, e := range rep.Edges {
			fmt.Fprintf(t, "%s\t%s\t%d\t%.3f\n", e.From, e.To, e.Count, ms(e.WaitNS))
			if i == 14 {
				break
			}
		}
		if err := t.Flush(); err != nil {
			return err
		}
	}
	for _, inv := range rep.Inversions {
		fmt.Fprintf(w, "\nLOCK-ORDER INVERSION: %s <-> %s\n", inv.A, inv.B)
		fmt.Fprintf(w, "  tid %d held %v then acquired %s\n", inv.Forward.TID, inv.Forward.Held, inv.Forward.Acquired)
		fmt.Fprintf(w, "  tid %d held %v then acquired %s\n", inv.Backward.TID, inv.Backward.Held, inv.Backward.Acquired)
	}
	if len(rep.Threads) > 0 {
		fmt.Fprintln(w, "\nmost-blocked threads:")
		t = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(t, "tid\tblocks\twait ms")
		for i, th := range rep.Threads {
			if th.Blocks == 0 {
				break
			}
			fmt.Fprintf(t, "%d\t%d\t%.3f\n", th.TID, th.Blocks, ms(th.WaitNS))
			if i == 9 {
				break
			}
		}
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// shardPrefix names the per-shard allocator locks. There is one instance per
// allocator shard and they are interchangeable transient leaves, so the DOT
// rendering folds them into a single annotated node — sixteen identical boxes
// say nothing one box with a shard count doesn't, and they drown the rest of
// the graph.
const shardPrefix = "kernfs.freeshard/"

const shardNode = shardPrefix + "*"

func foldShard(name string) string {
	if strings.HasPrefix(name, shardPrefix) {
		return shardNode
	}
	return name
}

// WriteDOT renders the wait-for graph in Graphviz dot form: nodes are named
// locks sized by total wait, edges are hold-while-waiting relations, and
// classes involved in an order inversion are drawn red. Per-shard allocator
// locks (kernfs.freeshard/<i>) collapse into one kernfs.freeshard/* node
// carrying the shard count and their aggregated wait.
func (rep Report) WriteDOT(w io.Writer) error {
	inverted := map[string]bool{}
	for _, inv := range rep.Inversions {
		inverted[inv.A], inverted[inv.B] = true, true
	}
	fmt.Fprintln(w, "digraph waitfor {")
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, fontname=\"monospace\"];")

	type edgeKey struct{ from, to string }
	nodes := map[string]bool{}
	edges := map[edgeKey]EdgeRow{}
	var edgeOrder []edgeKey
	for _, e := range rep.Edges {
		from, to := foldShard(e.From), foldShard(e.To)
		nodes[from], nodes[to] = true, true
		k := edgeKey{from, to}
		if _, ok := edges[k]; !ok {
			edgeOrder = append(edgeOrder, k)
		}
		agg := edges[k]
		agg.From, agg.To = from, to
		agg.Count += e.Count
		agg.WaitNS += e.WaitNS
		edges[k] = agg
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	// Fold the per-shard lock rows the same way so the aggregate node can
	// report total wait, the shard population and any inversion involving a
	// shard class.
	byName := map[string]LockRow{}
	shards := map[string]bool{}
	shardInverted := false
	for _, l := range rep.Locks {
		name := foldShard(l.Lock)
		if name == shardNode {
			shards[l.Lock] = true
			if inverted[l.Class] {
				shardInverted = true
			}
		}
		agg := byName[name]
		agg.Lock, agg.Class = name, l.Class
		agg.WaitNS += l.WaitNS
		byName[name] = agg
	}
	for _, n := range order {
		attr := ""
		label := fmt.Sprintf("%s\\nwait %.3f ms", n, ms(byName[n].WaitNS))
		if n == shardNode {
			label = fmt.Sprintf("%s (%d shards)\\nwait %.3f ms", n, len(shards), ms(byName[n].WaitNS))
			if shardInverted {
				attr = ", color=red"
			}
		} else if inverted[byName[n].Class] {
			attr = ", color=red"
		}
		fmt.Fprintf(w, "  %q [label=\"%s\"%s];\n", n, label, attr)
	}
	for _, k := range edgeOrder {
		e := edges[k]
		fmt.Fprintf(w, "  %q -> %q [label=\"%d waits / %.3f ms\"];\n", e.From, e.To, e.Count, ms(e.WaitNS))
	}
	fmt.Fprintln(w, "}")
	return nil
}
