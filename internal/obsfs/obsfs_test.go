package obsfs_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"zofs/internal/fslibs"
	"zofs/internal/fxmark"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/obsfs"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/sysfactory"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// stack is a formatted, mounted device with telemetry and byte-flow
// accounting on, and the thread every test op runs on.
type stack struct {
	dev *nvm.Device
	k   *kernfs.KernFS
	th  *proc.Thread
}

func newStack(t *testing.T) stack {
	t.Helper()
	dev := nvm.NewDevice(128 << 20)
	dev.SetRecorder(telemetry.New())
	dev.EnableAccounting()
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	return stack{dev, k, proc.NewProcess(dev, 0, 0).NewThread()}
}

// collectors switches spans and series on for the test; threads created
// afterwards attach to them.
func collectors(t *testing.T) (*spans.Collector, *series.Collector) {
	t.Helper()
	prevSpans, prevSeries := spans.Active(), series.Active()
	t.Cleanup(func() { spans.Install(prevSpans); series.Install(prevSeries) })
	return spans.Enable(spans.Config{}), series.Enable(series.Config{})
}

const payload = 4096

// viaWrap drives the mixed sequence through Wrap over a bare zofs.FS.
func viaWrap(t *testing.T, s stack) {
	t.Helper()
	if err := s.k.FSMount(s.th); err != nil {
		t.Fatal(err)
	}
	z := zofs.New(s.k, zofs.Options{})
	if err := z.EnsureRootDir(s.th); err != nil {
		t.Fatal(err)
	}
	fs, th, buf := obsfs.Wrap(z, nil), s.th, make([]byte, payload)
	if fs == vfs.FileSystem(z) {
		t.Fatal("Wrap returned its argument with collectors on")
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fs.Mkdir(th, "/d", 0o755))
	for _, name := range []string{"/d/a", "/d/b"} {
		h, err := fs.Create(th, name, 0o644)
		must(err)
		_, err = h.WriteAt(th, buf, 0)
		must(err)
		_, err = h.ReadAt(th, buf, 0)
		must(err)
		must(h.Close(th))
	}
	_, err := fs.Stat(th, "/d/a")
	must(err)
	must(fs.Rename(th, "/d/a", "/d/c"))
	_, err = fs.ReadDir(th, "/d")
	must(err)
	must(fs.Unlink(th, "/d/b"))
	if _, err := fs.Stat(th, "/d/b"); err == nil {
		t.Fatal("stat of an unlinked file succeeded")
	}
}

// viaLib drives the same sequence through the FSLibs dispatcher.
func viaLib(t *testing.T, s stack) {
	t.Helper()
	l, err := fslibs.Mount(s.k, s.th, fslibs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ZoFS().EnsureRootDir(s.th); err != nil {
		t.Fatal(err)
	}
	th, buf := s.th, make([]byte, payload)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.Mkdir(th, "/d", 0o755))
	for _, name := range []string{"/d/a", "/d/b"} {
		fd, err := l.Open(th, name, vfs.O_CREATE|vfs.O_RDWR, 0o644)
		must(err)
		_, err = l.Pwrite(th, fd, buf, 0)
		must(err)
		_, err = l.Pread(th, fd, buf, 0)
		must(err)
		must(l.Close(th, fd))
	}
	_, err = l.Stat(th, "/d/a")
	must(err)
	must(l.Rename(th, "/d/a", "/d/c"))
	_, err = l.ReadDir(th, "/d")
	must(err)
	must(l.Unlink(th, "/d/b"))
	if _, err := l.Stat(th, "/d/b"); err == nil {
		t.Fatal("stat of an unlinked file succeeded")
	}
}

// TestBeginFeedsSpansAndSeries: whichever way the ops come in — Wrap over a
// bare file system or the FSLibs dispatcher — the span collector's per-op
// record and the series windows hold the same count and latency sum for
// every op kind, because obsfs.Begin is the only thing that feeds them; and
// the application's bytes are credited once.
func TestBeginFeedsSpansAndSeries(t *testing.T) {
	for _, route := range []struct {
		name  string
		drive func(*testing.T, stack)
	}{{"Wrap", viaWrap}, {"fslibs", viaLib}} {
		t.Run(route.name, func(t *testing.T) {
			col, sc := collectors(t)
			s := newStack(t)
			route.drive(t, s)

			windowed := map[string]series.OpWindow{}
			for _, w := range sc.Windows() {
				for op, ow := range w.Ops {
					f := windowed[op]
					f.Count += ow.Count
					f.SumNS += ow.SumNS
					windowed[op] = f
				}
			}
			span := col.Snapshot().Ops
			if len(span) < 8 || len(windowed) != len(span) {
				t.Fatalf("op kinds: spans %d, series %d (want the same, at least 8)", len(span), len(windowed))
			}
			for op, o := range span {
				if w := windowed[op]; w.Count != o.Count || w.SumNS != o.SumNS {
					t.Errorf("%s: spans %d ops / %d ns, series %d / %d", op, o.Count, o.SumNS, w.Count, w.SumNS)
				}
			}
			if col.OpenRoots() != 0 || col.DoubleCloses() != 0 {
				t.Errorf("%d roots open, %d double closes", col.OpenRoots(), col.DoubleCloses())
			}
			if app := s.dev.FlowSnapshot().App; app != 2*payload {
				t.Errorf("app bytes = %d, want %d (two %d-byte writes, credited once each)", app, 2*payload, payload)
			}
		})
	}
}

// TestCrashInjectedOpClosesItsRoot: the panic of an injected crash unwinds
// through the wrapper's deferred close, so no root span is left open.
func TestCrashInjectedOpClosesItsRoot(t *testing.T) {
	col, _ := collectors(t)
	s := newStack(t)
	if err := s.k.FSMount(s.th); err != nil {
		t.Fatal(err)
	}
	z := zofs.New(s.k, zofs.Options{})
	if err := z.EnsureRootDir(s.th); err != nil {
		t.Fatal(err)
	}
	fs := obsfs.Wrap(z, nil)
	s.dev.FailAfter(1)
	func() {
		defer func() {
			if r := recover(); !nvm.IsInjectedCrash(r) {
				t.Fatalf("create did not crash: recovered %v", r)
			}
		}()
		fs.Create(s.th, "/victim", 0o644)
	}()
	s.dev.FailAfter(0)
	if open := col.OpenRoots(); open != 0 {
		t.Fatalf("%d root spans left open by the crashed op", open)
	}
	if got := col.Snapshot().Ops["create"].Count; got != 1 {
		t.Fatalf("crashed create folded %d times, want 1", got)
	}
}

// TestWrapIsIdentityWhenOff: with every collector off the wrapper costs
// nothing because there is none.
func TestWrapIsIdentityWhenOff(t *testing.T) {
	prevSpans, prevSeries := spans.Active(), series.Active()
	defer func() { spans.Install(prevSpans); series.Install(prevSeries) }()
	spans.Disable()
	series.Disable()
	in, err := sysfactory.ZoFS.New(64<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	if obsfs.Wrap(in.FS, nil) != in.FS {
		t.Fatal("Wrap wrapped with telemetry, spans, series and accounting all off")
	}
}

// TestFinalDocumentCarriesEveryPanel: a session over a contended four-thread
// cell, stopped, leaves a last obs.json with every panel that was on — spans,
// byte flow, coffer space, locks, series — whose lock panel accounts for the
// span collector's lock wait to the nanosecond, and which the validator
// accepts. (The three publishers this replaced tore down in an order that
// dropped the lock panel from the final document.)
func TestFinalDocumentCarriesEveryPanel(t *testing.T) {
	dir := t.TempDir()
	sess, err := obsfs.Start(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := spans.Active()
	in, err := sysfactory.ZoFS.New(256<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	in.Dev.EnableAccounting()
	env := &fxmark.Env{FS: obsfs.Wrap(in.FS, nil), Proc: in.Proc, SetConcurrency: in.SetConcurrency}
	if _, err := fxmark.Run(env, fxmark.DWOM, 4, 250_000); err != nil {
		t.Fatal(err)
	}
	final, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if spans.Active() == col {
		t.Fatal("the session's span collector is still installed after Stop")
	}

	doc, err := obsfs.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Spans == nil || doc.Flow == nil || len(doc.Space) == 0 || doc.Locks == nil || doc.Series == nil {
		t.Fatalf("final %s lacks a panel: spans %v flow %v space %d locks %v series %v", obsfs.DocFile,
			doc.Spans != nil, doc.Flow != nil, len(doc.Space), doc.Locks != nil, doc.Series != nil)
	}
	if doc.Spans.Finished == 0 || doc.Spans.Finished != final.Spans.Finished ||
		doc.Series.Observations != doc.Spans.Finished {
		t.Errorf("spans finished: file %d, returned %d; series observations %d",
			doc.Spans.Finished, final.Spans.Finished, doc.Series.Observations)
	}
	if w := col.LockWaitNS(); w == 0 || doc.Locks.WaitNS != w || doc.Spans.LockWaitNS != w {
		t.Errorf("lock wait: collector %d ns, lock panel %d ns, span panel %d ns", w, doc.Locks.WaitNS, doc.Spans.LockWaitNS)
	}
	if doc.Flow.App == 0 {
		t.Error("flow panel saw no application bytes")
	}

	if err := doc.Validate(); err != nil {
		t.Errorf("final %s: %v", obsfs.DocFile, err)
	}
	// Validate runs every panel's check: one tampered value in any fails it.
	for name, tamper := range map[string]func(d *obsfs.Doc){
		"telemetry": func(d *obsfs.Doc) { d.Telemetry.Counters["nvm.bytes_written"] = -1 },
		"spans": func(d *obsfs.Doc) {
			for _, b := range d.Spans.Ops {
				b.Comp["media"] = spans.CompStat{Pct: b.Comp["media"].Pct + 50}
			}
		},
		"flow":   func(d *obsfs.Doc) { d.Flow.Total++ },
		"locks":  func(d *obsfs.Doc) { d.Locks.WaitNS++ },
		"series": func(d *obsfs.Doc) { d.Series.Observations++ },
	} {
		d, err := obsfs.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		tamper(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("a tampered %s panel validates", name)
		}
	}
	for _, name := range []string{obsfs.SpansLog, obsfs.EventsLog, obsfs.SeriesLog, obsfs.ExemplarsLog} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", name, err)
		}
	}
	// The event log carries every wait the lock panel counted.
	f, err := os.Open(filepath.Join(dir, obsfs.EventsLog))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obsfs.ReadJSONL[pmemtrace.Event](f)
	if err != nil {
		t.Fatal(err)
	}
	var waited int64
	for _, ev := range events {
		if ev.Kind == pmemtrace.KindLockWait {
			waited += ev.Len
		}
	}
	if waited != doc.Locks.WaitNS || pmemtrace.Active() != nil {
		t.Errorf("%s: lock waits sum to %d ns, the lock panel says %d; recorder still installed: %v",
			obsfs.EventsLog, waited, doc.Locks.WaitNS, pmemtrace.Active() != nil)
	}
}

// TestCellsAreCutPerInterval: a cell holds what telemetry and spans recorded
// since the previous cut — or since WriteCells, so that what ran between two
// experiments' cells is billed to neither — plus the caller's scalars; the
// cell log in the directory is the cells, whole, after every publish.
func TestCellsAreCutPerInterval(t *testing.T) {
	work := func() {
		t.Helper()
		in, err := sysfactory.ZoFS.New(64<<20, false)
		if err != nil {
			t.Fatal(err)
		}
		fs, th := obsfs.Wrap(in.FS, nil), in.Proc.NewThread()
		for _, name := range []string{"/a", "/b"} {
			h, err := fs.Create(th, name, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.WriteAt(th, make([]byte, payload), 0); err != nil {
				t.Fatal(err)
			}
			h.Close(th)
		}
	}
	cut := func(uncutWorkFirst bool) obsfs.Cell {
		t.Helper()
		dir := t.TempDir()
		sess, err := obsfs.Start(dir)
		if err != nil {
			t.Fatal(err)
		}
		if uncutWorkFirst {
			work()
			var none strings.Builder
			if err := sess.WriteCells(&none); err != nil || none.Len() != 0 {
				t.Fatalf("WriteCells with no cell cut printed %q (%v)", none.String(), err)
			}
		}
		work()
		obsfs.EndCell("first", map[string]int64{"answer": 42})
		work()
		work()
		obsfs.EndCell("second", nil)
		var out strings.Builder
		if err := sess.WriteCells(&out); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"[stats first]", "[spans first]", "answer", "[stats second]"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("WriteCells output lacks %q:\n%s", want, out.String())
			}
		}
		if _, err := sess.Stop(); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(filepath.Join(dir, obsfs.CellsLog))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cells, err := obsfs.ReadJSONL[obsfs.Cell](f)
		if err != nil || len(cells) != 2 || cells[0].Label != "first" || cells[1].Label != "second" {
			t.Fatalf("%s: %d cells (%v)", obsfs.CellsLog, len(cells), err)
		}
		if w1, w2 := cells[0].Spans.Ops["write"].Count, cells[1].Spans.Ops["write"].Count; w1 != 2 || w2 != 4 ||
			cells[1].Spans.Finished != 2*cells[0].Spans.Finished || cells[0].Extra["answer"] != 42 {
			t.Errorf("first cell %d writes, second %d; spans %d and %d; extra %v",
				w1, w2, cells[0].Spans.Finished, cells[1].Spans.Finished, cells[0].Extra)
		}
		return cells[0]
	}
	alone, after := cut(false), cut(true)
	if !reflect.DeepEqual(alone.Metrics.Counters, after.Metrics.Counters) || alone.Spans.Finished != after.Spans.Finished {
		t.Errorf("the work before the first cell's interval was billed to it:\nalone %v\nafter %v",
			alone.Metrics.Counters, after.Metrics.Counters)
	}
	obsfs.EndCell("no session", nil) // nothing to cut into: a no-op
}
