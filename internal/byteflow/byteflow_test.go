package byteflow

import (
	"bytes"
	"strings"
	"testing"
)

// sample is a reconciling ledger: 4096 app bytes became 4096 data bytes
// (nt-stored) plus 192 inode and 64 dentry bytes issued through the cache,
// of which five lines were flushed.
func sample() *Flow {
	f := &Flow{App: 4096, Total: 4352, Flushes: 3, Fences: 4, LineSize: 64}
	f.Issued[ClassData], f.NT[ClassData] = 4096, 4096
	f.Issued[ClassInode], f.Lines[ClassInode] = 192, 4
	f.Issued[ClassDentry], f.Lines[ClassDentry] = 64, 1
	return f
}

func TestFlowArithmetic(t *testing.T) {
	f := sample()
	if got := f.IssuedTotal(); got != 4352 {
		t.Errorf("IssuedTotal = %d, want 4352", got)
	}
	if got := f.MediaBytes(); got != 4096+5*64 {
		t.Errorf("MediaBytes = %d, want %d (nt bytes plus a whole line per flushed line)", got, 4096+5*64)
	}
	if got, want := f.WA(), float64(4096+5*64)/4096; got != want {
		t.Errorf("WA = %v, want %v", got, want)
	}
	if got := (&Flow{Total: 64}).WA(); got != 0 {
		t.Errorf("WA with no app bytes = %v, want 0", got)
	}
	if got := FragScore(1, 100); got != 0 {
		t.Errorf("one extent scores %v, want 0", got)
	}
	if got := FragScore(100, 100); got != 1 {
		t.Errorf("every page its own extent scores %v, want 1", got)
	}
}

func TestConserved(t *testing.T) {
	if err := sample().Conserved(); err != nil {
		t.Fatalf("reconciling flow rejected: %v", err)
	}
	leak := sample()
	leak.Total++ // a byte the device counted and no class claims
	if err := leak.Conserved(); err == nil {
		t.Error("classes summing short of the issued total accepted")
	}
	short := sample()
	short.App = short.Total + 1
	if err := short.Conserved(); err == nil {
		t.Error("a file system issuing fewer bytes than the application wrote accepted")
	}
}

func TestSub(t *testing.T) {
	prev, cur := sample(), sample()
	cur.App += 100
	cur.Total += 164
	cur.Issued[ClassData] += 100
	cur.NT[ClassData] += 100
	cur.Issued[ClassAlloc] += 64
	cur.Lines[ClassAlloc]++
	cur.Flushes++
	d := cur.Sub(prev)
	want := &Flow{App: 100, Total: 164, Flushes: 1, LineSize: 64}
	want.Issued[ClassData], want.NT[ClassData] = 100, 100
	want.Issued[ClassAlloc], want.Lines[ClassAlloc] = 64, 1
	if *d != *want {
		t.Errorf("Sub = %+v, want %+v", *d, *want)
	}
	if err := d.Conserved(); err != nil {
		t.Errorf("interval of two reconciling flows does not reconcile: %v", err)
	}
	if whole := cur.Sub(nil); *whole != *cur || whole == cur {
		t.Errorf("Sub(nil) = %+v, want a copy of the receiver", *whole)
	}
}

// TestRenderers: the text tables name only the classes that moved bytes and
// every coffer's space row.
func TestRenderers(t *testing.T) {
	var text bytes.Buffer
	if err := sample().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := (Space{{ID: 7, Path: "/", Pages: 16, Used: 9, FreeListed: 4, Cached: 3, Extents: 2, Frag: FragScore(2, 16)}}).WriteText(&text); err != nil {
		t.Fatal(err)
	}
	got := text.String()
	for _, want := range []string{"byte flow: app 4096  issued 4352  media 4416  WA 1.08", "data", "inode", "dentry", "coffer space:", "0.067"} {
		if !strings.Contains(got, want) {
			t.Errorf("text lacks %q:\n%s", want, got)
		}
	}
	for _, idle := range []string{"journal", "alloc", "other"} {
		if strings.Contains(got, idle) {
			t.Errorf("text lists idle class %q:\n%s", idle, got)
		}
	}
}
