package zofs

import (
	"bytes"
	"fmt"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

func TestInlineDataRoundTrip(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{InlineData: true})
	h, err := f.Create(th, "/small", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("tiny config file contents")
	if _, err := h.WriteAt(th, data, 0); err != nil {
		t.Fatal(err)
	}
	// The file must occupy NO data pages (inode only).
	pos, err := f.walk(th, "/small", true, false)
	if err != nil {
		t.Fatal(err)
	}
	if !f.isInline(th, pos.ino) {
		t.Fatal("small file not inlined")
	}
	if pages := f.filePages(th, pos.ino, nil); len(pages) != 0 {
		t.Fatalf("inline file owns %d data pages", len(pages))
	}
	pos.close()
	out := make([]byte, len(data))
	if n, err := h.ReadAt(th, out, 0); err != nil || n != len(data) || !bytes.Equal(out, data) {
		t.Fatalf("inline read = %d %q %v", n, out, err)
	}
	// Partial overwrite within the inline area.
	h.WriteAt(th, []byte("TINY"), 0)
	h.ReadAt(th, out, 0)
	if string(out[:4]) != "TINY" {
		t.Fatalf("inline overwrite = %q", out)
	}
}

func TestInlineDeInlineOnGrowth(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{InlineData: true})
	h, _ := f.Create(th, "/grow", 0o644)
	small := bytes.Repeat([]byte{7}, 500)
	h.WriteAt(th, small, 0)
	// Grow past the inline capacity: content must migrate intact.
	big := bytes.Repeat([]byte{9}, 3000)
	if _, err := h.WriteAt(th, big, 500); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 3500)
	if n, err := h.ReadAt(th, out, 0); err != nil || n != 3500 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if !bytes.Equal(out[:500], small) || !bytes.Equal(out[500:], big) {
		t.Fatal("content lost during de-inline")
	}
	pos, _ := f.walk(th, "/grow", true, false)
	if f.isInline(th, pos.ino) {
		t.Fatal("grown file still flagged inline")
	}
	pos.close()
}

func TestInlineTruncate(t *testing.T) {
	_, _, f, th := newTestFS(t, Options{InlineData: true})
	h, _ := f.Create(th, "/t", 0o644)
	h.WriteAt(th, bytes.Repeat([]byte{5}, 800), 0)
	// Shrink, then grow within inline: tail must be zeros.
	f.Truncate(th, "/t", 100)
	f.Truncate(th, "/t", 600)
	out := make([]byte, 600)
	h.ReadAt(th, out, 0)
	for i := 100; i < 600; i++ {
		if out[i] != 0 {
			t.Fatalf("byte %d = %d after shrink+grow", i, out[i])
		}
	}
	// Grow past the cap via truncate.
	if err := f.Truncate(th, "/t", 5000); err != nil {
		t.Fatal(err)
	}
	fi, _ := f.Stat(th, "/t")
	if fi.Size != 5000 {
		t.Fatalf("size = %d", fi.Size)
	}
}

func TestInlineSurvivesCrashAndFsck(t *testing.T) {
	dev, k, f, th := newTestFS(t, Options{InlineData: true})
	h, _ := f.Create(th, "/cfg", 0o644)
	h.WriteAt(th, []byte("persist-me"), 0)
	dev.Crash()
	ResetShared(dev)
	_ = k
	k2, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	th2 := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k2.FSMount(th2); err != nil {
		t.Fatal(err)
	}
	if _, err := FsckAll(k2, th2); err != nil {
		t.Fatal(err)
	}
	f2 := New(k2, Options{InlineData: true})
	h2, err := f2.Open(th2, "/cfg", vfs.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 10)
	if n, _ := h2.ReadAt(th2, out, 0); n != 10 || string(out) != "persist-me" {
		t.Fatalf("inline data lost: %q", out[:n])
	}
}

func TestInlineCheaperThanPaged(t *testing.T) {
	// The ablation claim: small-file create+write is cheaper inlined.
	cost := func(opts Options) int64 {
		_, _, f, th := newTestFS(t, opts)
		w := th.Proc.NewThread()
		w.Clk.AdvanceTo(th.Clk.Now())
		start := w.Clk.Now()
		const n = 100
		for i := 0; i < n; i++ {
			h, err := f.Create(w, fmt.Sprintf("/s%04d", i), 0o644)
			if err != nil {
				t.Fatal(err)
			}
			h.WriteAt(w, make([]byte, 256), 0)
			h.Close(w)
		}
		return (w.Clk.Now() - start) / n
	}
	paged := cost(Options{})
	inline := cost(Options{InlineData: true})
	if inline >= paged {
		t.Fatalf("inline (%d ns) should beat paged (%d ns) for small files", inline, paged)
	}
}

func TestChmodMergesCofferBack(t *testing.T) {
	_, k, f, th := newTestFS(t, Options{})
	h, err := f.Create(th, "/sec", 0o600) // own coffer (root is 0755)
	if err != nil {
		t.Fatal(err)
	}
	h.WriteAt(th, bytes.Repeat([]byte{3}, 3*4096), 0)
	h.Close(th)
	if _, ok := k.LookupPath(nil, "/sec"); !ok {
		t.Fatal("setup: /sec should be its own coffer")
	}
	before := len(k.Coffers())
	// Restoring the parent's permission class merges the coffer back.
	if err := f.Chmod(th, "/sec", 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.LookupPath(nil, "/sec"); ok {
		t.Fatal("coffer survived merge-back")
	}
	if got := len(k.Coffers()); got != before-1 {
		t.Fatalf("coffer count %d, want %d", got, before-1)
	}
	// Content intact through the merge.
	h2, err := f.Open(th, "/sec", vfs.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 3*4096)
	if n, err := h2.ReadAt(th, out, 0); err != nil || n != len(out) || out[0] != 3 || out[len(out)-1] != 3 {
		t.Fatalf("post-merge read: n=%d err=%v", n, err)
	}
	fi, _ := f.Stat(th, "/sec")
	if fi.Mode != 0o644 {
		t.Fatalf("mode = %o", fi.Mode)
	}
}
