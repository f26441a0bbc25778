package kernfs

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/telemetry"
)

// scribble fills every page of pages with nonzero bytes, as a coffer's owner
// writing its grant.
func scribble(th *proc.Thread, dev *nvm.Device, pages []int64) {
	junk := bytes.Repeat([]byte{0xA5}, nvm.PageSize)
	for _, pg := range pages {
		dev.WriteNT(th.Clk, pg*nvm.PageSize, junk)
	}
}

// readZero fails the test unless every page of pages reads zero.
func readZero(t *testing.T, dev *nvm.Device, pages []int64, what string) {
	t.Helper()
	var zero [nvm.PageSize]byte
	for _, pg := range pages {
		if v, _ := dev.ReadViewNoCharge(pg*nvm.PageSize, nvm.PageSize); !bytes.Equal(v, zero[:]) {
			t.Fatalf("%s: page %d holds old bytes", what, pg)
		}
	}
}

// zeroedSlots counts the allocation-table slots that carry slotZeroed.
func zeroedSlots(k *KernFS) int64 {
	var n int64
	k.space.eachSlot(k.dev.ReadNoCharge, func(_ int64, slot []byte) error {
		if slotFlagged(slot) {
			n++
		}
		return nil
	})
	return n
}

// TestZeroedFlagCrashPoints crashes a metadata grant, and a coffer_new, whose
// caller then writes every granted page, before and after each persisting
// store. After every remount the space check holds and each page whose slot
// is still flagged zeroed reads zero: no crash leaves the flag on a page that
// may hold a byte. (It fails if a grant's table write keeps the flag.)
func TestZeroedFlagCrashPoints(t *testing.T) {
	calls := []struct {
		name string
		run  func(k *KernFS, th *proc.Thread, id coffer.ID) error
	}{
		{"CofferEnlarge", func(k *KernFS, th *proc.Thread, id coffer.ID) error {
			grant, err := k.CofferEnlarge(th, id, 8, true)
			if err == nil {
				scribble(th, k.dev, flatten(grant))
			}
			return err
		}},
		{"CofferNew", func(k *KernFS, th *proc.Thread, id coffer.ID) error {
			nid, err := k.CofferNew(th, id, "/z/new", coffer.TypeZoFS, 0o755, 0, 0, 3)
			if err == nil {
				rp, _ := k.Info(nid)
				scribble(th, k.dev, []int64{rp.RootInode, rp.Custom})
			}
			return err
		}},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			states := 0
			for _, before := range []bool{true, false} {
				for n := int64(1); ; n++ {
					states++
					if crashZeroedAt(t, c.run, n, before) {
						break
					}
				}
			}
			if states < 6 {
				t.Fatalf("only %d crash states", states)
			}
		})
	}
}

// crashZeroedAt runs call with a crash armed at its n-th persisting store on
// the given edge, remounts and checks the flag. It reports whether the call
// ran to the end without reaching that store.
func crashZeroedAt(t *testing.T, call func(*KernFS, *proc.Thread, coffer.ID) error, n int64, before bool) (done bool) {
	t.Helper()
	dev, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	id, _ := cofferWithPages(t, k, th, k.RootCoffer(), "/z", 0)
	if before {
		dev.FailAtStart(n)
	} else {
		dev.FailAfter(n)
	}
	func() {
		defer func() {
			if r := recover(); r != nil && !nvm.IsInjectedCrash(r) {
				panic(r)
			} else if r == nil {
				done = true
			}
		}()
		if err := call(k, th, id); err != nil {
			t.Fatal(err)
		}
	}()
	dev.FailAfter(0)
	dev.Crash()
	k2, err := Mount(dev)
	if err != nil {
		t.Fatalf("crash at store %d (before=%v): remount: %v", n, before, err)
	}
	if err := k2.VerifySpace(); err != nil {
		t.Fatalf("crash at store %d (before=%v): %v", n, before, err)
	}
	if err := k2.VerifyZeroed(); err != nil {
		t.Fatalf("crash at store %d (before=%v): %v", n, before, err)
	}
	return done
}

// TestReleasedPagesAreScrubbedOnRegrant grants pages, writes them and
// releases them by each path that frees pages — coffer_shrink, coffer_delete,
// recovery's reclaim and the rollback of a grant that lost its write gate —
// then grants every free page zeroed, in the same mount and after a remount.
// Every written page must read zero in the new grant: a page that may hold a
// byte is never released flagged zeroed. (It fails if a release keeps or sets
// the flag.)
func TestReleasedPagesAreScrubbedOnRegrant(t *testing.T) {
	releases := []struct {
		name string
		// release writes pages of a coffer and frees them, returning them.
		release func(t *testing.T, k *KernFS, th *proc.Thread) []int64
	}{
		{"CofferShrink", func(t *testing.T, k *KernFS, th *proc.Thread) []int64 {
			id, pages := cofferWithPages(t, k, th, k.RootCoffer(), "/r", 8)
			scribble(th, k.dev, pages)
			if err := k.CofferShrink(th, id, []coffer.Extent{{Start: pages[0], Count: 8}}); err != nil {
				t.Fatal(err)
			}
			return pages
		}},
		{"CofferDelete", func(t *testing.T, k *KernFS, th *proc.Thread) []int64 {
			id, pages := cofferWithPages(t, k, th, k.RootCoffer(), "/r", 8)
			rp, _ := k.Info(id)
			pages = append(pages, rp.RootInode, rp.Custom)
			scribble(th, k.dev, pages)
			if err := k.CofferDelete(th, id); err != nil {
				t.Fatal(err)
			}
			return pages
		}},
		{"EndRecover", func(t *testing.T, k *KernFS, th *proc.Thread) []int64 {
			id, pages := cofferWithPages(t, k, th, k.RootCoffer(), "/r", 8)
			rp, _ := k.Info(id)
			scribble(th, k.dev, pages)
			if _, err := k.BeginRecover(th, id, 1e9); err != nil {
				t.Fatal(err)
			}
			if err := k.EndRecover(th, id, []int64{rp.RootInode, rp.Custom}); err != nil {
				t.Fatal(err)
			}
			return pages
		}},
		{"write gate rollback", func(t *testing.T, k *KernFS, th *proc.Thread) []int64 {
			// Recycled pages go to a data grant, which does not scrub them;
			// a quarantine the grant's lock-free precheck missed fails its
			// write gate, and the staged grant is rolled back.
			id, pages := cofferWithPages(t, k, th, k.RootCoffer(), "/r", 8)
			scribble(th, k.dev, pages)
			if err := k.CofferShrink(th, id, []coffer.Extent{{Start: pages[0], Count: 8}}); err != nil {
				t.Fatal(err)
			}
			ci, _ := k.cofferLoad(id)
			ci.rp.Flags |= coffer.FlagReadOnly // not published: the precheck passes
			if _, err := k.CofferEnlarge(th, id, 8, false); !errors.Is(err, ErrCofferReadOnly) {
				t.Fatalf("enlarge past a failing write gate: %v", err)
			}
			ci.rp.Flags &^= coffer.FlagReadOnly
			return pages
		}},
	}
	for _, r := range releases {
		for _, remount := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/remount=%v", r.name, remount), func(t *testing.T) {
				dev, k := newFS(t)
				th := mountedThread(t, k, 0, 0)
				sink, _ := cofferWithPages(t, k, th, k.RootCoffer(), "/sink", 0)
				written := r.release(t, k, th)
				if err := k.VerifySpace(); err != nil {
					t.Fatal(err)
				}
				if remount {
					var err error
					if k, err = Mount(dev); err != nil {
						t.Fatal(err)
					}
					th = mountedThread(t, k, 0, 0)
					if _, err := k.CofferMap(th, sink, true); err != nil {
						t.Fatal(err)
					}
				}
				grant, err := k.CofferEnlarge(th, sink, k.FreePages(), true)
				if err != nil {
					t.Fatal(err)
				}
				got := flatten(grant)
				for _, pg := range written {
					if !slices.Contains(got, pg) {
						t.Fatalf("released page %d not in the regrant", pg)
					}
				}
				readZero(t, dev, written, "regrant")
				if err := k.VerifySpace(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDeadRootPagesComeBackZeroed: coffer_delete and coffer_merge zero the
// dead coffer's root page and free it flagged zeroed. The device holds a
// pattern before mkfs, so the root page was written whole and flagged by
// nothing else. (It fails if unpublish frees the root page unflagged, or
// flags it without zeroing it.)
func TestDeadRootPagesComeBackZeroed(t *testing.T) {
	for _, how := range []string{"CofferDelete", "CofferMerge"} {
		t.Run(how, func(t *testing.T) {
			k := patternedFS(t)
			dev := k.Device()
			th := mountedThread(t, k, 0, 0)
			id, pages := cofferWithPages(t, k, th, k.RootCoffer(), "/a-longer-coffer-path", 4)
			dead := id
			var err error
			if how == "CofferMerge" {
				if dead, err = k.CofferSplit(th, id, "/a-longer-coffer-path/split", 0o755, 0, 0, pages[:3], pages[0], pages[1]); err != nil {
					t.Fatal(err)
				}
				err = k.CofferMerge(th, id, dead)
			} else {
				err = k.CofferDelete(th, id)
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := zeroedSlots(k); n != 1 {
				t.Fatalf("%d slots flagged zeroed, want the dead root page's alone", n)
			}
			var slot [allocSlotSize]byte
			dev.ReadNoCharge(k.space.slotOff(int64(dead)), slot[:])
			if !slotFlagged(slot[:]) {
				t.Fatalf("root page %d went back unflagged", dead)
			}
			readZero(t, dev, []int64{int64(dead)}, "dead root page")
			if err := k.VerifySpace(); err != nil {
				t.Fatal(err)
			}
			if err := k.VerifyZeroed(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMkfsFlagsOnlyABlankDevice: mkfs flags every free page of a blank device
// zeroed and none of a device that already holds bytes, whose grants are
// then scrubbed whole.
func TestMkfsFlagsOnlyABlankDevice(t *testing.T) {
	_, k := newFS(t)
	if got, want := zeroedSlots(k), k.FreePages(); got != want {
		t.Fatalf("blank device: %d slots flagged zeroed, want every free page (%d)", got, want)
	}

	dev := nvm.NewDevice(64 << 20)
	dev.WriteNT(nil, 40<<20, []byte("left over"))
	if err := Mkfs(dev, MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if n := zeroedSlots(k); n != 0 {
		t.Fatalf("used device: %d slots flagged zeroed, want 0", n)
	}
	rec := telemetry.New()
	dev.SetRecorder(rec)
	th := mountedThread(t, k, 0, 0)
	id, _ := cofferWithPages(t, k, th, k.RootCoffer(), "/u", 0)
	if _, err := k.CofferEnlarge(th, id, 32, true); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Snapshot().Counters["nvm.zero_bytes"], int64(34*nvm.PageSize); got != want {
		t.Fatalf("coffer_new + 32-page metadata grant on a used device zeroed %d B, want %d", got, want)
	}
}

// TestGrantScrubBytes pins what a grant zeroes (every zero a grant issues is
// its alloc-class scrub): nothing for pages never granted since mkfs, every
// byte of pages a deleted coffer gave back.
func TestGrantScrubBytes(t *testing.T) {
	dev, k := newFS(t)
	rec := telemetry.New()
	dev.SetRecorder(rec)
	th := mountedThread(t, k, 0, 0)
	zeroed := func(f func()) int64 {
		before := rec.Snapshot().Counters["nvm.zero_bytes"]
		f()
		return rec.Snapshot().Counters["nvm.zero_bytes"] - before
	}
	create := func() (coffer.ID, []int64) {
		id, _ := cofferWithPages(t, k, th, k.RootCoffer(), "/d", 0)
		rp, _ := k.Info(id)
		return id, []int64{rp.RootInode, rp.Custom}
	}
	grow := func(id coffer.ID) (pages []int64, n int64) {
		n = zeroed(func() {
			grant, err := k.CofferEnlarge(th, id, 32, true)
			if err != nil {
				t.Fatal(err)
			}
			pages = flatten(grant)
		})
		return pages, n
	}

	var id coffer.ID
	var interior []int64
	if n := zeroed(func() { id, interior = create() }); n != 0 {
		t.Fatalf("coffer_new on a fresh device zeroed %d B, want 0", n)
	}
	pages, n := grow(id)
	if n != 0 {
		t.Fatalf("32-page metadata grant on a fresh device zeroed %d B, want 0", n)
	}
	scribble(th, dev, append(pages, interior...))
	if err := k.CofferDelete(th, id); err != nil {
		t.Fatal(err)
	}

	var id2 coffer.ID
	var interior2 []int64
	if n := zeroed(func() { id2, interior2 = create() }); n != 2*nvm.PageSize {
		t.Fatalf("coffer_new on recycled pages zeroed %d B, want %d", n, 2*nvm.PageSize)
	}
	if id2 != id {
		t.Fatalf("coffer_new took root page %d, not the deleted coffer's %d", id2, id)
	}
	readZero(t, dev, interior2, "recycled coffer_new")
	pages2, n := grow(id2)
	if !slices.Equal(pages2, pages) {
		t.Fatalf("metadata grant took %v, not the deleted coffer's pages", pages2)
	}
	if n != 32*nvm.PageSize {
		t.Fatalf("32-page metadata grant on recycled pages zeroed %d B, want %d", n, 32*nvm.PageSize)
	}
	readZero(t, dev, pages2, "recycled grant")
}

// TestShortfallKeepsZeroedPages: a grant the pool cannot meet puts every page
// back as it found it. The zeroed ones return to the shards' zeroed sets,
// since their slots still carry the flag; recycled ones do not. The recycled
// pages sit low in shard 0, which a sweep from shard 8 reaches last, after
// extents at higher addresses.
func TestShortfallKeepsZeroedPages(t *testing.T) {
	_, k := newFS(t)
	sm := k.space
	hintFor := func(shard int) uint64 {
		h := uint64(0)
		for shardHome(h) != shard {
			h++
		}
		return h
	}
	const id = coffer.ID(4242)
	if _, err := sm.allocate(nil, hintFor(0), id, 3, nil); err != nil {
		t.Fatal(err)
	}
	for _, e := range sm.extentsOf(id) {
		if err := sm.release(nil, id, e.Start, e.Count); err != nil {
			t.Fatal(err)
		}
	}
	mirrored := func() (n int64) {
		for i := range sm.shards {
			n += sm.shards[i].zeroed.Pages()
		}
		return n
	}
	free, zeroed := sm.freePages(), mirrored()
	var dirty [4]coffer.Extent
	if _, _, err := sm.takeFree(nil, hintFor(8), free+1, nil, dirty[:0]); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("grant beyond the pool: %v", err)
	}
	if sm.freePages() != free || mirrored() != zeroed {
		t.Fatalf("after the shortfall %d pages free, %d zeroed; before %d, %d", sm.freePages(), mirrored(), free, zeroed)
	}
	if err := k.VerifySpace(); err != nil {
		t.Fatal(err)
	}
}
