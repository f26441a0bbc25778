package zofs

import (
	"errors"
	"testing"

	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// TestLeaseStealRace races two survivor processes (real goroutines — run
// under -race) for an expired foreign inode lease left by a holder that
// stalled mid-commit. The CAS steal must admit exactly one survivor at the
// bumped epoch; the second serializes behind it and claims later (a cleared
// word at epoch 0, or a second steal at epoch 2 if it waited the winner
// out). When the stalled holder finally resumes its in-flight publish at
// the epoch it remembers, the lease fence must reject it with
// vfs.ErrStaleLease — it may not overwrite the stealers' world.
func TestLeaseStealRace(t *testing.T) {
	withDebugPool(t)
	dev, k, f, th := newTestFS(t, Options{})
	h, err := f.Create(th, "/victim", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(th, []byte("committed before the stall"), 0); err != nil {
		t.Fatal(err)
	}
	h.Close(th)
	fi, err := f.Stat(th, "/victim")
	if err != nil {
		t.Fatal(err)
	}
	ino := fi.Inode
	root := k.RootCoffer()

	// The stalled holder: a real process frozen mid-commit, its epoch-0
	// lease already expired on NVM.
	thDead := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k.FSMount(thDead); err != nil {
		t.Fatal(err)
	}
	fDead := New(k, Options{})
	PlantInodeLeaseEpoch(dev, ino, thDead.TID, 0, thDead.Clk.Now())

	// Two survivors race the steal.
	type result struct {
		epoch uint8
		err   error
	}
	results := make(chan result, 2)
	start := make(chan struct{})
	for i := 0; i < 2; i++ {
		thr := proc.NewProcess(dev, 0, 0).NewThread()
		if err := k.FSMount(thr); err != nil {
			t.Fatal(err)
		}
		fr := New(k, Options{})
		go func() {
			<-start
			m, err := fr.ensureMapped(thr, root, true)
			if err != nil {
				results <- result{0, err}
				return
			}
			cl := fr.window(thr, m, true)
			defer cl.close()
			ep, err := fr.lockInode(thr, m, ino)
			if err != nil {
				results <- result{0, err}
				return
			}
			// The in-flight commit under the fence, as writeAt publishes.
			if err := fr.checkLease(thr, ino, ep); err != nil {
				fr.unlockInode(thr, m, ino, ep)
				results <- result{ep, err}
				return
			}
			thr.Store64(ino*pageSize+inoMtimeOff, uint64(thr.Clk.Now()))
			fr.unlockInode(thr, m, ino, ep)
			results <- result{ep, nil}
		}()
	}
	close(start)

	var epochs []uint8
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("survivor %d failed: %v", i, r.err)
		}
		epochs = append(epochs, r.epoch)
	}
	winners := 0
	for _, ep := range epochs {
		if ep == 1 {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("epochs %v: want exactly one survivor stealing at epoch 1", epochs)
	}
	for _, ep := range epochs {
		if ep != 0 && ep != 1 && ep != 2 {
			t.Fatalf("epochs %v: second claim must land at epoch 0 (cleared word) or 2 (second steal)", epochs)
		}
	}

	// The resurrected holder replays its commit with the epoch it remembers:
	// the fence must reject it.
	if err := fDead.ResumeStaleWrite(thDead, root, ino, 0); !errors.Is(err, vfs.ErrStaleLease) {
		t.Fatalf("stale holder's resume returned %v, want ErrStaleLease", err)
	}

	// And the victim's committed content is untouched by the whole affair.
	h2, err := f.Open(th, "/victim", vfs.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close(th)
	buf := make([]byte, 26)
	if _, err := h2.ReadAt(th, buf, 0); err != nil || string(buf) != "committed before the stall" {
		t.Fatalf("victim content after race: %q, %v", buf, err)
	}
}
