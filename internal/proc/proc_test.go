package proc

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"zofs/internal/mpk"
	"zofs/internal/nvm"
)

func newProc(t *testing.T) *Process {
	t.Helper()
	dev := nvm.NewDevice(1 << 20)
	return NewProcess(dev, 1000, 1000)
}

func TestIdentity(t *testing.T) {
	p := newProc(t)
	if p.UID() != 1000 || p.GID() != 1000 {
		t.Fatalf("identity = %d/%d", p.UID(), p.GID())
	}
	p.SetIdentity(0, 0)
	if p.UID() != 0 || p.GID() != 0 {
		t.Fatalf("identity after set = %d/%d", p.UID(), p.GID())
	}
}

func TestThreadIDsUnique(t *testing.T) {
	p := newProc(t)
	a, b := p.NewThread(), p.NewThread()
	if a.TID == b.TID {
		t.Fatal("thread IDs must be unique")
	}
}

func TestCheckedAccessThroughWindow(t *testing.T) {
	p := newProc(t)
	th := p.NewThread()
	// Kernel maps pages 2..3 with key 5, writable.
	p.Mem.Map(2, 2, 5, true)

	// Access with window closed must fault.
	faulted := false
	func() {
		defer func() {
			if _, ok := recover().(mpk.Violation); ok {
				faulted = true
			}
		}()
		th.Read(2*nvm.PageSize, make([]byte, 8))
	}()
	if !faulted {
		t.Fatal("closed-window access should fault")
	}

	// Open the window; access succeeds.
	th.OpenWindow(5, true)
	th.WriteNT(2*nvm.PageSize, []byte("coffer!"))
	buf := make([]byte, 7)
	th.Read(2*nvm.PageSize, buf)
	if string(buf) != "coffer!" {
		t.Fatalf("read back %q", buf)
	}

	// Close; faults again (G1).
	th.CloseWindow()
	faulted = false
	func() {
		defer func() {
			if _, ok := recover().(mpk.Violation); ok {
				faulted = true
			}
		}()
		th.StrayWrite(2*nvm.PageSize, []byte{0xff})
	}()
	if !faulted {
		t.Fatal("stray write with closed window should fault")
	}
}

func TestWindowIsPerThread(t *testing.T) {
	p := newProc(t)
	p.Mem.Map(0, 1, 3, true)
	a, b := p.NewThread(), p.NewThread()
	a.OpenWindow(3, true)
	a.WriteNT(0, []byte{1})
	// Thread b's PKRU is untouched — its stray write must fault even while
	// a's window is open (the per-thread property of §3.4.1).
	faulted := false
	func() {
		defer func() {
			if _, ok := recover().(mpk.Violation); ok {
				faulted = true
			}
		}()
		b.Write(0, []byte{2})
	}()
	if !faulted {
		t.Fatal("other thread must not inherit the open window")
	}
}

// TestWindowOpenCounts: the process knows which keys some thread has a window
// open on, through charged and free register writes, while threads switch
// windows concurrently.
func TestWindowOpenCounts(t *testing.T) {
	p := newProc(t)
	holder := p.NewThread()
	holder.OpenWindow(3, false)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := p.NewThread()
			for i := 0; i < 200; i++ {
				th.OpenWindow(mpk.Key(1+(g+i)%15), i%2 == 0)
				th.SetPKRUFree(mpk.DefaultPKRU().WithAccess(mpk.Key(1+i%15), true, false))
				th.CloseWindow()
			}
		}()
	}
	wg.Wait()
	for k := mpk.Key(1); k < mpk.NumKeys; k++ {
		if got := p.WindowOpen(k); got != (k == 3) {
			t.Errorf("WindowOpen(%d) = %v with only key 3's window held", k, got)
		}
	}
	holder.SetPKRUFree(mpk.DefaultPKRU())
	if p.WindowOpen(3) {
		t.Error("key 3 still open after its holder closed the window")
	}
}

func TestOnlyOneCofferAccessible(t *testing.T) {
	// G2: opening a window on one key closes every other key.
	p := newProc(t)
	p.Mem.Map(0, 1, 1, true)
	p.Mem.Map(1, 1, 2, true)
	th := p.NewThread()
	th.OpenWindow(1, true)
	th.WriteNT(0, []byte{1})
	faulted := false
	func() {
		defer func() {
			if _, ok := recover().(mpk.Violation); ok {
				faulted = true
			}
		}()
		th.Read(nvm.PageSize, make([]byte, 1))
	}()
	if !faulted {
		t.Fatal("G2 violated: second coffer accessible while window open on first")
	}
	th.OpenWindow(2, false)
	th.Read(nvm.PageSize, make([]byte, 1)) // now fine, read-only window
	faulted = false
	func() {
		defer func() {
			if _, ok := recover().(mpk.Violation); ok {
				faulted = true
			}
		}()
		th.WriteNT(nvm.PageSize, []byte{1})
	}()
	if !faulted {
		t.Fatal("read-only window must reject writes")
	}
}

func TestWrPKRUCharged(t *testing.T) {
	p := newProc(t)
	th := p.NewThread()
	before := th.Clk.Now()
	th.OpenWindow(1, true)
	if th.Clk.Now() <= before {
		t.Fatal("WRPKRU must cost time")
	}
}

func TestAtomicsChecked(t *testing.T) {
	p := newProc(t)
	p.Mem.Map(0, 1, 1, true)
	th := p.NewThread()
	th.OpenWindow(1, true)
	th.Store64(8, 99)
	if th.Load64(8) != 99 {
		t.Fatal("atomic round trip failed")
	}
	if !th.CAS64(8, 99, 100) {
		t.Fatal("CAS should succeed")
	}
	th.Zero(0, 64)
	if th.Load64(8) != 0 {
		t.Fatal("zeroed word should read 0")
	}
}

// TestRunThreadsStepsEarliestToDeadline: threads start at the setup
// thread's clock, the earliest clock runs next (ties to the lower index),
// the run stops once the earliest clock reaches the deadline, and the
// reported span ends at the slowest clock.
func TestRunThreadsStepsEarliestToDeadline(t *testing.T) {
	p := newProc(t)
	setup := p.NewThread()
	setup.CPU(1000)
	cost := []int64{30, 50}
	var order []int
	vns, err := p.RunThreads(setup, 2, 100, func(i int, th *Thread) error {
		order = append(order, i)
		th.CPU(cost[i])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Clocks after each step: 1030/1000, 1030/1050, 1060/1050, 1060/1100,
	// 1090/1100, 1120/1100; then the earliest (1100) is at the deadline.
	if want := []int{0, 1, 0, 1, 0, 0}; !slices.Equal(order, want) {
		t.Fatalf("step order = %v, want %v", order, want)
	}
	if vns != 120 {
		t.Fatalf("virtual span = %d, want 120", vns)
	}
	boom := errors.New("boom")
	n := 0
	if _, err := p.RunThreads(setup, 2, 100, func(int, *Thread) error {
		if n++; n == 3 {
			return boom
		}
		return nil
	}); err != boom || n != 3 {
		t.Fatalf("err = %v after %d steps, want boom after 3", err, n)
	}
}
