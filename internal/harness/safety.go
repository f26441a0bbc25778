package harness

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/obsfs"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// RunSafety reproduces the §6.5 safety tests: two processes P1 and P2 over
// coffers C1 (shared read-write) and C2 (P2-private).
//
// Test 1 (buggy code): P1 issues stray writes over random addresses —
// every one must be caught by MPK; then P1 corrupts C1's interior through
// its legitimate mapping ("overwrites in ZoFS's code") — P2 must receive
// file system errors gracefully instead of dying.
//
// Test 2 (malicious metadata): P1 rewrites a cross-coffer dentry in C1 to
// point into C2 — P2 must detect the manipulation (guideline G3) and never
// touch C2.
func RunSafety(w io.Writer, opts Options) error {
	opts.fill()
	// The stray-write storm and MPK faults are exactly what the flight
	// recorder exists to show, so the run records into a recorder of its own
	// (the device below captures it at birth), whatever the caller records.
	defer pmemtrace.Install(pmemtrace.Active())
	tracer := pmemtrace.Enable(pmemtrace.Config{RingCap: 1 << 18})
	// Track persistence explicitly: the auditor's lost-line report at the
	// end of the run is only meaningful over a dirty-line-tracking device.
	dev := nvm.New(nvm.Config{Size: 1 << 30, TrackPersistence: true})
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o777}); err != nil {
		return err
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		return err
	}

	// P1: uid 1000 (the buggy/malicious process). P2: uid 1001 (victim).
	p1 := proc.NewProcess(dev, 1000, 1000)
	t1 := p1.NewThread()
	l1, err := fslibs.Mount(k, t1, fslibs.Options{})
	if err != nil {
		return err
	}
	p2 := proc.NewProcess(dev, 1001, 1001)
	t2 := p2.NewThread()
	l2, err := fslibs.Mount(k, t2, fslibs.Options{})
	if err != nil {
		return err
	}
	rootTh := proc.NewProcess(dev, 0, 0).NewThread()
	lr, err := fslibs.Mount(k, rootTh, fslibs.Options{})
	if err != nil {
		return err
	}
	if err := lr.ZoFS().EnsureRootDir(rootTh); err != nil {
		return err
	}
	// C1: world-writable coffer both processes map; C2: P2-private.
	if err := lr.Mkdir(rootTh, "/c1", 0o666); err != nil {
		return err
	}
	if err := lr.Chown(rootTh, "/c1", 1000, 1000); err != nil {
		return err
	}
	if err := lr.Mkdir(rootTh, "/c2", 0o600); err != nil {
		return err
	}
	if err := lr.Chown(rootTh, "/c2", 1001, 1001); err != nil {
		return err
	}
	// Populate C1 with files P2 will read, and C2 with P2's secret.
	for i := 0; i < 8; i++ {
		fd, err := l1.Open(t1, fmt.Sprintf("/c1/file%d", i), vfs.O_CREATE|vfs.O_RDWR, 0o666)
		if err != nil {
			return fmt.Errorf("populate C1: %w", err)
		}
		l1.Write(t1, fd, make([]byte, 4096))
		l1.Close(t1, fd)
	}
	fd, err := l2.Open(t2, "/c2/secret", vfs.O_CREATE|vfs.O_RDWR, 0o600)
	if err != nil {
		return fmt.Errorf("populate C2: %w", err)
	}
	l2.Write(t2, fd, []byte("top secret"))
	l2.Close(t2, fd)

	fmt.Fprintln(w, "Safety tests (paper §6.5)")

	// --- Test 1a: stray writes outside the FS library are all caught.
	rng := rand.New(rand.NewSource(99))
	caught, escaped := 0, 0
	for i := 0; i < 1000; i++ {
		off := rng.Int63n(dev.Size() - 8)
		func() {
			defer func() {
				if recover() != nil {
					caught++
				}
			}()
			t1.StrayWrite(off, []byte{0xff, 0xee, 0xdd})
			escaped++
		}()
	}
	p2ReadsOK := 0
	for i := 0; i < 8; i++ {
		if _, err := l2.Stat(t2, fmt.Sprintf("/c1/file%d", i)); err == nil {
			p2ReadsOK++
		}
	}
	fmt.Fprintf(w, "  Test 1a (stray writes): %d/%d wild stores caught by MPK, %d escaped; P2 accesses unaffected: %d/8\n",
		caught, caught+escaped, escaped, p2ReadsOK)
	if escaped != 0 || p2ReadsOK != 8 {
		return errors.New("safety: stray-write protection failed")
	}

	// --- Test 1b: P1 corrupts C1's interior through its own mapping
	// (simulating buggy FS-library code). P2 must get graceful errors.
	c1ID, _ := k.LookupPath(nil, "/c1")
	var c1pages []int64
	for _, e := range k.ExtentsOf(c1ID) {
		for pg := e.Start; pg < e.End(); pg++ {
			if pg != int64(c1ID) { // the root page is kernel-managed, read-only
				c1pages = append(c1pages, pg)
			}
		}
	}
	// P1 legitimately maps C1 read-write, then scribbles.
	if _, err := l1.Stat(t1, "/c1/file0"); err != nil {
		return err
	}
	mi, err := k.CofferMap(t1, c1ID, true)
	if err != nil {
		return err
	}
	t1.OpenWindow(mi.Key, true)
	for _, pg := range c1pages {
		t1.WriteNT(pg*4096, make([]byte, 512)) // zero the head of every page
	}
	t1.CloseWindow()

	errsSeen, crashes := 0, 0
	for i := 0; i < 8; i++ {
		func() {
			defer func() {
				if recover() != nil {
					crashes++
				}
			}()
			if _, err := l2.Stat(t2, fmt.Sprintf("/c1/file%d", i)); err != nil {
				errsSeen++
			}
		}()
	}
	fmt.Fprintf(w, "  Test 1b (corrupted coffer): P2 received %d/8 graceful errors, %d crashes\n", errsSeen, crashes)
	if crashes != 0 || errsSeen == 0 {
		return errors.New("safety: graceful error return failed")
	}

	// --- Test 2: malicious cross-coffer reference. A clean coffer C3
	// holds an in-coffer subdirectory "sub"; P1 redirects sub's dentry at
	// C2, hoping P2's walk through it reaches P2's own private coffer with
	// attacker-chosen structure. G3 must stop the walk.
	if err := lr.Mkdir(rootTh, "/c3", 0o666); err != nil {
		return err
	}
	if err := lr.Chown(rootTh, "/c3", 1000, 1000); err != nil {
		return err
	}
	if err := l1.Mkdir(t1, "/c3/sub", 0o666); err != nil { // same perm: in-coffer
		return err
	}
	fd3, err := l1.Open(t1, "/c3/sub/leaf", vfs.O_CREATE|vfs.O_RDWR, 0o666)
	if err != nil {
		return err
	}
	l1.Close(t1, fd3)
	if _, ok := k.LookupPath(nil, "/c3/sub"); ok {
		return errors.New("safety: /c3/sub must be in-coffer for the walk to read its dentry")
	}
	c2ID, _ := k.LookupPath(nil, "/c2")
	c2info, _ := k.Info(c2ID)

	// P1 hunts down the dentry for "sub" inside C3 and redirects it at C2.
	c3ID, _ := k.LookupPath(nil, "/c3")
	mi3, err := k.CofferMap(t1, c3ID, true)
	if err != nil {
		return err
	}
	t1.OpenWindow(mi3.Key, true)
	redirected := zofs.RedirectDentry(t1, k, c3ID, "sub", c2ID, c2info.RootInode)
	t1.CloseWindow()
	if !redirected {
		return errors.New("safety: attack setup failed to find the dentry")
	}

	// P2 (who can read C3: 0666) walks through the manipulated dentry.
	_, err = l2.Stat(t2, "/c3/sub/leaf")
	detected := err != nil
	leaked := err == nil
	fmt.Fprintf(w, "  Test 2 (malicious cross-coffer ref): manipulation detected=%v, C2 leaked=%v (err: %v)\n",
		detected, leaked, err)
	if !detected {
		return errors.New("safety: G3 validation failed to stop the attack")
	}
	rep := pmemtrace.Audit(tracer.Events(), nil)
	fmt.Fprintf(w, "  flight recorder: %d events, %d mpk violations, %d lost lines\n",
		rep.Events, rep.Violations, len(rep.LostLines))
	fmt.Fprintln(w, "  PASS: all safety properties held")
	return nil
}

// RunRecovery reproduces the §6.5 recovery timing: a coffer holding 1,000
// 2MB files is recovered, reporting total/user/kernel virtual time, each
// scored against the paper's.
func RunRecovery(w io.Writer, opts Options) ([]Cell, error) {
	opts.fill()
	files, fileBytes := 1000, int64(2<<20)
	if opts.Quick {
		files = 100
	}
	dev := nvm.New(nvm.Config{Size: int64(files)*fileBytes + (512 << 20), TrackPersistence: false})
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		return nil, err
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		return nil, err
	}
	p := proc.NewProcess(dev, 0, 0)
	th := p.NewThread()
	l, err := fslibs.Mount(k, th, fslibs.Options{})
	if err != nil {
		return nil, err
	}
	if err := l.ZoFS().EnsureRootDir(th); err != nil {
		return nil, err
	}
	if err := l.Mkdir(th, "/data", 0o700); err != nil { // its own coffer
		return nil, err
	}
	buf := make([]byte, 256<<10)
	for i := 0; i < files; i++ {
		fd, err := l.Open(th, fmt.Sprintf("/data/f%04d", i), vfs.O_CREATE|vfs.O_RDWR, 0o600)
		if err != nil {
			return nil, err
		}
		for off := int64(0); off < fileBytes; off += int64(len(buf)) {
			if _, err := l.Pwrite(th, fd, buf, off); err != nil {
				return nil, err
			}
		}
		l.Close(th, fd)
	}
	id, _ := k.LookupPath(nil, "/data")
	st, err := l.ZoFS().RecoverCoffer(th, id)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Recovery of a coffer with %d %dMB files (paper: 20,748µs total; 5,386 user / 15,362 kernel):\n",
		files, fileBytes>>20)
	fmt.Fprintf(w, "  total %dµs = user %dµs + kernel %dµs; pages kept %d, reclaimed %d, leases cleared %d\n",
		(st.UserNS+st.KernelNS)/1000, st.UserNS/1000, st.KernelNS/1000,
		st.PagesKept, st.PagesReclaimed, st.LeasesCleared)
	obsfs.EndCell(fmt.Sprintf("recovery/%d-files", files), map[string]int64{
		"recover_total_ns":  st.UserNS + st.KernelNS,
		"recover_user_ns":   st.UserNS,
		"recover_kernel_ns": st.KernelNS,
		"pages_kept":        st.PagesKept,
		"pages_reclaimed":   st.PagesReclaimed,
		"dentries_fixed":    int64(len(st.Repairs)),
		"leases_cleared":    int64(st.LeasesCleared),
		"repairs":           int64(len(st.Repairs)),
	})
	return []Cell{
		{"recovery/total_us", 20748, float64(st.UserNS+st.KernelNS) / 1000},
		{"recovery/user_us", 5386, float64(st.UserNS) / 1000},
		{"recovery/kernel_us", 15362, float64(st.KernelNS) / 1000},
	}, nil
}
