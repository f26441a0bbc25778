// Command zofs-fsck checks a device image with zofs.Check (paper §3.5,
// §5.3): each coffer is traversed from its root inode, corrupted dentries and
// dangling pointers are repaired, stale leases are cleared, allocator pools
// are reset and leaked pages are reclaimed by the kernel; then every
// registered invariant is checked. It prints one line per coffer in ascending
// ID order and one per finding, and writes the repaired image back unless -n
// is given. (zofs-crashmc's cross_check invariant checks on every crash state
// that the repairs match what the flight recorder saw lost.)
//
// Exit codes, as fsck(8)'s: 0 the image is clean or every finding was
// repaired; 1 it could not be loaded, mounted or saved; 2 usage; 4 a finding
// was left unrepaired.
//
// Usage:
//
//	zofs-fsck [-n] image.zofs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"zofs/internal/nvm"
	"zofs/internal/sysfactory"
	"zofs/internal/zofs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("zofs-fsck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	dry := fl.Bool("n", false, "check only; do not write the repaired image back")
	if fl.Parse(args) != nil {
		return 2
	}
	if fl.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: zofs-fsck [-n] <image>")
		return 2
	}
	path := fl.Arg(0)
	fatal := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "zofs-fsck: "+format+"\n", args...)
		return 1
	}

	f, err := os.Open(path)
	if err != nil {
		return fatal("%v", err)
	}
	dev, err := nvm.LoadImage(f)
	f.Close()
	if err != nil {
		return fatal("load: %v", err)
	}

	in, err := sysfactory.Boot(dev, zofs.Options{})
	if err != nil {
		return fatal("mount: %v", err)
	}

	found := zofs.Check(in.Kern, in.Thread)
	var kept, reclaimed, fixed, leases int64
	for _, c := range found.Coffers {
		fmt.Fprintf(stdout, "coffer %d (%s): kept %d pages, reclaimed %d, fixed %d dentries, cleared %d leases (user %dµs / kernel %dµs)\n",
			c.ID, c.Path, c.PagesKept, c.PagesReclaimed, len(c.Repairs), c.LeasesCleared,
			c.UserNS/1000, c.KernelNS/1000)
		kept += c.PagesKept
		reclaimed += c.PagesReclaimed
		fixed += int64(len(c.Repairs))
		leases += int64(c.LeasesCleared)
	}
	for _, fd := range found.Findings {
		fmt.Fprintln(stdout, fd)
	}
	fmt.Fprintf(stdout, "total: %d coffers, %d pages kept, %d reclaimed, %d repairs, %d stale leases\n",
		len(found.Coffers), kept, reclaimed, fixed, leases)
	code := 0
	if found.Err() != nil {
		code = 4
	}

	if *dry {
		return code
	}
	out, err := os.Create(path)
	if err != nil {
		return fatal("%v", err)
	}
	if err := dev.SaveImage(out); err != nil {
		out.Close()
		return fatal("save: %v", err)
	}
	if err := out.Close(); err != nil {
		return fatal("save: %v", err)
	}
	return code
}
