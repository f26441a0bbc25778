// Command zofs-fsck runs offline recovery (paper §3.5, §5.3) over every
// coffer in a device image: each coffer is traversed from its root inode,
// corrupted dentries and dangling pointers are repaired, stale leases are
// cleared, allocator pools are reset and leaked pages are reclaimed by the
// kernel. The repaired image is written back unless -n is given.
//
// With -trace, a flight-recorder log of the run that produced the image
// (zofs-obs trace record, zofs-bench -trace) is replayed through the
// crash-consistency auditor and its lost-line report is cross-checked
// against the repairs fsck performed: any repair the recorder cannot
// explain — or any repair at all when the recorder saw no hazard — is a
// disagreement, and zofs-fsck exits non-zero.
//
// Exit codes: 0 the image was checked (and, without -n, written back); 1 it
// could not be loaded, mounted, checked or saved, or the trace cross-check
// disagreed; 2 usage.
//
// Usage:
//
//	zofs-fsck [-n] [-trace log.jsonl] image.zofs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/zofs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("zofs-fsck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	dry := fl.Bool("n", false, "check only; do not write the repaired image back")
	traceFile := fl.String("trace", "", "flight-recorder JSONL log to cross-check repairs against")
	if fl.Parse(args) != nil {
		return 2
	}
	if fl.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: zofs-fsck [-n] [-trace log.jsonl] <image>")
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

	k, err := kernfs.Mount(dev)
	if err != nil {
		return fatal("mount: %v", err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k.FSMount(th); err != nil {
		return fatal("fs_mount: %v", err)
	}

	stats, err := zofs.FsckAll(k, th)
	if err != nil {
		return fatal("fsck: %v", err)
	}
	var kept, reclaimed int64
	var fixed, leases int
	for id, st := range stats {
		info, _ := k.Info(id)
		fmt.Fprintf(stdout, "coffer %d (%s): kept %d pages, reclaimed %d, fixed %d dentries, cleared %d leases (user %dµs / kernel %dµs)\n",
			id, info.Path, st.PagesKept, st.PagesReclaimed, st.DentriesFixed, st.LeasesCleared,
			st.UserNS/1000, st.KernelNS/1000)
		kept += st.PagesKept
		reclaimed += st.PagesReclaimed
		fixed += st.DentriesFixed
		leases += st.LeasesCleared
	}
	fmt.Fprintf(stdout, "total: %d coffers, %d pages kept, %d reclaimed, %d repairs, %d stale leases\n",
		len(stats), kept, reclaimed, fixed, leases)

	if *traceFile != "" {
		tf, err := os.Open(*traceFile)
		if err != nil {
			return fatal("-trace: %v", err)
		}
		events, spans, err := pmemtrace.ReadJSONL(tf)
		tf.Close()
		if err != nil {
			return fatal("-trace: %v", err)
		}
		rep := pmemtrace.Audit(events, spans)
		var repairs []pmemtrace.RepairSite
		for _, st := range stats {
			for _, rp := range st.Repairs {
				repairs = append(repairs, pmemtrace.RepairSite{Off: rp.Off, Target: rp.Target, Kind: rp.Kind})
			}
		}
		disagreements := pmemtrace.CrossCheck(rep, repairs)
		fmt.Fprintf(stdout, "trace cross-check: %d events, %d lost lines vs %d repairs\n",
			rep.Events, len(rep.LostLines), len(repairs))
		if len(disagreements) > 0 {
			for _, d := range disagreements {
				fatal("DISAGREEMENT: %s", d)
			}
			return 1
		}
		fmt.Fprintln(stdout, "trace cross-check: auditor and fsck agree")
	}

	if *dry {
		return 0
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
	return 0
}
