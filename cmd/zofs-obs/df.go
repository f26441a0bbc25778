package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"zofs/internal/byteflow"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/obsfs"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// cmdDF reports where the bytes went: the byte-flow reconciliation
// (application bytes vs FS-issued bytes by class vs media bytes, with the
// write-amplification factor), per-coffer space accounting (used /
// free-listed / batch-cached pages, fragmentation) and the page-wear heatmap.
//
// Without a source it builds a fresh ZoFS instance, enables byte-flow
// accounting and runs a small mixed workload (create, write, append, unlink)
// so the flow, wear and space reports have something to say. With -image it
// mounts the given device image and reports its persistent space accounting;
// the flow and wear ledgers only cover what the mount itself wrote, so they
// are near-empty by construction. With DIR it reports the flow and space
// panels of that observation directory's document.
//
// -heatmap writes one JSON object per worn page (the byteflow.PageWear
// schema: page, coffer, writes, bytes, flushes) — JSONL, ready for jq or a
// plotting script. -validate re-checks the accounting invariants — exact
// byte conservation across classes and no unclassified writer on a fresh
// instance — and, on a live one, runs zofs.Check (recovery, then the space,
// zeroed-page and path-mirror invariants); it exits 1 on any violation.
func cmdDF(args []string, stdout, stderr io.Writer) int {
	fl := newFlags("df", stderr)
	image := fl.String("image", "", "report on an existing device image instead of a fresh demo instance")
	files := fl.Int("files", 512, "files the demo workload touches (fresh-instance mode)")
	heatmap := fl.String("heatmap", "", "write the page-wear heatmap as JSONL to this file")
	topN := fl.Int("top", 8, "hottest pages to print (0 = none)")
	validate := fl.Bool("validate", false, "verify byte conservation and run zofs.Check; exit 1 on violation")
	if !parse(fl, args, 0, 1) {
		return 2
	}

	var doc obsfs.Doc
	var live *zofs.FS // nil when reporting on a published document
	var th *proc.Thread
	var err error
	if fl.NArg() == 1 {
		if doc, err = obsfs.Load(fl.Arg(0)); err == nil && doc.Flow == nil {
			err = fmt.Errorf("%s: the document has no byte-flow panel", fl.Arg(0))
		}
	} else if live, th, err = dfInstance(*image, *files); err == nil {
		doc = obsfs.Collect(live)
	}
	if err != nil {
		return fail(stderr, err)
	}
	doc = obsfs.Doc{Flow: doc.Flow, Space: doc.Space}
	if err := doc.WriteText(stdout); err != nil {
		return fail(stderr, err)
	}
	if live != nil {
		wear := live.WearReport()
		if *topN > 0 && len(wear) > 0 {
			fmt.Fprintln(stdout)
			if err := byteflow.WriteWearText(stdout, wear, *topN); err != nil {
				return fail(stderr, err)
			}
		}
		if *heatmap != "" {
			if err := create(*heatmap, stdout, func(w io.Writer) error { return obsfs.WriteJSONL(w, wear) }); err != nil {
				return fail(stderr, fmt.Errorf("-heatmap: %w", err))
			}
			fmt.Fprintf(stdout, "\nwrote %d page-wear records to %s\n", len(wear), *heatmap)
		}
	}
	if !*validate {
		return 0
	}

	var bad []error
	if err := doc.Flow.Conserved(); err != nil {
		bad = append(bad, fmt.Errorf("conservation: %w", err))
	}
	// Every writer carries an explicit class, mkfs included; any bytes in the
	// residual of a fresh instance mean a new unclassified writer crept in.
	if live != nil && *image == "" && doc.Flow.Issued[byteflow.ClassOther] != 0 {
		bad = append(bad, fmt.Errorf("%d bytes in class %q — unclassified writer",
			doc.Flow.Issued[byteflow.ClassOther], byteflow.ClassOther))
	}
	if live != nil {
		bad = append(bad, zofs.Check(live.Kern(), th).Err())
	}
	if err := errors.Join(bad...); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, "\nvalidate: byte conservation reconciles and zofs.Check finds nothing")
	return 0
}

// dfInstance mounts image, or — with no image — formats a fresh device and
// runs the demo workload on it; either way with byte-flow accounting on. It
// returns the instance and its process's root thread.
func dfInstance(image string, files int) (*zofs.FS, *proc.Thread, error) {
	var dev *nvm.Device
	if image != "" {
		f, err := os.Open(image)
		if err != nil {
			return nil, nil, err
		}
		dev, err = nvm.LoadImage(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("load: %w", err)
		}
		dev.EnableAccounting()
	} else {
		dev = nvm.New(nvm.Config{Size: 256 << 20})
		// Accounting goes on before mkfs so formatting traffic is in the
		// ledger too; mkfs tags every write with an explicit class, so the
		// residual ("other") must reconcile to exactly zero.
		dev.EnableAccounting()
		if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
			return nil, nil, fmt.Errorf("mkfs: %w", err)
		}
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		return nil, nil, fmt.Errorf("mount: %w", err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k.FSMount(th); err != nil {
		return nil, nil, fmt.Errorf("fsmount: %w", err)
	}
	fs := zofs.New(k, zofs.Options{})
	if image == "" {
		if err := fs.EnsureRootDir(th); err != nil {
			return nil, nil, fmt.Errorf("root: %w", err)
		}
		if err := demoWorkload(fs, th, files); err != nil {
			return nil, nil, fmt.Errorf("workload: %w", err)
		}
	}
	return fs, th, nil
}

// demoWorkload gives the ledgers something to report: create, fill, append,
// then delete a quarter of the files. App bytes are credited by the obsfs
// wrapper, same as the benchmarks.
func demoWorkload(inner vfs.FileSystem, th *proc.Thread, n int) error {
	fs := obsfs.Wrap(inner, nil)
	if err := fs.Mkdir(th, "/demo", 0o755); err != nil {
		return err
	}
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := 0; i < n; i++ {
		nm := fmt.Sprintf("/demo/f-%06d", i)
		h, err := fs.Create(th, nm, 0o644)
		if err != nil {
			return err
		}
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			h.Close(th)
			return err
		}
		if i%2 == 0 {
			if _, err := h.Append(th, buf[:256]); err != nil {
				h.Close(th)
				return err
			}
		}
		h.Close(th)
	}
	for i := 0; i < n; i += 4 {
		if err := fs.Unlink(th, fmt.Sprintf("/demo/f-%06d", i)); err != nil {
			return err
		}
	}
	return nil
}
