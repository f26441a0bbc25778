package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"zofs/internal/obsfs"
)

// cmdTop renders the document a running `zofs-bench -obs DIR` publishes:
// every panel it carries — latency attribution, byte flow and coffer space,
// named-lock contention, the virtual-time timeline — redrawn in place,
// top(1)-style. -once renders a single frame and exits (scripts, CI); -json
// emits the document itself; -dot exports the lock panel's wait-for graph
// for Graphviz, inversion-implicated lock classes highlighted.
func cmdTop(args []string, stdout, stderr io.Writer) int {
	fl := newFlags("top", stderr)
	dir := fl.String("dir", "results", "observation directory (zofs-bench -obs)")
	interval := fl.Duration("interval", time.Second, "refresh interval")
	once := fl.Bool("once", false, "render one frame and exit")
	jsonOut := fl.Bool("json", false, "emit the document as JSON and exit")
	dot := fl.String("dot", "", "write the wait-for graph as Graphviz DOT to this file ('-' for stdout) and exit")
	if !parse(fl, args, 0, 0) {
		return 2
	}
	for {
		err := frame(stdout, *dir, *jsonOut, *dot, !*once)
		if *once || *jsonOut || *dot != "" {
			if err != nil {
				return fail(stderr, err)
			}
			return 0
		}
		if err != nil {
			// A stale or missing file just waits for the publisher.
			fmt.Fprintf(stdout, "zofs-obs top: %v (waiting)\n", err)
		}
		time.Sleep(*interval)
	}
}

// frame loads dir's document and renders it once in the chosen form.
func frame(w io.Writer, dir string, asJSON bool, dot string, clear bool) error {
	doc, err := obsfs.Load(dir)
	if err != nil {
		return err
	}
	switch {
	case asJSON:
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "%s\n", raw)
		return err
	case dot != "":
		if doc.Locks == nil {
			return errors.New("the document has no lock panel")
		}
		return create(dot, w, doc.Locks.WriteDOT)
	}
	if clear {
		fmt.Fprint(w, "\x1b[2J\x1b[H") // clear screen + home, like top
	}
	path := filepath.Join(dir, obsfs.DocFile)
	if st, err := os.Stat(path); err == nil {
		fmt.Fprintf(w, "zofs-obs top — %s (published %s ago)\n\n", path,
			time.Since(st.ModTime()).Round(100*time.Millisecond))
	}
	return doc.WriteText(w)
}
