// Command zofs-obs is the one front end to an observation directory — what
// `zofs-bench -obs DIR` publishes: the document (obs.json), the cell log
// (cells.jsonl) and the two record logs (spans.rec, one binary record per
// root span; events.rec, one per device event). Every per-op view — the
// Chrome trace, the persistence audit, the worst ops, the windows diff
// compares — is decoded from the record logs here.
//
// Usage:
//
//	zofs-obs top      [-dir results] [-interval 1s] [-once | -json | -dot waitfor.dot]
//	zofs-obs df       [-image f.zofs] [-files n] [-heatmap wear.jsonl] [-top n] [-validate] [DIR]
//	zofs-obs trace    audit [-max-lost N] DIR | export [-o chrome.json] DIR | worst DIR
//	zofs-obs diff     [-noise 0.05] [-sig 3] [-json] OLD NEW
//	zofs-obs diff     -inject 0.2 -o out.json in.json
//	zofs-obs validate PATH...
//
// Every subcommand exits 0 when clean, 1 on an error or a failed check, 2 on
// a usage error; diff exits 3 on a significant regression.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"zofs/internal/obsfs"
)

type command struct {
	name, desc string
	run        func(args []string, stdout, stderr io.Writer) int
}

var commands = []command{
	{"top", "render an observation directory's document: live, once, as JSON, or its wait-for graph", cmdTop},
	{"df", "byte flow, coffer space and page wear of a demo instance, an image or an observation directory", cmdDF},
	{"trace", "audit a directory's event log, draw it as a Chrome trace, or list its worst ops (audit | export | worst)", cmdTrace},
	{"diff", "compare two performance artifacts; exit 3 on a significant regression", cmdDiff},
	{"validate", "check obs.json files (or the directories holding one) against every panel's invariants", cmdValidate},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return dispatch("zofs-obs", commands, args, stdout, stderr)
}

// dispatch runs the command args[0] names; naming none is a usage error.
func dispatch(prog string, cmds []command, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range cmds {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
	}
	fmt.Fprintf(stderr, "usage: %s <command> [flags]\n\ncommands:\n", prog)
	for _, c := range cmds {
		fmt.Fprintf(stderr, "  %-9s %s\n", c.name, c.desc)
	}
	return 2
}

// newFlags returns a flag set that reports to stderr and leaves exiting to
// the caller.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fl := flag.NewFlagSet("zofs-obs "+name, flag.ContinueOnError)
	fl.SetOutput(stderr)
	return fl
}

// parse reports whether args parse into fl with between min and max
// operands. When they do not, the usage has been printed: exit 2.
func parse(fl *flag.FlagSet, args []string, min, max int) bool {
	if fl.Parse(args) != nil {
		return false // Parse reported the problem and the usage
	}
	if n := fl.NArg(); n < min || n > max {
		fl.Usage()
		return false
	}
	return true
}

// fail prints an error the way every subcommand does and returns status 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "zofs-obs: %v\n", err)
	return 1
}

// readLog decodes one of an observation directory's record logs with read.
// A missing optional log is empty, not an error.
func readLog[T any](dir, name string, optional bool, read func([]byte) ([]T, error)) ([]T, error) {
	path := filepath.Join(dir, name)
	log, err := os.ReadFile(path)
	if err != nil {
		if optional && errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	out, err := read(log)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// create writes an output file through write, "-" meaning stdout.
func create(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cmdValidate runs the document's validator over each PATH: an obs.json
// file, or an observation directory holding one.
func cmdValidate(args []string, stdout, stderr io.Writer) int {
	fl := newFlags("validate", stderr)
	fl.Usage = func() { fmt.Fprintln(stderr, "usage: zofs-obs validate PATH...") }
	if !parse(fl, args, 1, math.MaxInt) {
		return 2
	}
	for _, path := range fl.Args() {
		doc, err := obsfs.Load(path)
		if err == nil {
			err = doc.Validate()
		}
		if err != nil {
			return fail(stderr, fmt.Errorf("%s: %w", path, err))
		}
		fmt.Fprintf(stdout, "%s: OK\n", path)
	}
	return 0
}
