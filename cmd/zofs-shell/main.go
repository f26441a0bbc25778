// Command zofs-shell is an interactive shell over a ZoFS device image,
// driving the full Treasury stack (FSLibs dispatcher → ZoFS µFS → KernFS)
// exactly as a preloaded application would.
//
// Usage:
//
//	zofs-shell image.zofs
//
// Commands: ls [path], cat <file>, write <file> <text...>, append <file>
// <text...>, mkdir <dir>, rm <file>, rmdir <dir>, mv <old> <new>,
// ln -s <target> <link>, chmod <octal> <path>, chown <uid> <gid> <path>,
// stat <path>, cd <dir>, pwd, df, wear [n], coffers, recover <path>,
// stats [reset], spans [reset], tail [n], slo [...], sync, quit.
//
// "stats" dumps the per-layer telemetry counters accumulated since the shell
// started (or since the last "stats reset"): NVM media traffic, PKRU
// switches, KernFS call counts. "stats reset" also zeroes the byte-flow
// ledger behind "df" and "wear".
//
// "df" reconciles the byte flow of the session so far (app vs issued vs
// media bytes, write amplification) and prints the per-coffer space table.
// "wear" prints the n hottest pages of the wear heatmap (default 10).
//
// "spans" dumps the observation document for everything typed so far: per-op
// counts, latency quantiles and component breakdowns (media, flush/fence,
// lock wait, PKRU, memcpy, kernel), the critical-path summary and dcache hit
// rates, then the byte-flow, space and timeline panels. "spans reset" zeroes
// the span collector.
//
// "tail" shows the virtual-time windowed view of the session: the latest
// windows with per-op counts and tail quantiles, plus the captured worst-op
// exemplars. "slo <op> <threshold_ns> <target>" installs a latency objective
// ("slo" alone reports burn; "slo clear <op>" removes one).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"zofs/internal/byteflow"
	"zofs/internal/coffer"
	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/obsfs"
	"zofs/internal/proc"
	"zofs/internal/series"
	"zofs/internal/spans"
	"zofs/internal/telemetry"
	"zofs/internal/vfs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main without the exit: it reads commands from stdin until exit or
// EOF, then writes the image back. 0 when the session ended and the image was
// saved, 1 when the image could not be loaded, mounted or saved, 2 on a usage
// error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("zofs-shell", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.Usage = func() { fmt.Fprintln(stderr, "usage: zofs-shell <image>") }
	if fl.Parse(args) != nil {
		return 2
	}
	if fl.NArg() != 1 {
		fl.Usage()
		return 2
	}
	path := fl.Arg(0)
	fatal := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "zofs-shell: "+format+"\n", args...)
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
	dev.SetRecorder(telemetry.New())
	dev.EnableAccounting()
	// Span collection must be on before the shell thread is created so the
	// thread picks up a span context; every command then gets attributed.
	// Exemplar rings ride along so "tail" can show the worst ops.
	spans.Enable(spans.Config{ExemplarK: spans.DefaultExemplarK})
	series.Enable(series.Config{})
	k, err := kernfs.Mount(dev)
	if err != nil {
		return fatal("mount: %v", err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	lib, err := fslibs.Mount(k, th, fslibs.Options{})
	if err != nil {
		return fatal("fslibs: %v", err)
	}
	if err := lib.ZoFS().EnsureRootDir(th); err != nil {
		return fatal("root: %v", err)
	}
	sh := &shell{lib: lib, k: k, th: th, out: stdout, image: path}

	sc := bufio.NewScanner(stdin)
	fmt.Fprintln(stdout, "zofs-shell: Treasury/ZoFS over", path, "- type 'help'")
	for {
		fmt.Fprintf(stdout, "zofs:%s$ ", lib.Getcwd())
		if !sc.Scan() {
			break
		}
		args := strings.Fields(sc.Text())
		if len(args) == 0 {
			continue
		}
		if done := sh.execute(args); done {
			break
		}
	}
	if err := sh.save(); err != nil {
		return fatal("save: %v", err)
	}
	return 0
}

// shell is one session: the mounted stack, the thread every command runs
// on, where the output goes and the image file it writes back to.
type shell struct {
	lib   *fslibs.Lib
	k     *kernfs.KernFS
	th    *proc.Thread
	out   io.Writer
	image string
}

// save writes the device back to the image file.
func (sh *shell) save() error {
	f, err := os.Create(sh.image)
	if err != nil {
		return err
	}
	err = sh.k.Device().SaveImage(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// execute runs one command line and reports whether the session ends.
func (sh *shell) execute(args []string) bool {
	lib, k, th, out := sh.lib, sh.k, sh.th, sh.out
	cmd := args[0]
	fail := func(err error) { fmt.Fprintln(out, cmd+":", err) }
	switch cmd {
	case "help":
		fmt.Fprintln(out, "ls cat write append mkdir rm rmdir mv ln chmod chown stat cd pwd df wear coffers recover stats spans tail slo sync quit")
		fmt.Fprintln(out, "stats [reset]: dump (or zero) per-layer telemetry counters")
		fmt.Fprintln(out, "spans [reset]: dump (or zero) per-op latencies and their causal-span attribution")
		fmt.Fprintln(out, "tail [n]: latest n virtual-time windows (default 10) and worst-op exemplars")
		fmt.Fprintln(out, "slo [<op> <threshold_ns> <target> | clear <op>]: report, install or remove latency objectives")
		fmt.Fprintln(out, "df: byte-flow reconciliation and per-coffer space table")
		fmt.Fprintln(out, "wear [n]: n hottest pages of the wear heatmap (default 10)")
	case "quit", "exit":
		return true
	case "sync":
		if err := sh.save(); err != nil {
			fail(err)
		}
	case "pwd":
		fmt.Fprintln(out, lib.Getcwd())
	case "cd":
		if len(args) == 2 {
			if err := lib.Chdir(th, args[1]); err != nil {
				fail(err)
			}
		}
	case "ls":
		p := "."
		if len(args) > 1 {
			p = args[1]
		}
		ents, err := lib.ReadDir(th, p)
		if err != nil {
			fail(err)
			return false
		}
		for _, e := range ents {
			marker := ""
			if e.Coffer != 0 {
				marker = fmt.Sprintf("  [coffer %d]", e.Coffer)
			}
			fmt.Fprintf(out, "%-8s %s%s\n", e.Type, e.Name, marker)
		}
	case "cat":
		if len(args) != 2 {
			return false
		}
		fd, err := lib.Open(th, args[1], vfs.O_RDONLY, 0)
		if err != nil {
			fail(err)
			return false
		}
		defer lib.Close(th, fd)
		buf := make([]byte, 64<<10)
		for {
			n, err := lib.Read(th, fd, buf)
			if n > 0 {
				out.Write(buf[:n])
			}
			if err != nil || n == 0 {
				break
			}
		}
		fmt.Fprintln(out)
	case "write", "append":
		if len(args) < 3 {
			return false
		}
		flags := vfs.O_CREATE | vfs.O_WRONLY
		if cmd == "append" {
			flags |= vfs.O_APPEND
		} else {
			flags |= vfs.O_TRUNC
		}
		fd, err := lib.Open(th, args[1], flags, 0o644)
		if err != nil {
			fail(err)
			return false
		}
		if _, err := lib.Write(th, fd, []byte(strings.Join(args[2:], " ")+"\n")); err != nil {
			fail(err)
		}
		lib.Close(th, fd)
	case "mkdir":
		if len(args) == 2 {
			if err := lib.Mkdir(th, args[1], 0o755); err != nil {
				fail(err)
			}
		}
	case "rm":
		if len(args) == 2 {
			if err := lib.Unlink(th, args[1]); err != nil {
				fail(err)
			}
		}
	case "rmdir":
		if len(args) == 2 {
			if err := lib.Rmdir(th, args[1]); err != nil {
				fail(err)
			}
		}
	case "mv":
		if len(args) == 3 {
			if err := lib.Rename(th, args[1], args[2]); err != nil {
				fail(err)
			}
		}
	case "ln":
		if len(args) == 4 && args[1] == "-s" {
			if err := lib.Symlink(th, args[2], args[3]); err != nil {
				fail(err)
			}
		}
	case "chmod":
		if len(args) == 3 {
			m, err := strconv.ParseUint(args[1], 8, 32)
			if err != nil {
				fail(err)
				return false
			}
			if err := lib.Chmod(th, args[2], coffer.Mode(m)); err != nil {
				fail(err)
			}
		}
	case "chown":
		if len(args) == 4 {
			uid, _ := strconv.Atoi(args[1])
			gid, _ := strconv.Atoi(args[2])
			if err := lib.Chown(th, args[3], uint32(uid), uint32(gid)); err != nil {
				fail(err)
			}
		}
	case "stat":
		if len(args) == 2 {
			fi, err := lib.Stat(th, args[1])
			if err != nil {
				fail(err)
				return false
			}
			fmt.Fprintf(out, "%s: %s mode=%o uid=%d gid=%d size=%d nlink=%d coffer=%d inode=%d\n",
				args[1], fi.Type, fi.Mode, fi.UID, fi.GID, fi.Size, fi.Nlink, fi.Coffer, fi.Inode)
		}
	case "stats":
		rec := k.Device().Recorder()
		if len(args) == 2 && args[1] == "reset" {
			rec.Reset()
			k.Device().ResetAccounting()
			fmt.Fprintln(out, "stats reset")
			return false
		}
		if len(args) > 1 {
			fail(fmt.Errorf("usage: stats [reset]"))
			return false
		}
		if err := rec.Snapshot().WriteText(out); err != nil {
			fail(err)
		}
	case "spans":
		col := spans.Active()
		if col == nil {
			fmt.Fprintln(out, "spans: collection is off")
			return false
		}
		if len(args) == 2 && args[1] == "reset" {
			col.Reset()
			fmt.Fprintln(out, "spans reset")
			return false
		}
		if len(args) > 1 {
			fail(fmt.Errorf("usage: spans [reset]"))
			return false
		}
		if err := obsfs.Collect(lib.ZoFS()).WriteText(out); err != nil {
			fail(err)
		}
	case "tail":
		sc := series.Active()
		if sc == nil {
			fmt.Fprintln(out, "tail: series collection is off")
			return false
		}
		n := 10
		if len(args) == 2 {
			if v, err := strconv.Atoi(args[1]); err == nil && v > 0 {
				n = v
			}
		}
		wins, snap := sc.Windows(), sc.Snapshot()
		fmt.Fprintf(out, "tail: %d observations, %d windows of %d ns (%d observations evicted)\n",
			snap.Observations, len(wins), snap.WidthNS, snap.Evicted)
		if len(wins) > n {
			wins = wins[len(wins)-n:]
		}
		t := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(t, "window\tstart ms\top\tcount\tmean ns\tp50\tp99\tp999\tburn")
		for _, win := range wins {
			names := make([]string, 0, len(win.Ops))
			for name := range win.Ops {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				ow := win.Ops[name]
				fmt.Fprintf(t, "%d\t%.3f\t%s\t%d\t%d\t%d\t%d\t%d\t%.2f\n",
					win.Index, float64(win.StartNS)/1e6, name,
					ow.Count, ow.MeanNS, ow.P50NS, ow.P99NS, ow.P999NS, ow.SLOBurn)
			}
		}
		t.Flush()
		if exs := spans.Active().Exemplars(); len(exs) > 0 {
			fmt.Fprintf(out, "worst-op exemplars (%d captured):\n", spans.Active().ExemplarsCaptured())
			t = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
			fmt.Fprintln(t, "op\tdur ns\tstart ms\tlocks\tevents")
			for _, ex := range exs {
				fmt.Fprintf(t, "%s\t%d\t%.3f\t%d\t%d\n",
					ex.Root.Op, ex.Root.Dur, float64(ex.Root.Start)/1e6, len(ex.Locks), len(ex.Events))
			}
			t.Flush()
		}
	case "slo":
		sc := series.Active()
		if sc == nil {
			fmt.Fprintln(out, "slo: series collection is off")
			return false
		}
		opByName := func(name string) (telemetry.Op, bool) {
			for i := 0; i < int(telemetry.NumOps); i++ {
				if telemetry.Op(i).Name() == name {
					return telemetry.Op(i), true
				}
			}
			return 0, false
		}
		switch {
		case len(args) == 1:
			slos := sc.SLOs()
			if len(slos) == 0 {
				fmt.Fprintln(out, "slo: no objectives installed (slo <op> <threshold_ns> <target>)")
				return false
			}
			t := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
			fmt.Fprintln(t, "op\tthreshold ns\ttarget\ttotal\tbad\tburn\tlast burn")
			for _, s := range slos {
				fmt.Fprintf(t, "%s\t%d\t%.6f\t%d\t%d\t%.3f\t%.3f\n",
					s.Op, s.ThresholdNS, s.Target, s.Total, s.Bad, s.Burn, s.LastBurn)
			}
			t.Flush()
		case len(args) == 3 && args[1] == "clear":
			op, ok := opByName(args[2])
			if !ok {
				fail(fmt.Errorf("unknown op %q", args[2]))
				return false
			}
			sc.SetSLO(op, 0, 0)
			fmt.Fprintf(out, "slo cleared for %s\n", args[2])
		case len(args) == 4:
			op, ok := opByName(args[1])
			if !ok {
				fail(fmt.Errorf("unknown op %q", args[1]))
				return false
			}
			thr, err := strconv.ParseInt(args[2], 10, 64)
			if err != nil || thr <= 0 {
				fail(fmt.Errorf("bad threshold %q", args[2]))
				return false
			}
			target, err := strconv.ParseFloat(args[3], 64)
			if err != nil || target < 0 || target >= 1 {
				fail(fmt.Errorf("bad target %q (want [0,1))", args[3]))
				return false
			}
			sc.SetSLO(op, thr, target)
			fmt.Fprintf(out, "slo set: %s within %d ns for %.6f of ops\n", args[1], thr, target)
		default:
			fail(fmt.Errorf("usage: slo [<op> <threshold_ns> <target> | clear <op>]"))
		}
	case "df":
		fmt.Fprintf(out, "%d free pages of %d\n", k.FreePages(), k.Device().Pages())
		doc := obsfs.Collect(lib.ZoFS())
		if err := (obsfs.Doc{Flow: doc.Flow, Space: doc.Space}).WriteText(out); err != nil {
			fail(err)
		}
	case "wear":
		n := 10
		if len(args) == 2 {
			if v, err := strconv.Atoi(args[1]); err == nil && v > 0 {
				n = v
			}
		}
		if err := byteflow.WriteWearText(out, lib.ZoFS().WearReport(), n); err != nil {
			fail(err)
		}
	case "coffers":
		for _, id := range k.Coffers() {
			info, _ := k.Info(id)
			fmt.Fprintf(out, "coffer %-8d %-30s mode=%o uid=%d gid=%d\n", id, info.Path, info.Mode, info.UID, info.GID)
		}
	case "recover":
		if len(args) == 2 {
			id, _, ok := k.ResolveLongest(th.Clk, args[1])
			if !ok {
				fmt.Fprintln(out, "recover: no such coffer")
				return false
			}
			st, err := lib.ZoFS().RecoverCoffer(th, id)
			if err != nil {
				fail(err)
				return false
			}
			fmt.Fprintf(out, "recovered coffer %d: kept %d, reclaimed %d, fixed %d, leases %d\n",
				id, st.PagesKept, st.PagesReclaimed, st.DentriesFixed, st.LeasesCleared)
		}
	default:
		fmt.Fprintln(out, "unknown command:", cmd)
	}
	return false
}
