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
// "stats" dumps the per-layer telemetry accumulated since the shell started
// (or since the last "stats reset"): NVM media traffic, PKRU switches,
// KernFS call counts, and per-operation simulated-latency quantiles.
// "stats reset" also zeroes the byte-flow ledger behind "df" and "wear".
//
// "df" reconciles the byte flow of the session so far (app vs issued vs
// media bytes, write amplification) and prints the per-coffer space table.
// "wear" prints the n hottest pages of the wear heatmap (default 10).
//
// "spans" dumps the observation document for everything typed so far: per-op
// component breakdowns (media, flush/fence, lock wait, PKRU, memcpy, kernel),
// the critical-path summary and dcache hit rates, then the byte-flow, space
// and timeline panels. "spans reset" zeroes the span collector.
//
// "tail" shows the virtual-time windowed view of the session: the latest
// windows with per-op counts and tail quantiles, plus the captured worst-op
// exemplars. "slo <op> <threshold_ns> <target>" installs a latency objective
// ("slo" alone reports burn; "slo clear <op>" removes one).
package main

import (
	"bufio"
	"fmt"
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

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: zofs-shell <image>")
		os.Exit(2)
	}
	path := os.Args[1]
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	dev, err := nvm.LoadImage(f)
	f.Close()
	if err != nil {
		fatal("load: %v", err)
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
		fatal("mount: %v", err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	lib, err := fslibs.Mount(k, th, fslibs.Options{})
	if err != nil {
		fatal("fslibs: %v", err)
	}
	if err := lib.ZoFS().EnsureRootDir(th); err != nil {
		fatal("root: %v", err)
	}
	save := func() {
		out, err := os.Create(path)
		if err != nil {
			fmt.Println("save failed:", err)
			return
		}
		defer out.Close()
		if err := dev.SaveImage(out); err != nil {
			fmt.Println("save failed:", err)
		}
	}

	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("zofs-shell: Treasury/ZoFS over", path, "- type 'help'")
	for {
		fmt.Printf("zofs:%s$ ", lib.Getcwd())
		if !sc.Scan() {
			break
		}
		args := strings.Fields(sc.Text())
		if len(args) == 0 {
			continue
		}
		if done := execute(lib, k, th, args, save); done {
			break
		}
	}
	save()
}

func execute(lib *fslibs.Lib, k *kernfs.KernFS, th *proc.Thread, args []string, save func()) bool {
	cmd := args[0]
	fail := func(err error) { fmt.Println(cmd+":", err) }
	switch cmd {
	case "help":
		fmt.Println("ls cat write append mkdir rm rmdir mv ln chmod chown stat cd pwd df wear coffers recover stats spans tail slo sync quit")
		fmt.Println("stats [reset]: dump (or zero) per-layer telemetry counters and latencies")
		fmt.Println("spans [reset]: dump (or zero) causal-span latency attribution")
		fmt.Println("tail [n]: latest n virtual-time windows (default 10) and worst-op exemplars")
		fmt.Println("slo [<op> <threshold_ns> <target> | clear <op>]: report, install or remove latency objectives")
		fmt.Println("df: byte-flow reconciliation and per-coffer space table")
		fmt.Println("wear [n]: n hottest pages of the wear heatmap (default 10)")
	case "quit", "exit":
		return true
	case "sync":
		save()
	case "pwd":
		fmt.Println(lib.Getcwd())
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
			fmt.Printf("%-8s %s%s\n", e.Type, e.Name, marker)
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
				os.Stdout.Write(buf[:n])
			}
			if err != nil || n == 0 {
				break
			}
		}
		fmt.Println()
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
			fmt.Printf("%s: %s mode=%o uid=%d gid=%d size=%d nlink=%d coffer=%d inode=%d\n",
				args[1], fi.Type, fi.Mode, fi.UID, fi.GID, fi.Size, fi.Nlink, fi.Coffer, fi.Inode)
		}
	case "stats":
		rec := k.Device().Recorder()
		if len(args) == 2 && args[1] == "reset" {
			rec.Reset()
			k.Device().ResetAccounting()
			fmt.Println("stats reset")
			return false
		}
		if len(args) > 1 {
			fail(fmt.Errorf("usage: stats [reset]"))
			return false
		}
		if err := rec.Snapshot().WriteText(os.Stdout); err != nil {
			fail(err)
		}
	case "spans":
		col := spans.Active()
		if col == nil {
			fmt.Println("spans: collection is off")
			return false
		}
		if len(args) == 2 && args[1] == "reset" {
			col.Reset()
			fmt.Println("spans reset")
			return false
		}
		if len(args) > 1 {
			fail(fmt.Errorf("usage: spans [reset]"))
			return false
		}
		if err := obsfs.Collect(lib.ZoFS()).WriteText(os.Stdout); err != nil {
			fail(err)
		}
	case "tail":
		sc := series.Active()
		if sc == nil {
			fmt.Println("tail: series collection is off")
			return false
		}
		n := 10
		if len(args) == 2 {
			if v, err := strconv.Atoi(args[1]); err == nil && v > 0 {
				n = v
			}
		}
		wins, snap := sc.Windows(), sc.Snapshot()
		fmt.Printf("tail: %d observations, %d windows of %d ns (%d spilled)\n",
			snap.Observations, len(wins), snap.WidthNS, snap.Spilled)
		if len(wins) > n {
			wins = wins[len(wins)-n:]
		}
		t := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
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
			fmt.Printf("worst-op exemplars (%d captured):\n", spans.Active().ExemplarsCaptured())
			t = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(t, "op\tdur ns\tstart ms\tthreshold ns\tlocks\tevents")
			for _, ex := range exs {
				fmt.Fprintf(t, "%s\t%d\t%.3f\t%d\t%d\t%d\n",
					ex.Root.Op, ex.Root.Dur, float64(ex.Root.Start)/1e6,
					ex.ThresholdNS, len(ex.Locks), len(ex.Events))
			}
			t.Flush()
		}
	case "slo":
		sc := series.Active()
		if sc == nil {
			fmt.Println("slo: series collection is off")
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
				fmt.Println("slo: no objectives installed (slo <op> <threshold_ns> <target>)")
				return false
			}
			t := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
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
			fmt.Printf("slo cleared for %s\n", args[2])
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
			fmt.Printf("slo set: %s within %d ns for %.6f of ops\n", args[1], thr, target)
		default:
			fail(fmt.Errorf("usage: slo [<op> <threshold_ns> <target> | clear <op>]"))
		}
	case "df":
		fmt.Printf("%d free pages of %d\n", k.FreePages(), k.Device().Pages())
		doc := obsfs.Collect(lib.ZoFS())
		if err := (obsfs.Doc{Flow: doc.Flow, Space: doc.Space}).WriteText(os.Stdout); err != nil {
			fail(err)
		}
	case "wear":
		n := 10
		if len(args) == 2 {
			if v, err := strconv.Atoi(args[1]); err == nil && v > 0 {
				n = v
			}
		}
		if err := byteflow.WriteWearText(os.Stdout, lib.ZoFS().WearReport(), n); err != nil {
			fail(err)
		}
	case "coffers":
		for _, id := range k.Coffers() {
			info, _ := k.Info(id)
			fmt.Printf("coffer %-8d %-30s mode=%o uid=%d gid=%d\n", id, info.Path, info.Mode, info.UID, info.GID)
		}
	case "recover":
		if len(args) == 2 {
			id, _, ok := k.ResolveLongest(th.Clk, args[1])
			if !ok {
				fmt.Println("recover: no such coffer")
				return false
			}
			st, err := lib.ZoFS().RecoverCoffer(th, id)
			if err != nil {
				fail(err)
				return false
			}
			fmt.Printf("recovered coffer %d: kept %d, reclaimed %d, fixed %d, leases %d\n",
				id, st.PagesKept, st.PagesReclaimed, st.DentriesFixed, st.LeasesCleared)
		}
	default:
		fmt.Println("unknown command:", cmd)
	}
	return false
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "zofs-shell: "+format+"\n", args...)
	os.Exit(1)
}
