// Command zofs-mkfs formats a simulated NVM device image with the Treasury
// on-device structures (superblock, allocation table, path table) and the
// root ZoFS coffer, then writes the image to a host file.
//
// Usage:
//
//	zofs-mkfs -size 256M -mode 0755 image.zofs
//
// Exit codes: 0 the image was written; 1 it could not be formatted or
// written; 2 usage or a flag value that does not parse.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"zofs/internal/coffer"
	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
)

func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n * mult, err
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("zofs-mkfs", flag.ContinueOnError)
	fl.SetOutput(stderr)
	size := fl.String("size", "256M", "device size (K/M/G suffixes)")
	mode := fl.String("mode", "0755", "root directory permission (octal)")
	uid := fl.Uint("uid", 0, "root directory owner uid")
	gid := fl.Uint("gid", 0, "root directory owner gid")
	if fl.Parse(args) != nil {
		return 2
	}
	if fl.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: zofs-mkfs [-size N] [-mode 0755] <image>")
		return 2
	}
	// fatal reports a failure (status 1) or, for a flag value, misuse (2).
	fatal := func(status int, format string, args ...any) int {
		fmt.Fprintf(stderr, "zofs-mkfs: "+format+"\n", args...)
		return status
	}

	bytes, err := parseSize(*size)
	if err != nil || bytes <= 0 {
		return fatal(2, "bad -size %q", *size)
	}
	m, err := strconv.ParseUint(strings.TrimPrefix(*mode, "0o"), 8, 32)
	if err != nil {
		return fatal(2, "bad -mode %q", *mode)
	}

	dev := nvm.NewDevice(bytes)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{
		RootMode: coffer.Mode(m), RootUID: uint32(*uid), RootGID: uint32(*gid),
	}); err != nil {
		return fatal(1, "mkfs: %v", err)
	}
	// Initialize the root directory inode through a root process, exactly
	// as first mount would.
	k, err := kernfs.Mount(dev)
	if err != nil {
		return fatal(1, "mount: %v", err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	l, err := fslibs.Mount(k, th, fslibs.Options{})
	if err != nil {
		return fatal(1, "fslibs: %v", err)
	}
	if err := l.ZoFS().EnsureRootDir(th); err != nil {
		return fatal(1, "root dir: %v", err)
	}

	f, err := os.Create(fl.Arg(0))
	if err != nil {
		return fatal(1, "%v", err)
	}
	if err := dev.SaveImage(f); err != nil {
		f.Close()
		return fatal(1, "save: %v", err)
	}
	if err := f.Close(); err != nil {
		return fatal(1, "save: %v", err)
	}
	fmt.Fprintf(stdout, "formatted %s: %d pages, root coffer %d (mode %o), image %s\n",
		fl.Arg(0), dev.Pages(), k.RootCoffer(), m, fl.Arg(0))
	return 0
}
