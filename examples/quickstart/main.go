// Quickstart: format a simulated NVM device, mount the Treasury stack
// (KernFS + FSLibs + ZoFS), and exercise the public API end to end —
// files, directories, symlinks, permission-driven coffer creation, crash
// simulation and recovery.
package main

import (
	"fmt"
	"log"

	"zofs/internal/coffer"
	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

func main() {
	// 1. A 256MB simulated Optane DIMM, formatted with Treasury's kernel
	//    structures and a root ZoFS coffer.
	dev := nvm.NewDevice(256 << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		log.Fatal(err)
	}

	// 2. Boot: KernFS mounts the image, and a root process mounts FSLibs
	//    (the user-space library an application would get via LD_PRELOAD).
	in, err := sysfactory.Boot(dev, zofs.Options{})
	if err != nil {
		log.Fatal(err)
	}
	k, lib, th := in.Kern, in.Lib, in.Thread
	if err := lib.ZoFS().EnsureRootDir(th); err != nil {
		log.Fatal(err)
	}

	// 3. Ordinary POSIX-style usage through the FD table.
	must(lib.Mkdir(th, "/projects", 0o755))
	fd, err := lib.Open(th, "/projects/notes.txt", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	must(err)
	_, err = lib.Write(th, fd, []byte("coffers separate protection from management\n"))
	must(err)
	lib.Lseek(th, fd, 0, fslibs.SeekSet)
	buf := make([]byte, 64)
	n, _ := lib.Read(th, fd, buf)
	fmt.Printf("read back: %q\n", buf[:n])
	must(lib.Close(th, fd))

	must(lib.Symlink(th, "/projects/notes.txt", "/latest"))
	fi, err := lib.Stat(th, "/latest") // follows the link via re-dispatch
	must(err)
	fmt.Printf("via symlink: %s, %d bytes, mode %o\n", fi.Type, fi.Size, fi.Mode)

	// 4. A file with a different permission becomes its own coffer.
	pfd, err := lib.Open(th, "/projects/secret.key", vfs.O_CREATE|vfs.O_RDWR, 0o600)
	must(err)
	lib.Write(th, pfd, []byte("s3cr3t"))
	lib.Close(th, pfd)
	for _, id := range k.Coffers() {
		info, _ := k.Info(id)
		fmt.Printf("coffer %-6d path=%-22s mode=%o\n", id, info.Path, info.Mode)
	}

	// 5. chmod on an in-coffer file splits the coffer (the paper's §6.4
	//    worst case, demonstrated).
	before := len(k.Coffers())
	must(lib.Chmod(th, "/projects/notes.txt", 0o600))
	fmt.Printf("chmod split the coffer: %d -> %d coffers\n", before, len(k.Coffers()))

	// 6. Crash simulation: unflushed cached stores vanish, and so does
	//    DRAM; the machine boots again, zofs.Check's recovery reclaims
	//    whatever the crash leaked, and its invariants must all hold after.
	dev.Crash()
	in2, err := sysfactory.Boot(dev, zofs.Options{})
	must(err)
	found := zofs.Check(in2.Kern, in2.Thread)
	must(found.Err())
	var reclaimed int64
	for _, c := range found.Coffers {
		reclaimed += c.PagesReclaimed
	}
	fmt.Printf("after crash: fsck checked %d coffers, reclaimed %d pages\n", len(found.Coffers), reclaimed)

	// 7. Everything is still there (a fresh process mounts and reads).
	reader, err := in2.Spawn(0, 0)
	must(err)
	fi2, err := reader.Lib.Stat(reader.Thread, "/projects/notes.txt")
	must(err)
	fmt.Printf("post-recovery: notes.txt %d bytes, mode %o (coffer %d)\n", fi2.Size, fi2.Mode, fi2.Coffer)
	_ = coffer.Mode(0)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
