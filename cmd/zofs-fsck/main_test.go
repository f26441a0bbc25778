package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// Superblock words the planted images edit (kernfs's on-NVM format).
const (
	sbAllocPage = 16
	sbPathPage  = 32
	sbRoot      = 48
)

func sbWord(dev *nvm.Device, off int64) int64 {
	var w [8]byte
	dev.ReadNoCharge(off, w[:])
	return int64(binary.LittleEndian.Uint64(w[:]))
}

// image formats a device and saves it under dir: bare as mkfs leaves it, or
// with the root directory a first mount initialises and the files, each
// created with its mode (one the root coffer does not have makes a coffer of
// its own); then the edit made.
func image(t *testing.T, dir, name string, mounted bool, files map[string]coffer.Mode, edit func(*nvm.Device)) string {
	t.Helper()
	dev := nvm.NewDevice(16 << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	if mounted {
		k, err := kernfs.Mount(dev)
		if err != nil {
			t.Fatal(err)
		}
		th := proc.NewProcess(dev, 0, 0).NewThread()
		l, err := fslibs.Mount(k, th, fslibs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.ZoFS().EnsureRootDir(th); err != nil {
			t.Fatal(err)
		}
		for p, mode := range files {
			fd, err := l.Open(th, p, vfs.O_CREATE|vfs.O_RDWR, mode)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(th, fd); err != nil {
				t.Fatal(err)
			}
		}
	}
	if edit != nil {
		edit(dev)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dev.SaveImage(f); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// TestExitCodes is the tool's exit-code contract, one row per way in: 0 the
// image was checked and is clean or repaired, 1 it could not be read, 2 a
// usage error, 4 a finding left unrepaired. Each invariant zofs.Check
// registers has a planted image, and so has a repaired traversal finding;
// the row names what the tool must print about it. owners_live is the
// exception: Mount frees the pages of an owner no path entry publishes
// before Check runs, so no image reaches it (zofs's
// TestCrashInsideCofferDeleteFreesItsPages sees it report without Mount's
// release).
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	img, bare := image(t, dir, "t.zofs", true, nil, nil), image(t, dir, "bare.zofs", false, nil, nil)
	// A device formatted before ZoFS inodes put their indirect words ahead
	// of the direct slots: its superblock carries the old magic.
	old := image(t, dir, "old.zofs", true, nil, func(dev *nvm.Device) {
		var magic [8]byte
		binary.LittleEndian.PutUint64(magic[:], 0x5A6F46535F535550) // "ZoFS_SUP"
		dev.WriteNT(nil, 0, magic[:])
	})
	garbage := filepath.Join(dir, "garbage.zofs")
	if err := os.WriteFile(garbage, []byte("not an image"), 0o644); err != nil {
		t.Fatal(err)
	}

	// fsck: a bit flipped in a dentry's name breaks its hash, and the
	// traversal drops the dentry.
	const victim = "torn-dentry-victim"
	torn := image(t, dir, "torn.zofs", true, map[string]coffer.Mode{"/" + victim: 0o755}, func(dev *nvm.Device) {
		buf := make([]byte, nvm.PageSize)
		for pg := int64(0); pg < dev.Pages(); pg++ {
			dev.ReadNoCharge(pg*nvm.PageSize, buf)
			if i := bytes.Index(buf, []byte(victim)); i >= 0 {
				buf[i] ^= 1
				dev.WriteNT(nil, pg*nvm.PageSize+int64(i), buf[i:i+1])
				return
			}
		}
		t.Fatal("no dentry names " + victim)
	})
	// zeroed_pages_zero: the device's last page was never granted, so its
	// allocation-table slot flags it zeroed; a byte in it is not repaired.
	zeroed := image(t, dir, "zeroed.zofs", true, nil, func(dev *nvm.Device) {
		dev.WriteNT(nil, (dev.Pages()-1)*nvm.PageSize, []byte{1})
	})
	// space_conserved: the slot of the root coffer's root page says free.
	// Mount rebuilds the kernel's extent sets from the table, so they agree
	// with the slot; the coffer registry does not, and nothing repairs it.
	slot := image(t, dir, "slot.zofs", true, nil, func(dev *nvm.Device) {
		off := sbWord(dev, sbAllocPage)*nvm.PageSize + sbWord(dev, sbRoot)*8
		dev.WriteNT(nil, off, []byte{0, 0, 0, 0, 1, 0, 0, 0})
	})
	// path_mirror: the root coffer's path-table entry stores a wrong hash.
	// Mount mirrors the entry as it finds it, so the mirror keeps it and
	// nothing repairs it.
	paths := image(t, dir, "paths.zofs", true, nil, func(dev *nvm.Device) {
		h := fnv.New64a()
		h.Write([]byte("/"))
		bucket := sbWord(dev, sbPathPage)*nvm.PageSize + int64(h.Sum64()%4096)*8
		entry := sbWord(dev, bucket)*nvm.PageSize + 16 // past the entry page's header
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], h.Sum64()^1)
		dev.WriteNT(nil, entry, w[:])
	})

	for _, c := range []struct {
		args  []string
		want  int
		print string // a line of stdout must hold it
	}{
		{[]string{"-n", img}, 0, "total: 1 coffers"},
		{[]string{img}, 0, ""}, // written back
		{[]string{"-n", img}, 0, ""},
		{[]string{filepath.Join(dir, "missing.zofs")}, 1, ""},
		{[]string{garbage}, 1, ""},
		{[]string{"-n", old}, 1, ""},
		// fsck gives the never-mounted image its root directory.
		{[]string{"-n", bare}, 0, ""},
		{[]string{"-n", torn}, 0, "torn_dentry (repaired)"},
		{[]string{torn}, 0, "torn_dentry (repaired)"}, // written back
		{[]string{"-n", torn}, 0, " 0 repairs"},       // the written-back image is clean
		{[]string{"-n", zeroed}, 4, "zeroed_pages_zero: coffer 0 at"},
		{[]string{"-n", slot}, 4, "space_conserved: coffer"},
		{[]string{"-n", paths}, 4, "path_mirror: coffer"},
		{[]string{paths}, 4, "path_mirror: coffer"}, // written back unrepaired
		{[]string{"-n", paths}, 4, "path_mirror: coffer"},
		{nil, 2, ""},
		{[]string{img, "second-operand"}, 2, ""},
		{[]string{"-no-such-flag", img}, 2, ""},
	} {
		var out bytes.Buffer
		if got := run(c.args, &out, io.Discard); got != c.want {
			t.Errorf("zofs-fsck %v exits %d, want %d; stdout:\n%s", c.args, got, c.want, &out)
		}
		if !strings.Contains(out.String(), c.print) {
			t.Errorf("zofs-fsck %v printed no %q; stdout:\n%s", c.args, c.print, &out)
		}
	}
}

// TestOutputIsDeterministic: two runs over one multi-coffer image print the
// same bytes, the coffers in ascending ID order.
func TestOutputIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	img := image(t, dir, "multi.zofs", true, map[string]coffer.Mode{
		"/a": 0o600, "/b": 0o640, "/c": 0o604, "/d": 0o660, "/e": 0o700,
	}, nil)
	var first, second bytes.Buffer
	if run([]string{"-n", img}, &first, io.Discard) != 0 || run([]string{"-n", img}, &second, io.Discard) != 0 {
		t.Fatalf("zofs-fsck failed:\n%s", &first)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two runs over one image differ:\n%s\n--- and ---\n%s", &first, &second)
	}
	var n, last int
	for _, line := range strings.Split(first.String(), "\n") {
		var id int
		if _, err := fmt.Sscanf(line, "coffer %d", &id); err == nil {
			if id <= last {
				t.Fatalf("coffer %d printed after coffer %d:\n%s", id, last, &first)
			}
			n, last = n+1, id
		}
	}
	if n != 6 {
		t.Fatalf("printed %d coffers, want 6:\n%s", n, &first)
	}
}
