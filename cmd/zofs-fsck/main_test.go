package main

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
)

// TestExitCodes is the tool's exit-code contract, one row per way in: 0 the
// image was checked, 1 it could not be read, 2 a usage error.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	// image formats a device and saves it: bare as mkfs leaves it, or with
	// the root directory a first mount initialises, and then the edit made.
	image := func(name string, mounted bool, edit func(*nvm.Device)) string {
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
	img, bare := image("t.zofs", true, nil), image("bare.zofs", false, nil)
	// A device formatted before ZoFS inodes put their indirect words ahead
	// of the direct slots: its superblock carries the old magic.
	old := image("old.zofs", true, func(dev *nvm.Device) {
		var magic [8]byte
		binary.LittleEndian.PutUint64(magic[:], 0x5A6F46535F535550) // "ZoFS_SUP"
		dev.WriteNT(nil, 0, magic[:])
	})
	garbage := filepath.Join(dir, "garbage.zofs")
	if err := os.WriteFile(garbage, []byte("not an image"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-n", img}, 0},
		{[]string{img}, 0}, // written back
		{[]string{"-n", img}, 0},
		{[]string{filepath.Join(dir, "missing.zofs")}, 1},
		{[]string{garbage}, 1},
		{[]string{"-n", old}, 1},
		// fsck gives the never-mounted image its root directory.
		{[]string{"-n", bare}, 0},
		{nil, 2},
		{[]string{img, "second-operand"}, 2},
		{[]string{"-no-such-flag", img}, 2},
	} {
		if got := run(c.args, io.Discard, io.Discard); got != c.want {
			t.Errorf("zofs-fsck %v exits %d, want %d", c.args, got, c.want)
		}
	}
}
