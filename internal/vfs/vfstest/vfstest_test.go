package vfstest_test

import (
	"errors"
	"slices"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/proc"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
	"zofs/internal/vfs/vfstest"
)

// Each fault below plants one departure from the suite's statement in a
// file system that otherwise conforms. They are kept narrow, so that each
// fails a known set of cases and no other.

// listing edits every listing of /ls.
type listing struct {
	vfs.FileSystem
	edit func([]vfs.DirEntry) []vfs.DirEntry
}

func (f listing) ReadDir(th *proc.Thread, path string) ([]vfs.DirEntry, error) {
	ents, err := f.FileSystem.ReadDir(th, path)
	if err != nil || path != "/ls" {
		return ents, err
	}
	return f.edit(slices.Clone(ents)), nil
}

// named is the index of the entry called name.
func named(ents []vfs.DirEntry, name string) int {
	return slices.IndexFunc(ents, func(e vfs.DirEntry) bool { return e.Name == name })
}

// noChmod accepts a chmod and ignores it.
type noChmod struct{ vfs.FileSystem }

func (noChmod) Chmod(*proc.Thread, string, coffer.Mode) error { return nil }

// danglingLink answers every readlink with a target one byte longer.
type danglingLink struct{ vfs.FileSystem }

func (f danglingLink) Readlink(th *proc.Thread, path string) (string, error) {
	target, err := f.FileSystem.Readlink(th, path)
	return target + "x", err
}

// mkdirOverAnything reports success for a mkdir over an existing name.
type mkdirOverAnything struct{ vfs.FileSystem }

func (f mkdirOverAnything) Mkdir(th *proc.Thread, path string, mode coffer.Mode) error {
	if err := f.FileSystem.Mkdir(th, path, mode); !errors.Is(err, vfs.ErrExist) {
		return err
	}
	return nil
}

// handles passes every handle it opens through wrap.
type handles struct {
	vfs.FileSystem
	wrap func(vfs.Handle) vfs.Handle
}

func (f handles) Create(th *proc.Thread, path string, mode coffer.Mode) (vfs.Handle, error) {
	h, err := f.FileSystem.Create(th, path, mode)
	if err != nil {
		return nil, err
	}
	return f.wrap(h), nil
}

func (f handles) Open(th *proc.Thread, path string, flags int) (vfs.Handle, error) {
	h, err := f.FileSystem.Open(th, path, flags)
	if err != nil {
		return nil, err
	}
	return f.wrap(h), nil
}

// staleStat's Stat reports one byte more than the file holds.
type staleStat struct{ vfs.Handle }

func (h staleStat) Stat(th *proc.Thread) (vfs.FileInfo, error) {
	fi, err := h.Handle.Stat(th)
	fi.Size++
	return fi, err
}

// appendOffByOne's Append reports an offset one past where the bytes landed.
type appendOffByOne struct{ vfs.Handle }

func (h appendOffByOne) Append(th *proc.Thread, p []byte) (int64, error) {
	off, err := h.Handle.Append(th, p)
	return off + 1, err
}

// shortByte's WriteAt of a single byte writes it and reports none written.
type shortByte struct{ vfs.Handle }

func (h shortByte) WriteAt(th *proc.Thread, p []byte, off int64) (int, error) {
	n, err := h.Handle.WriteAt(th, p, off)
	if len(p) == 1 {
		n = 0
	}
	return n, err
}

// TestCasesCatchFaults runs every case on Ext4-DAX with each fault planted:
// exactly the cases that state what the fault breaks fail, and with no fault
// none does.
func TestCasesCatchFaults(t *testing.T) {
	for _, c := range []struct {
		name  string
		plant func(vfs.FileSystem) vfs.FileSystem
		fails []string
	}{
		{"none", func(fs vfs.FileSystem) vfs.FileSystem { return fs }, nil},
		{"a listing leaves an entry out", func(fs vfs.FileSystem) vfs.FileSystem {
			return listing{fs, func(e []vfs.DirEntry) []vfs.DirEntry { return slices.Delete(e, named(e, "f10"), named(e, "f10")+1) }}
		}, []string{"ReadDir"}},
		{"a listing repeats an entry", func(fs vfs.FileSystem) vfs.FileSystem {
			return listing{fs, func(e []vfs.DirEntry) []vfs.DirEntry { return append(e, e[named(e, "f10")]) }}
		}, []string{"ReadDir"}},
		{"a listing gives a directory as a file", func(fs vfs.FileSystem) vfs.FileSystem {
			return listing{fs, func(e []vfs.DirEntry) []vfs.DirEntry { e[named(e, "sub")].Type = vfs.TypeRegular; return e }}
		}, []string{"ReadDir"}},
		{"chmod does nothing", func(fs vfs.FileSystem) vfs.FileSystem { return noChmod{fs} }, []string{"ChmodChown"}},
		{"readlink returns another target", func(fs vfs.FileSystem) vfs.FileSystem { return danglingLink{fs} }, []string{"Symlink"}},
		{"mkdir succeeds over an existing name", func(fs vfs.FileSystem) vfs.FileSystem { return mkdirOverAnything{fs} },
			[]string{"MkdirTree"}},
		{"a handle's stat is off by one", func(fs vfs.FileSystem) vfs.FileSystem {
			return handles{fs, func(h vfs.Handle) vfs.Handle { return staleStat{h} }}
		}, []string{"CreateReadWrite", "OpenCreateTrunc"}},
		{"append reports the wrong offset", func(fs vfs.FileSystem) vfs.FileSystem {
			return handles{fs, func(h vfs.Handle) vfs.Handle { return appendOffByOne{h} }}
		}, []string{"AppendReturnsOffset", "ConcurrentWritersDistinctFiles"}},
		{"a write reports a short count", func(fs vfs.FileSystem) vfs.FileSystem {
			return handles{fs, func(h vfs.Handle) vfs.Handle { return shortByte{h} }}
		}, []string{"ShrinkThenExtendByWriteAt"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var failed []string
			for _, k := range vfstest.Cases() {
				in, err := sysfactory.Ext4DAX.New(64 << 20)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.Run(c.plant(in.FS), in.Proc.NewThread()); err != nil {
					failed = append(failed, k.Name)
					t.Logf("%s: %v", k.Name, err)
				}
			}
			if !slices.Equal(failed, c.fails) {
				t.Errorf("failed %v, want %v", failed, c.fails)
			}
		})
	}
}
