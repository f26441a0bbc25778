package vfs

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"zofs/internal/coffer"
	"zofs/internal/proc"
)

// Model is a reference statement of what a file system's tree should hold:
// its live files, in creation order, with their bytes, modes and any owner
// set, its directories, in creation order with "/" first, and its symlinks'
// targets. Callers apply to it each operation the file system under test
// completed, with the bytes they wrote, and then Check the file system
// against it. The conformance suite, the crash checker, the chaos campaign
// and the ZoFS property test all state their expectations here.
//
// Creation order is what a seeded workload indexes to pick a file, so it is
// kept exactly: a rename keeps the file's place, an unlink keeps the others'
// order. A Model is not safe for concurrent use.
type Model struct {
	files []*file
	dirs  []string
	links []*link
}

type file struct {
	path     string
	mode     coffer.Mode
	data     []byte
	owned    bool // Chown set uid and gid
	uid, gid uint32
}

type link struct{ path, target string }

// NewModel returns a model of an empty tree: the root directory alone.
func NewModel() *Model { return &Model{dirs: []string{"/"}} }

// Len is the number of live files.
func (m *Model) Len() int { return len(m.files) }

// Path is the path of the i-th live file in creation order.
func (m *Model) Path(i int) string { return m.files[i].path }

// Dirs lists the directories in creation order, "/" first. The slice is the
// model's own: callers do not modify it.
func (m *Model) Dirs() []string { return m.dirs }

// Data returns a file's bytes, which callers do not modify, and whether the
// model holds a file at path.
func (m *Model) Data(path string) ([]byte, bool) {
	if i := m.index(path); i >= 0 {
		return m.files[i].data, true
	}
	return nil, false
}

func (m *Model) index(path string) int {
	return slices.IndexFunc(m.files, func(f *file) bool { return f.path == path })
}

// Create records creat(2): a new empty file at the end of creation order, or,
// over an existing file, that file truncated to zero with its mode and place
// kept.
func (m *Model) Create(path string, mode coffer.Mode) {
	if i := m.index(path); i >= 0 {
		m.files[i].data = nil
		return
	}
	m.files = append(m.files, &file{path: path, mode: mode})
}

// Mkdir records a new directory.
func (m *Model) Mkdir(path string) { m.dirs = append(m.dirs, path) }

// Write records p written at off into an existing file, zero-extending it
// first when off lies past its end.
func (m *Model) Write(path string, p []byte, off int64) {
	f := m.files[m.index(path)]
	if end := off + int64(len(p)); end > int64(len(f.data)) {
		m.Truncate(path, end)
	}
	copy(f.data[off:], p)
}

// Truncate records a file cut or zero-extended to size.
func (m *Model) Truncate(path string, size int64) {
	f := m.files[m.index(path)]
	n := min(size, int64(len(f.data)))
	f.data = append(f.data[:n], make([]byte, size-n)...)
}

// Rename records the file, symlink or directory src moved to dst, a
// directory with everything below it. What moves keeps its place in creation
// order; whatever dst named before is gone.
func (m *Model) Rename(src, dst string) {
	if src == dst {
		return
	}
	m.Unlink(dst)
	m.Rmdir(dst)
	move := func(p *string) {
		if rest, ok := strings.CutPrefix(*p, src); ok && (rest == "" || rest[0] == '/') {
			*p = dst + rest
		}
	}
	for i := range m.dirs {
		move(&m.dirs[i])
	}
	for _, f := range m.files {
		move(&f.path)
	}
	for _, l := range m.links {
		move(&l.path)
	}
}

// Unlink records a file or symlink removed; the others keep their order.
// Unlinking a name the model does not hold records nothing.
func (m *Model) Unlink(path string) {
	m.files = slices.DeleteFunc(m.files, func(f *file) bool { return f.path == path })
	m.links = slices.DeleteFunc(m.links, func(l *link) bool { return l.path == path })
}

// Rmdir records a directory removed.
func (m *Model) Rmdir(path string) {
	m.dirs = slices.DeleteFunc(m.dirs, func(d string) bool { return d == path })
}

// Chmod records a file's new permission bits.
func (m *Model) Chmod(path string, mode coffer.Mode) { m.files[m.index(path)].mode = mode }

// Chown records a file's new owner. Check compares the owner of a file only
// once Chown has recorded one.
func (m *Model) Chown(path string, uid, gid uint32) {
	f := m.files[m.index(path)]
	f.owned, f.uid, f.gid = true, uid, gid
}

// Symlink records a new symbolic link at path to target.
func (m *Model) Symlink(target, path string) {
	m.links = append(m.links, &link{path: path, target: target})
}

// Check reads fs as th and reports every way it disagrees with the model:
// each model file must be a regular file of the model's mode, owner (where
// one was recorded), size and bytes, each model directory a directory, each
// symlink must read back its target, and a walk from "/" must list in each
// directory every entry the model holds there once, with its type, and no
// other. A path skip reports true for is left out: the model's file or
// directory there is not compared, and the walk neither reports that entry,
// listed or missing, nor descends into it. skip may be nil. Check returns the
// disagreements joined into one error, nil when there are none.
func (m *Model) Check(fs FileSystem, th *proc.Thread, skip func(path string) bool) error {
	skipped := func(p string) bool { return skip != nil && skip(p) }
	var errs []error
	for _, f := range m.files {
		if !skipped(f.path) {
			errs = append(errs, checkFile(fs, th, f))
		}
	}
	for _, d := range m.dirs {
		if skipped(d) {
			continue
		}
		if fi, err := fs.Stat(th, d); err != nil {
			errs = append(errs, fmt.Errorf("directory %s: %w", d, err))
		} else if fi.Type != TypeDir {
			errs = append(errs, fmt.Errorf("%s is a %v, want a directory", d, fi.Type))
		}
	}
	for _, l := range m.links {
		if skipped(l.path) {
			continue
		}
		if target, err := fs.Readlink(th, l.path); err != nil {
			errs = append(errs, fmt.Errorf("symlink %s: %w", l.path, err))
		} else if target != l.target {
			errs = append(errs, fmt.Errorf("%s links to %s, want %s", l.path, target, l.target))
		}
	}
	m.walk(fs, th, "/", m.children(), skipped, &errs)
	return errors.Join(errs...)
}

// checkFile compares one file's type, mode, owner, size and bytes with the
// model's.
func checkFile(fs FileSystem, th *proc.Thread, f *file) error {
	fi, err := fs.Stat(th, f.path)
	switch {
	case err != nil:
		return fmt.Errorf("file %s: %w", f.path, err)
	case fi.Type != TypeRegular:
		return fmt.Errorf("%s is a %v, want a regular file", f.path, fi.Type)
	case fi.Mode != f.mode:
		return fmt.Errorf("%s mode %o, want %o", f.path, fi.Mode, f.mode)
	case f.owned && (fi.UID != f.uid || fi.GID != f.gid):
		return fmt.Errorf("%s owner %d:%d, want %d:%d", f.path, fi.UID, fi.GID, f.uid, f.gid)
	case fi.Size != int64(len(f.data)):
		return fmt.Errorf("%s size %d, want %d", f.path, fi.Size, len(f.data))
	}
	h, err := fs.Open(th, f.path, O_RDONLY)
	if err != nil {
		return fmt.Errorf("open %s: %w", f.path, err)
	}
	got := make([]byte, len(f.data))
	n, err := h.ReadAt(th, got, 0)
	h.Close(th)
	if n != len(got) {
		return fmt.Errorf("read %s: %d of %d bytes: %v", f.path, n, len(got), err)
	}
	for i := range got {
		if got[i] != f.data[i] {
			return fmt.Errorf("%s differs from the model at byte %d of %d", f.path, i, len(got))
		}
	}
	return nil
}

// children maps each directory of the model to the type of every entry the
// model holds in it.
func (m *Model) children() map[string]map[string]FileType {
	kids := map[string]map[string]FileType{}
	add := func(p string, t FileType) {
		if p == "/" {
			return
		}
		dir, base := SplitPath(p)
		if kids[dir] == nil {
			kids[dir] = map[string]FileType{}
		}
		kids[dir][base] = t
	}
	for _, d := range m.dirs {
		add(d, TypeDir)
	}
	for _, f := range m.files {
		add(f.path, TypeRegular)
	}
	for _, l := range m.links {
		add(l.path, TypeSymlink)
	}
	return kids
}

// walk lists dir and everything below it, parents before children, adding an
// error for each way a listing differs from kids, the model's entries of each
// directory: an entry listed twice, one the model does not hold, one of
// another type, and one the model holds that the listing leaves out. A listing
// is valid only until th's next ReadDir, so each one is cloned before the walk
// descends.
func (m *Model) walk(fs FileSystem, th *proc.Thread, dir string, kids map[string]map[string]FileType,
	skipped func(string) bool, errs *[]error) {
	ents, err := fs.ReadDir(th, dir)
	if err != nil {
		*errs = append(*errs, fmt.Errorf("readdir %s: %w", dir, err))
		return
	}
	want := kids[dir]
	seen := make(map[string]bool, len(ents))
	for _, e := range slices.Clone(ents) {
		p := Join(dir, e.Name)
		if skipped(p) {
			continue
		}
		t, held := want[e.Name]
		switch {
		case seen[e.Name]:
			*errs = append(*errs, fmt.Errorf("%s is listed twice in %s", e.Name, dir))
			continue
		case !held:
			*errs = append(*errs, fmt.Errorf("%s (%v) is not in the model", p, e.Type))
		case e.Type != t:
			*errs = append(*errs, fmt.Errorf("%s is listed as a %v, want a %v", p, e.Type, t))
		}
		seen[e.Name] = true
		if e.Type == TypeDir {
			m.walk(fs, th, p, kids, skipped, errs)
		}
	}
	var missing []string
	for name := range want {
		if !seen[name] && !skipped(Join(dir, name)) {
			missing = append(missing, name)
		}
	}
	slices.Sort(missing)
	for _, name := range missing {
		*errs = append(*errs, fmt.Errorf("%s (%v) is missing from the listing of %s", Join(dir, name), want[name], dir))
	}
}
