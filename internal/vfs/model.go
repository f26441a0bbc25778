package vfs

import (
	"errors"
	"fmt"
	"slices"

	"zofs/internal/coffer"
	"zofs/internal/proc"
)

// Model is a reference statement of what a file system's tree should hold:
// its live files, in creation order, with their bytes and modes, and its
// directories, in creation order with "/" first. Callers apply to it each
// operation the file system under test completed, with the bytes they wrote,
// and then Check the file system against it. The crash checker, the chaos
// campaign and the ZoFS property test all state their expectations here.
//
// Creation order is what a seeded workload indexes to pick a file, so it is
// kept exactly: a rename keeps the file's place, an unlink keeps the others'
// order. A Model is not safe for concurrent use.
type Model struct {
	files []*file
	dirs  []string
}

type file struct {
	path string
	mode coffer.Mode
	data []byte
}

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

// Rename records a file moved from src to dst. The file keeps its place in
// creation order; a file dst named before is gone.
func (m *Model) Rename(src, dst string) {
	if src != dst {
		m.Unlink(dst)
		m.files[m.index(src)].path = dst
	}
}

// Unlink records a file removed; the others keep their order. Unlinking a
// name the model does not hold records nothing.
func (m *Model) Unlink(path string) {
	if i := m.index(path); i >= 0 {
		m.files = slices.Delete(m.files, i, i+1)
	}
}

// Chmod records a file's new permission bits.
func (m *Model) Chmod(path string, mode coffer.Mode) { m.files[m.index(path)].mode = mode }

// Check reads fs as th and reports every way it disagrees with the model:
// each model file must be a regular file of the model's mode, size and
// bytes, each model directory a directory, and a walk from "/" must find no
// entry the model does not hold. A path skip reports true for is left out:
// the model's file or directory there is not compared, and the walk neither
// reports that entry nor descends into it. skip may be nil. Check returns the
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
	m.walk(fs, th, "/", skipped, &errs)
	return errors.Join(errs...)
}

// checkFile compares one file's type, mode, size and bytes with the model's.
func checkFile(fs FileSystem, th *proc.Thread, f *file) error {
	fi, err := fs.Stat(th, f.path)
	switch {
	case err != nil:
		return fmt.Errorf("file %s: %w", f.path, err)
	case fi.Type != TypeRegular:
		return fmt.Errorf("%s is a %v, want a regular file", f.path, fi.Type)
	case fi.Mode != f.mode:
		return fmt.Errorf("%s mode %o, want %o", f.path, fi.Mode, f.mode)
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

// walk lists dir and everything below it, parents before children, adding an
// error for each entry the model does not hold. A listing is valid only until
// th's next ReadDir, so each one is cloned before the walk descends.
func (m *Model) walk(fs FileSystem, th *proc.Thread, dir string, skipped func(string) bool, errs *[]error) {
	ents, err := fs.ReadDir(th, dir)
	if err != nil {
		*errs = append(*errs, fmt.Errorf("readdir %s: %w", dir, err))
		return
	}
	for _, e := range slices.Clone(ents) {
		p := Join(dir, e.Name)
		if skipped(p) {
			continue
		}
		if m.index(p) < 0 && !slices.Contains(m.dirs, p) {
			*errs = append(*errs, fmt.Errorf("%s (%v) is not in the model", p, e.Type))
		}
		if e.Type == TypeDir {
			m.walk(fs, th, p, skipped, errs)
		}
	}
}
