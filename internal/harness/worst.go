package harness

import (
	"fmt"
	"io"

	"zofs/internal/coffer"
	"zofs/internal/sysfactory"
)

// RunTable9 reproduces the worst-case cross-coffer operation test (paper
// Table 9): chmod of random files initially stored in one coffer (each
// chmod splits the coffer), and rename of files between two coffers.
// Compared: NOVA (kernel chmod/rename), ZoFS (splits), ZoFS-1coffer
// (user-space in-place updates). Every cell is scored against the paper's.
func RunTable9(w io.Writer, opts Options) ([]Cell, error) {
	opts.fill()
	files := 100
	filePages := 64 // 256KB files: split cost is dominated by page retagging
	if opts.Quick {
		files, filePages = 40, 32
	}
	systems := []sysfactory.System{sysfactory.NOVA, sysfactory.ZoFS, sysfactory.ZoFS1Coffer}

	ops := []string{"chmod", "rename"}
	ns := make([][3]float64, len(ops)) // by op, then system
	for j, sys := range systems {
		for i, measure := range []func(sysfactory.System, int, int) (int64, error){table9Chmod, table9Rename} {
			v, err := measure(sys, files, filePages)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", ops[i], sys.Name, err)
			}
			ns[i][j] = float64(v)
		}
	}

	// The paper's Table 9, row by row, in the order of systems.
	paper := [2][3]float64{{1830, 23342, 675}, {6261, 28264, 1681}}
	var cells []Cell
	err := table(w, "Table 9: Worst case performance tests (ns/op)", "Latency/ns", names(systems), ops, "%.0f", func(r, c int) (float64, error) {
		cells = append(cells, Cell{"table9/" + ops[r] + "/" + systems[c].Name, paper[r][c], ns[r][c]})
		return ns[r][c], nil
	})
	return cells, err
}

// table9Chmod stores files in one coffer and then changes random files'
// permissions; in stock ZoFS every chmod splits the coffer.
func table9Chmod(sys sysfactory.System, files, filePages int) (int64, error) {
	in, err := sys.New(4<<30, false)
	if err != nil {
		return 0, err
	}
	th := in.Proc.NewThread()
	if err := in.FS.Mkdir(th, "/one", 0o755); err != nil {
		return 0, err
	}
	buf := make([]byte, filePages*4096)
	for i := 0; i < files; i++ {
		h, err := in.FS.Create(th, fmt.Sprintf("/one/f%04d", i), 0o644)
		if err != nil {
			return 0, err
		}
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			return 0, err
		}
		h.Close(th)
	}
	start := th.Clk.Now()
	for i := 0; i < files; i++ {
		if err := in.FS.Chmod(th, fmt.Sprintf("/one/f%04d", i), 0o600); err != nil {
			return 0, err
		}
	}
	return (th.Clk.Now() - start) / int64(files), nil
}

// table9Rename stores files evenly in two coffers (directories with
// different permissions for ZoFS) and renames random files to the other.
func table9Rename(sys sysfactory.System, files, filePages int) (int64, error) {
	in, err := sys.New(4<<30, false)
	if err != nil {
		return 0, err
	}
	th := in.Proc.NewThread()
	// Different permissions force the two dirs into two coffers under
	// ZoFS; for ZoFS-1coffer and NOVA they are just two directories.
	if err := in.FS.Mkdir(th, "/ca", 0o750); err != nil {
		return 0, err
	}
	if err := in.FS.Mkdir(th, "/cb", 0o700); err != nil {
		return 0, err
	}
	buf := make([]byte, filePages*4096)
	for i := 0; i < files; i++ {
		dir, mode := "/ca", coffer.Mode(0o750)
		if i%2 == 1 {
			dir, mode = "/cb", 0o700
		}
		h, err := in.FS.Create(th, fmt.Sprintf("%s/f%04d", dir, i), mode)
		if err != nil {
			return 0, err
		}
		if _, err := h.WriteAt(th, buf, 0); err != nil {
			return 0, err
		}
		h.Close(th)
	}
	start := th.Clk.Now()
	moved := 0
	for i := 0; i < files; i++ {
		src, dst := "/ca", "/cb"
		if i%2 == 1 {
			src, dst = "/cb", "/ca"
		}
		err := in.FS.Rename(th, fmt.Sprintf("%s/f%04d", src, i), fmt.Sprintf("%s/m%04d", dst, i))
		if err != nil {
			return 0, fmt.Errorf("rename %d: %w", i, err)
		}
		moved++
	}
	return (th.Clk.Now() - start) / int64(moved), nil
}
