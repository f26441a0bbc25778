package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestExitCodes is the tool's exit-code contract, one row per way in: 0 the
// image was written, 1 it could not be formatted or written, 2 a usage error
// or a flag value that does not parse.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "t.zofs")
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-size", "16M", "-mode", "0700", "-uid", "7", img}, 0},
		{[]string{"-size", "4K", filepath.Join(dir, "small.zofs")}, 1},
		{[]string{"-size", "16M", filepath.Join(dir, "no", "such", "dir.zofs")}, 1},
		{nil, 2},
		{[]string{img, "second-operand"}, 2},
		{[]string{"-no-such-flag", img}, 2},
		{[]string{"-size", "big", img}, 2},
		{[]string{"-size", "-4M", img}, 2},
		{[]string{"-mode", "0799", img}, 2},
	} {
		if got := run(c.args, io.Discard, io.Discard); got != c.want {
			t.Errorf("zofs-mkfs %v exits %d, want %d", c.args, got, c.want)
		}
	}
	if st, err := os.Stat(img); err != nil || st.Size() == 0 {
		t.Errorf("no image written: %v", err)
	}
}
