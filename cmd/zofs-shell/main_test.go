package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/nvm"
)

// image formats a small device and saves it as a fresh image.
func image(t *testing.T) string {
	t.Helper()
	dev := nvm.NewDevice(16 << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "t.zofs"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dev.SaveImage(f); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// session runs the shell over img with script on stdin and returns its exit
// status and what it printed.
func session(t *testing.T, img, script string) (int, string) {
	t.Helper()
	var out, errs strings.Builder
	code := run([]string{img}, strings.NewReader(script), &out, &errs)
	if errs.Len() != 0 {
		t.Errorf("stderr: %s", errs.String())
	}
	return code, out.String()
}

// TestScriptedSession drives a session the way a piped script does: every
// command answers on stdout, an unknown one is reported and the session goes
// on, and what it wrote is in the image at the end. tail prints windows
// without a burn column, and slo is no command.
func TestScriptedSession(t *testing.T) {
	img := image(t)
	code, out := session(t, img, strings.Join([]string{
		"mkdir /d", "write /d/f hello shell", "cat /d/f", "ls /d", "df", "stats", "spans", "tail", "slo", "bogus", "exit",
	}, "\n"))
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{
		"hello shell\n",          // cat
		" f\n",                   // ls
		"free pages of",          // df
		"byte flow: app",         // df
		"bytes_written",          // stats
		"p99",                    // spans
		"tail: ",                 // tail
		"p999\n",                 // tail's last column
		"unknown command: slo",   // the objectives are gone
		"unknown command: bogus", // the session went on past it
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "burn") {
		t.Errorf("output has a burn column:\n%s", out)
	}
	// EOF ends a session as exit does, and the image kept the first one's file.
	if code, out := session(t, img, "cat /d/f\n"); code != 0 || !strings.Contains(out, "hello shell\n") {
		t.Errorf("second session: exit %d\n%s", code, out)
	}
}

// TestExitCodes is the tool's exit-code contract: 0 the session ended and the
// image was saved, 1 the image could not be loaded, 2 a usage error.
func TestExitCodes(t *testing.T) {
	img := image(t)
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{img}, 0},
		{[]string{filepath.Join(t.TempDir(), "absent.zofs")}, 1},
		{nil, 2},
		{[]string{img, img}, 2},
		{[]string{"-no-such-flag", img}, 2},
	} {
		if got := run(c.args, strings.NewReader("exit\n"), io.Discard, io.Discard); got != c.want {
			t.Errorf("zofs-shell %v exits %d, want %d", c.args, got, c.want)
		}
	}
}
