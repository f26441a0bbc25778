package fslibs

import (
	"errors"
	"fmt"
	"testing"

	"zofs/internal/baselines"
	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/logfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
)

// countingFS interposes on a file system the way the benchmark's traced FS
// does and counts the handles it has handed out and not seen closed, and the
// calls that name a path.
type countingFS struct {
	vfs.FileSystem
	live                  int
	opens, creates, stats int
}

type countingHandle struct {
	vfs.Handle
	fs *countingFS
}

func (c *countingFS) wrap(h vfs.Handle, err error) (vfs.Handle, error) {
	if err != nil {
		return nil, err
	}
	c.live++
	return &countingHandle{h, c}, nil
}

func (c *countingFS) Create(th *proc.Thread, p string, m coffer.Mode) (vfs.Handle, error) {
	c.creates++
	return c.wrap(c.FileSystem.Create(th, p, m))
}

func (c *countingFS) Open(th *proc.Thread, p string, flags int) (vfs.Handle, error) {
	c.opens++
	return c.wrap(c.FileSystem.Open(th, p, flags))
}

func (c *countingFS) Stat(th *proc.Thread, p string) (vfs.FileInfo, error) {
	c.stats++
	return c.FileSystem.Stat(th, p)
}

func (h *countingHandle) Close(th *proc.Thread) error {
	h.fs.live--
	return h.Handle.Close(th)
}

// openTargets builds, for every file system the conformance suite covers, a
// Lib that routes dir to a counting wrapper around it.
func openTargets() map[string]func(t *testing.T) (l *Lib, th *proc.Thread, fs *countingFS, dir string) {
	type build = func(t *testing.T) (*Lib, *proc.Thread, *countingFS, string)
	treasury := func(t *testing.T, opts Options) (*kernfs.KernFS, *Lib, *proc.Thread) {
		t.Helper()
		_, k, l, th := newLibWith(t, opts)
		return k, l, th
	}
	// The baselines are kernel file systems: the dispatcher's fallback.
	baseline := func(mk func(*nvm.Device) *baselines.Engine) build {
		return func(t *testing.T) (*Lib, *proc.Thread, *countingFS, string) {
			fs := &countingFS{FileSystem: mk(nvm.New(nvm.Config{Size: 128 << 20}))}
			_, l, th := treasury(t, Options{MountPath: "/treasury", Fallback: fs})
			return l, th, fs, "/"
		}
	}
	return map[string]build{
		"ZoFS": func(t *testing.T) (*Lib, *proc.Thread, *countingFS, string) {
			_, l, th := treasury(t, Options{})
			fs := &countingFS{FileSystem: l.ZoFS()}
			l.RegisterFS(coffer.TypeZoFS, fs)
			return l, th, fs, "/"
		},
		"LogFS": func(t *testing.T) (*Lib, *proc.Thread, *countingFS, string) {
			k, l, th := treasury(t, Options{})
			if _, err := k.CofferNew(th, k.RootCoffer(), "/logs", logfs.TypeLogFS, 0o755, 0, 0, 3); err != nil {
				t.Fatal(err)
			}
			fs := &countingFS{FileSystem: logfs.New(k)}
			l.RegisterFS(logfs.TypeLogFS, fs)
			return l, th, fs, "/logs"
		},
		"PMFS": baseline(func(d *nvm.Device) *baselines.Engine { return baselines.NewPMFS(d, baselines.PMFSOptions{}) }),
		"NOVA": baseline(func(d *nvm.Device) *baselines.Engine { return baselines.NewNOVA(d, baselines.NOVAOptions{}) }),
		"NOVAi": baseline(func(d *nvm.Device) *baselines.Engine {
			return baselines.NewNOVA(d, baselines.NOVAOptions{InPlace: true})
		}),
		"Strata":   baseline(baselines.NewStrata),
		"Ext4-DAX": baseline(baselines.NewExt4DAX),
	}
}

// TestOpenCreateTable runs O_CREATE × O_EXCL × O_TRUNC × exists/absent
// through Lib.Open on every file system: one outcome table for all of them,
// no handle left behind by the probe, the caller's mode on a created file, and
// an existing file neither re-moded nor — under O_EXCL — truncated.
func TestOpenCreateTable(t *testing.T) {
	const (
		oldMode = coffer.Mode(0o644)
		newMode = coffer.Mode(0o600)
		content = "payload"
	)
	for name, build := range openTargets() {
		t.Run(name, func(t *testing.T) {
			l, th, fs, dir := build(t)
			n := 0
			for _, exists := range []bool{false, true} {
				for _, excl := range []int{0, vfs.O_EXCL} {
					for _, trunc := range []int{0, vfs.O_TRUNC} {
						n++
						path := vfs.Join(dir, fmt.Sprintf("f%d", n))
						what := fmt.Sprintf("exists=%v excl=%v trunc=%v", exists, excl != 0, trunc != 0)
						if exists {
							fd, err := l.Open(th, path, vfs.O_CREATE|vfs.O_RDWR, oldMode)
							if err != nil {
								t.Fatalf("%s: set-up: %v", what, err)
							}
							if _, err := l.Write(th, fd, []byte(content)); err != nil {
								t.Fatalf("%s: set-up write: %v", what, err)
							}
							l.Close(th, fd)
						}
						fd, err := l.Open(th, path, vfs.O_CREATE|vfs.O_RDWR|excl|trunc, newMode)
						wantSize, wantMode := int64(0), newMode
						switch {
						case exists && excl != 0:
							if !errors.Is(err, vfs.ErrExist) {
								t.Fatalf("%s: err = %v, want ErrExist", what, err)
							}
							wantSize, wantMode = int64(len(content)), oldMode
						case err != nil:
							t.Fatalf("%s: %v", what, err)
						case exists:
							wantMode = oldMode
							if trunc == 0 {
								wantSize = int64(len(content))
							}
						}
						if err == nil {
							if _, werr := l.Pwrite(th, fd, nil, 0); werr != nil {
								t.Fatalf("%s: the FD is not writable: %v", what, werr)
							}
							if cerr := l.Close(th, fd); cerr != nil {
								t.Fatalf("%s: close: %v", what, cerr)
							}
						}
						if fs.live != 0 {
							t.Fatalf("%s: %d handle(s) still open in the file system", what, fs.live)
						}
						fi, serr := l.Stat(th, path)
						if serr != nil || fi.Size != wantSize || fi.Mode != wantMode {
							t.Fatalf("%s: afterwards %+v (%v), want size %d mode %o", what, fi, serr, wantSize, wantMode)
						}
					}
				}
			}

			// Symlink re-dispatch: the probe reports the expansion, the
			// dispatcher routes the new path, and the create lands on the
			// link's target.
			target, link := vfs.Join(dir, "target"), vfs.Join(dir, "link")
			if err := l.Symlink(th, target, link); err != nil {
				t.Fatal(err)
			}
			fd, err := l.Open(th, link, vfs.O_CREATE|vfs.O_RDWR, newMode)
			if err != nil {
				t.Fatalf("create through a dangling symlink: %v", err)
			}
			l.Close(th, fd)
			if fi, err := l.Stat(th, target); err != nil || fi.Type != vfs.TypeRegular || fi.Mode != newMode {
				t.Fatalf("the link's target after the create: %+v, %v", fi, err)
			}
			if _, err := l.Open(th, link, vfs.O_CREATE|vfs.O_EXCL|vfs.O_RDWR, newMode); !errors.Is(err, vfs.ErrExist) {
				t.Fatalf("exclusive create through a symlink to a file: %v", err)
			}
			if _, err := l.Open(th, dir, vfs.O_CREATE|vfs.O_EXCL|vfs.O_RDWR, newMode); !errors.Is(err, vfs.ErrExist) {
				t.Fatalf("exclusive create of an existing directory: %v", err)
			}
			if fs.live != 0 {
				t.Fatalf("%d handle(s) still open after the symlink cases", fs.live)
			}
		})
	}
}

// TestOpenCreateProbesOnce counts what the µFS sees: an exclusive create of an
// absent name is one Open (the probe) and one Create, no Stat; of a present
// name one Open; a plain open is untouched.
func TestOpenCreateProbesOnce(t *testing.T) {
	_, _, l, th := newLib(t)
	c := &countingFS{FileSystem: l.ZoFS()}
	l.RegisterFS(coffer.TypeZoFS, c)
	open := func(flags int) string {
		*c = countingFS{FileSystem: c.FileSystem}
		fd, err := l.Open(th, "/f", flags, 0o644)
		if err == nil {
			l.Close(th, fd)
		}
		return fmt.Sprintf("open=%d create=%d stat=%d", c.opens, c.creates, c.stats)
	}
	for _, step := range []struct {
		what  string
		flags int
		want  string
	}{
		{"exclusive create, absent", vfs.O_CREATE | vfs.O_EXCL | vfs.O_RDWR, "open=1 create=1 stat=0"},
		{"exclusive create, present", vfs.O_CREATE | vfs.O_EXCL | vfs.O_RDWR, "open=1 create=0 stat=0"},
		{"create, present", vfs.O_CREATE | vfs.O_RDWR, "open=1 create=0 stat=0"},
		{"plain open", vfs.O_RDONLY, "open=1 create=0 stat=0"},
	} {
		if got := open(step.flags); got != step.want {
			t.Fatalf("%s: µFS calls %s, want %s", step.what, got, step.want)
		}
	}
}
