package zofs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"zofs/internal/coffer"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// TestRandomOpsAgainstModel drives ZoFS with a long random sequence of
// vfs.Ops and checks every observable result against a vfs.Model — files'
// contents, sizes and modes, and the whole tree's listings. Files are picked
// in the model's creation order, so a seed replays exactly; a failure names
// the seed and the op index.
func TestRandomOpsAgainstModel(t *testing.T) {
	const seed = 20260706
	dev := nvm.NewDevice(2 << 30)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	p := proc.NewProcess(dev, 0, 0)
	th := p.NewThread()
	if err := k.FSMount(th); err != nil {
		t.Fatal(err)
	}
	f := zofs.New(k, zofs.Options{})
	zofs.SetDebugPool(true)
	if err := f.EnsureRootDir(th); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	model := vfs.NewModel()
	for i := 0; i < 3; i++ {
		d := fmt.Sprintf("/dir%d", i)
		if err := f.Mkdir(th, d, 0o755); err != nil {
			t.Fatal(err)
		}
		model.Mkdir(d)
	}
	dirs := model.Dirs()

	pick := func() (string, bool) {
		if model.Len() == 0 {
			return "", false
		}
		return model.Path(rng.Intn(model.Len())), true
	}

	i, detail := 0, "setup"
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d op %d (%s): %s", seed, i, detail, fmt.Sprintf(format, args...))
	}
	defer func() {
		if r := recover(); r != nil {
			fail("panic: %v", r)
		}
	}()

	const ops = 3000
	for ; i < ops; i++ {
		var op vfs.Op
		switch rng.Intn(10) {
		case 0, 1:
			path := vfs.Join(dirs[rng.Intn(len(dirs))], fmt.Sprintf("f%04d", rng.Intn(200)))
			op = vfs.Op{Kind: vfs.OpCreate, Path: path, Mode: 0o644}
		case 2, 3: // write at a random offset
			path, ok := pick()
			if !ok {
				continue
			}
			off := rng.Int63n(20000)
			buf := make([]byte, rng.Intn(9000)+1)
			rng.Read(buf)
			op = vfs.Op{Kind: vfs.OpWrite, Path: path, Off: off, Data: buf}
		case 4:
			path, ok := pick()
			if !ok {
				continue
			}
			op = vfs.Op{Kind: vfs.OpUnlink, Path: path}
		case 5:
			path, ok := pick()
			if !ok {
				continue
			}
			op = vfs.Op{Kind: vfs.OpTruncate, Path: path, Size: rng.Int63n(30000)}
		case 6:
			src, ok := pick()
			if !ok {
				continue
			}
			dst := vfs.Join(dirs[rng.Intn(len(dirs))], fmt.Sprintf("r%04d", rng.Intn(200)))
			if src == dst {
				continue
			}
			op = vfs.Op{Kind: vfs.OpRename, Path: src, Dst: dst}
		case 7: // read one file whole
			path, ok := pick()
			if !ok {
				continue
			}
			want, _ := model.Data(path)
			op = vfs.Op{Kind: vfs.OpRead, Path: path, Data: want, Size: int64(len(want)) + 100}
		case 8:
			path, ok := pick()
			if !ok {
				continue
			}
			want, _ := model.Data(path)
			op = vfs.Op{Kind: vfs.OpStat, Path: path, Size: int64(len(want))}
		case 9: // chmod (split or in-place)
			path, ok := pick()
			if !ok {
				continue
			}
			op = vfs.Op{Kind: vfs.OpChmod, Path: path, Mode: []coffer.Mode{0o644, 0o600, 0o640}[rng.Intn(3)]}
		}
		detail = op.String()
		if err := op.Do(f, th); err != nil {
			fail("%v (free pages %d, coffers %d)", err, k.FreePages(), len(k.Coffers()))
		}
		model.Apply(op)
		if i%25 == 0 {
			if err := model.Check(f, th, nil); err != nil {
				fail("%v", err)
			}
		}
	}
	detail = "final check"
	if err := model.Check(f, th, nil); err != nil {
		fail("%v", err)
	}
}

// TestCrashFuzzRecovery applies random operations, crashes at random write
// counts, runs recovery and verifies the file system stays consistent and
// usable — repeatedly, on the same image.
func TestCrashFuzzRecovery(t *testing.T) {
	dev := nvm.NewDevice(512 << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	// Stable files that must survive every crash+recovery cycle.
	{
		k, _ := kernfs.Mount(dev)
		p := proc.NewProcess(dev, 0, 0)
		th := p.NewThread()
		k.FSMount(th)
		f := zofs.New(k, zofs.Options{})
		f.EnsureRootDir(th)
		for i := 0; i < 5; i++ {
			h, err := f.Create(th, fmt.Sprintf("/stable%d", i), 0o644)
			if err != nil {
				t.Fatal(err)
			}
			h.WriteAt(th, bytes.Repeat([]byte{byte(i + 1)}, 2048), 0)
			h.Close(th)
		}
	}

	for round := 0; round < 6; round++ {
		k, err := kernfs.Mount(dev)
		if err != nil {
			t.Fatalf("round %d mount: %v", round, err)
		}
		p := proc.NewProcess(dev, 0, 0)
		th := p.NewThread()
		k.FSMount(th)
		f := zofs.New(k, zofs.Options{})

		dev.FailAfter(int64(5 + rng.Intn(200)))
		func() {
			defer func() {
				if r := recover(); r != nil && !nvm.IsInjectedCrash(r) {
					panic(r)
				}
			}()
			for i := 0; ; i++ {
				switch rng.Intn(4) {
				case 0:
					if h, err := f.Create(th, fmt.Sprintf("/tmp%d-%d", round, i), 0o644); err == nil {
						h.WriteAt(th, make([]byte, rng.Intn(10000)), 0)
						h.Close(th)
					}
				case 1:
					f.Unlink(th, fmt.Sprintf("/tmp%d-%d", round, rng.Intn(i+1)))
				case 2:
					f.Mkdir(th, fmt.Sprintf("/d%d-%d", round, i), 0o755)
				case 3:
					f.Rename(th, fmt.Sprintf("/tmp%d-%d", round, rng.Intn(i+1)), fmt.Sprintf("/mv%d-%d", round, i))
				}
			}
		}()
		dev.FailAfter(0)
		dev.Crash()
		dev.DropVolatile()

		// Remount and recover.
		k2, err := kernfs.Mount(dev)
		if err != nil {
			t.Fatalf("round %d remount: %v", round, err)
		}
		th2 := proc.NewProcess(dev, 0, 0).NewThread()
		k2.FSMount(th2)
		if err := zofs.Check(k2, th2).Err(); err != nil {
			t.Fatalf("round %d fsck: %v", round, err)
		}
		f2 := zofs.New(k2, zofs.Options{})
		// Stable files intact.
		for i := 0; i < 5; i++ {
			h, err := f2.Open(th2, fmt.Sprintf("/stable%d", i), vfs.O_RDONLY)
			if err != nil {
				t.Fatalf("round %d stable%d: %v", round, i, err)
			}
			buf := make([]byte, 2048)
			if n, err := h.ReadAt(th2, buf, 0); err != nil || n != 2048 || buf[0] != byte(i+1) {
				t.Fatalf("round %d stable%d content: n=%d err=%v", round, i, n, err)
			}
			h.Close(th2)
		}
		// FS is writable after recovery.
		if h, err := f2.Create(th2, fmt.Sprintf("/post%d", round), 0o644); err != nil {
			t.Fatalf("round %d post-create: %v", round, err)
		} else {
			h.Close(th2)
		}
	}
}
