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

// modelFile mirrors one file's expected state.
type modelFile struct {
	data []byte
	mode uint32
}

// TestRandomOpsAgainstModel drives ZoFS with a long random operation
// sequence and checks every observable result against an in-memory model —
// files' contents, sizes, directory listings and existence.
func TestRandomOpsAgainstModel(t *testing.T) {
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

	rng := rand.New(rand.NewSource(20260706))
	model := map[string]*modelFile{} // path -> file
	dirs := []string{"/"}
	for i := 0; i < 3; i++ {
		d := fmt.Sprintf("/dir%d", i)
		if err := f.Mkdir(th, d, 0o755); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, d)
	}

	names := func() []string {
		out := make([]string, 0, len(model))
		for p := range model {
			out = append(out, p)
		}
		return out
	}
	pick := func() (string, bool) {
		ns := names()
		if len(ns) == 0 {
			return "", false
		}
		return ns[rng.Intn(len(ns))], true
	}

	var lastDetail string
	verifyAll := func(i int, op int) {
		for path, m := range model {
			func() {
				defer func() {
					if r := recover(); r != nil {
						for q := range model {
							if fi, err := f.Stat(th, q); err == nil {
								t.Logf("  %s -> inode %d coffer %d", q, fi.Inode, fi.Coffer)
							}
						}
						t.Fatalf("op %d (kind %d, %s): verify of %s panicked: %v", i, op, lastDetail, path, r)
					}
				}()
				h, err := f.Open(th, path, vfs.O_RDONLY)
				if err != nil {
					t.Fatalf("op %d (kind %d, %s): verify open %s: %v", i, op, lastDetail, path, err)
				}
				got := make([]byte, len(m.data)+10)
				n, err := h.ReadAt(th, got, 0)
				h.Close(th)
				if err != nil || n != len(m.data) || !bytes.Equal(got[:n], m.data) {
					t.Fatalf("op %d (kind %d, %s): %s mismatch n=%d want %d err=%v", i, op, lastDetail, path, n, len(m.data), err)
				}
			}()
		}
	}

	const ops = 3000
	for i := 0; i < ops; i++ {
		op := rng.Intn(10)
		switch op {
		case 0, 1: // create
			path := vfs.Join(dirs[rng.Intn(len(dirs))], fmt.Sprintf("f%04d", rng.Intn(200)))
			mode := uint32(0o644)
			lastDetail = "create " + path
			h, err := f.Create(th, path, 0o644)
			if err != nil {
				t.Fatalf("op %d create %s: %v (free pages %d, coffers %d)", i, path, err, k.FreePages(), len(k.Coffers()))
			}
			h.Close(th)
			// creat() truncates an existing file but keeps its mode.
			if old, ok := model[path]; ok {
				mode = old.mode
			}
			model[path] = &modelFile{mode: mode}
		case 2, 3: // write at random offset
			path, ok := pick()
			if !ok {
				continue
			}
			h, err := f.Open(th, path, vfs.O_RDWR)
			if err != nil {
				t.Fatalf("op %d open %s: %v", i, path, err)
			}
			off := rng.Int63n(20000)
			n := rng.Intn(9000) + 1
			lastDetail = fmt.Sprintf("write %s off=%d n=%d", path, off, n)
			buf := make([]byte, n)
			rng.Read(buf)
			if _, err := h.WriteAt(th, buf, off); err != nil {
				t.Fatalf("op %d write: %v (free pages %d, coffers %d)", i, err, k.FreePages(), len(k.Coffers()))
			}
			h.Close(th)
			m := model[path]
			if int64(len(m.data)) < off+int64(n) {
				grown := make([]byte, off+int64(n))
				copy(grown, m.data)
				m.data = grown
			}
			copy(m.data[off:], buf)
		case 4: // unlink
			path, ok := pick()
			if !ok {
				continue
			}
			lastDetail = "unlink " + path
			if err := f.Unlink(th, path); err != nil {
				t.Fatalf("op %d unlink %s: %v", i, path, err)
			}
			delete(model, path)
		case 5: // truncate
			path, ok := pick()
			if !ok {
				continue
			}
			sz := rng.Int63n(30000)
			lastDetail = fmt.Sprintf("truncate %s %d", path, sz)
			if err := f.Truncate(th, path, sz); err != nil {
				t.Fatalf("op %d truncate: %v", i, err)
			}
			m := model[path]
			if int64(len(m.data)) > sz {
				m.data = m.data[:sz]
			} else {
				grown := make([]byte, sz)
				copy(grown, m.data)
				m.data = grown
			}
		case 6: // rename
			src, ok := pick()
			if !ok {
				continue
			}
			dst := vfs.Join(dirs[rng.Intn(len(dirs))], fmt.Sprintf("r%04d", rng.Intn(200)))
			if src == dst {
				continue
			}
			if _, isDir := model[dst]; false && isDir {
				continue
			}
			lastDetail = "rename " + src + "->" + dst
			if err := f.Rename(th, src, dst); err != nil {
				t.Fatalf("op %d rename %s->%s: %v", i, src, dst, err)
			}
			model[dst] = model[src]
			delete(model, src)
		case 7: // verify one file fully
			path, ok := pick()
			if !ok {
				continue
			}
			m := model[path]
			h, err := f.Open(th, path, vfs.O_RDONLY)
			if err != nil {
				t.Fatalf("op %d verify-open %s: %v", i, path, err)
			}
			got := make([]byte, len(m.data)+100)
			n, err := h.ReadAt(th, got, 0)
			if err != nil {
				t.Fatalf("op %d verify-read: %v", i, err)
			}
			h.Close(th)
			if n != len(m.data) || !bytes.Equal(got[:n], m.data) {
				t.Fatalf("op %d: %s content mismatch (%d vs %d bytes)", i, path, n, len(m.data))
			}
		case 8: // stat size check
			path, ok := pick()
			if !ok {
				continue
			}
			fi, err := f.Stat(th, path)
			if err != nil {
				t.Fatalf("op %d stat %s: %v", i, path, err)
			}
			if fi.Size != int64(len(model[path].data)) {
				t.Fatalf("op %d: %s size %d want %d", i, path, fi.Size, len(model[path].data))
			}
		case 9: // chmod (split or in-place)
			path, ok := pick()
			if !ok {
				continue
			}
			mode := []uint32{0o644, 0o600, 0o640}[rng.Intn(3)]
			lastDetail = fmt.Sprintf("chmod %s %o", path, mode)
			if err := f.Chmod(th, path, coffer.Mode(mode)); err != nil {
				t.Fatalf("op %d chmod %s: %v", i, path, err)
			}
			model[path].mode = mode
		}
		if i%25 == 0 {
			verifyAll(i, op)
		}
	}

	// Final full verification of every surviving file.
	for path, m := range model {
		fi, err := f.Stat(th, path)
		if err != nil {
			t.Fatalf("final stat %s: %v", path, err)
		}
		if fi.Size != int64(len(m.data)) {
			t.Fatalf("final %s size %d want %d", path, fi.Size, len(m.data))
		}
		if uint32(fi.Mode) != m.mode {
			t.Fatalf("final %s mode %o want %o", path, fi.Mode, m.mode)
		}
		h, err := f.Open(th, path, vfs.O_RDONLY)
		if err != nil {
			t.Fatalf("final open %s: %v", path, err)
		}
		got := make([]byte, len(m.data))
		if n, _ := h.ReadAt(th, got, 0); n != len(m.data) || !bytes.Equal(got, m.data) {
			t.Fatalf("final %s content mismatch", path)
		}
		h.Close(th)
	}
	// Directory listings agree with the model.
	for _, d := range dirs {
		ents, err := f.ReadDir(th, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			full := vfs.Join(d, e.Name)
			if e.Type == vfs.TypeRegular {
				if _, ok := model[full]; !ok {
					t.Fatalf("listing has %s not in model", full)
				}
			}
		}
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
		zofs.ResetShared(dev)

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
