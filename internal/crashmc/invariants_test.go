package crashmc

import (
	"fmt"
	"strings"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// TestWalkTreeNested: the model's tree walk lists every level of a
// three-level tree correctly. Each child directory holds fewer entries than
// its parent, so a walk that kept ranging over a listing the next ReadDir on
// the same thread had overwritten would meet names from the wrong level and
// report them as entries the model does not hold. An entry planted at the
// deepest level must be reported.
func TestWalkTreeNested(t *testing.T) {
	dev := nvm.NewDevice(64 << 20)
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		t.Fatal(err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	th := proc.NewProcess(dev, 0, 0).NewThread()
	if err := k.FSMount(th); err != nil {
		t.Fatal(err)
	}
	f := zofs.New(k, zofs.Options{})
	if err := f.EnsureRootDir(th); err != nil {
		t.Fatal(err)
	}
	m := vfs.NewModel()
	mkdir := func(p string) {
		if err := f.Mkdir(th, p, 0o755); err != nil {
			t.Fatal(err)
		}
		m.Mkdir(p)
	}
	create := func(p string) {
		h, err := f.Create(th, p, fileMode)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Close(th); err != nil {
			t.Fatal(err)
		}
		m.Create(p, fileMode)
	}
	// 5 entries at the root, 3 in each of its directories, 1 below those.
	for d := 0; d < 5; d++ {
		dir := fmt.Sprintf("/d%d", d)
		mkdir(dir)
		create(dir + "/f")
		for s := 0; s < 2; s++ {
			sub := fmt.Sprintf("%s/s%d", dir, s)
			mkdir(sub)
			create(sub + "/leaf")
		}
	}
	if err := m.Check(f, th, nil); err != nil {
		t.Fatalf("walk of a tree the model holds: %v", err)
	}

	h, err := f.Create(th, "/d4/s1/extra", fileMode)
	if err != nil {
		t.Fatal(err)
	}
	h.Close(th)
	if err := m.Check(f, th, nil); err == nil || !strings.Contains(err.Error(), "/d4/s1/extra") {
		t.Fatalf("walk missed an entry the model does not hold: %v", err)
	}
}
