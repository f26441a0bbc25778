package crashmc

import (
	"fmt"
	"maps"
	"testing"

	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// TestWalkTreeNested: the tree walk visits every path of a three-level tree
// exactly once. Each child directory holds fewer entries than its parent, so
// a walk that kept ranging over a listing the next ReadDir on the same
// thread had overwritten would visit names from the wrong level.
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
	want := map[string]int{}
	mkdir := func(p string) {
		if err := f.Mkdir(th, p, 0o755); err != nil {
			t.Fatal(err)
		}
		want[p] = 1
	}
	create := func(p string) {
		h, err := f.Create(th, p, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Close(th); err != nil {
			t.Fatal(err)
		}
		want[p] = 1
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

	got := map[string]int{}
	walkTree(f, th, "/", func(p string, e vfs.DirEntry) { got[p]++ })
	if !maps.Equal(got, want) {
		t.Fatalf("walk visited %d paths, want %d:\n%v", len(got), len(want), got)
	}
}
