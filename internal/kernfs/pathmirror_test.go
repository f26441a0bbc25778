package kernfs

import (
	"hash/fnv"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"zofs/internal/coffer"
)

// mirrorOf copies a kernel's volatile path mirror out.
func mirrorOf(k *KernFS) map[string]coffer.ID {
	m := map[string]coffer.ID{}
	k.paths.each(func(p string, id coffer.ID) bool {
		m[p] = id
		return true
	})
	return m
}

// TestPathMirrorMatchesRemount runs a seeded history of coffer creates,
// deletes, RenameCoffer and RenamePrefix (with and without coffers under the
// prefix) over names that are string prefixes but not path prefixes of one
// another (/a/b, /a/bc) and nest four deep. After every step the mirror that
// was edited in place must equal a model of the path rules, and what a fresh
// Mount loads from the persistent table; seq must be even, and must have
// moved exactly when the table did.
func TestPathMirrorMatchesRemount(t *testing.T) {
	dev, k := newFS(t)
	th := mountedThread(t, k, 0, 0)
	rng := rand.New(rand.NewSource(101))
	names := []string{"a", "b", "bc", "c"}
	randPath := func() string {
		var sb strings.Builder
		for d := rng.Intn(4) + 1; d > 0; d-- {
			sb.WriteString("/" + names[rng.Intn(len(names))])
		}
		return sb.String()
	}
	model := map[string]coffer.ID{"/": k.RootCoffer()}
	// anyWithin reports whether the model holds dir or a path under it.
	anyWithin := func(dir string) bool {
		for p := range model {
			if pathWithin(dir, p) {
				return true
			}
		}
		return false
	}
	// moveTree applies the rename rule to the model and reports a change.
	moveTree := func(from, to string) bool {
		moved := map[string]coffer.ID{}
		for p, id := range model {
			if pathWithin(from, p) {
				delete(model, p)
				moved[to+p[len(from):]] = id
			}
		}
		maps.Copy(model, moved)
		return len(moved) > 0
	}

	const steps = 600
	for step := 0; step < steps; step++ {
		seq := k.paths.seq.Load()
		changed := false
		switch p := randPath(); rng.Intn(5) {
		case 0, 1:
			id, err := k.CofferNew(th, k.RootCoffer(), p, coffer.TypeZoFS, 0o700, 0, 0, 3)
			if _, dup := model[p]; dup {
				if err != ErrExists {
					t.Fatalf("step %d: CofferNew(%s) over a coffer: %v", step, p, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: CofferNew(%s): %v", step, p, err)
			}
			model[p], changed = id, true
		case 2:
			id, ok := k.LookupPath(nil, p)
			if want, had := model[p]; ok != had || id != want {
				t.Fatalf("step %d: LookupPath(%s) = %d,%v, model %d,%v", step, p, id, ok, want, had)
			}
			if ok {
				if err := k.CofferDelete(th, id); err != nil {
					t.Fatalf("step %d: CofferDelete(%s): %v", step, p, err)
				}
				delete(model, p)
				changed = true
			}
		default:
			to := randPath()
			if anyWithin(to) || pathWithin(p, to) || pathWithin(to, p) {
				break // the destination must be free, and neither inside the other
			}
			if _, exact := model[p]; exact && rng.Intn(2) == 0 {
				if err := k.RenameCoffer(th, p, to); err != nil {
					t.Fatalf("step %d: RenameCoffer(%s, %s): %v", step, p, to, err)
				}
			} else if err := k.RenamePrefix(th, p, to); err != nil {
				t.Fatalf("step %d: RenamePrefix(%s, %s): %v", step, p, to, err)
			}
			changed = moveTree(p, to)
		}

		if got := mirrorOf(k); !maps.Equal(got, model) {
			t.Fatalf("step %d: mirror %v, model %v", step, got, model)
		}
		if now := k.paths.seq.Load(); now%2 != 0 || (now != seq) != changed {
			t.Fatalf("step %d: seq %d -> %d, table changed = %v", step, seq, now, changed)
		}
		if step%20 == 0 || step == steps-1 {
			k2, err := Mount(dev)
			if err != nil {
				t.Fatalf("step %d: remount: %v", step, err)
			}
			if loaded := mirrorOf(k2); !maps.Equal(loaded, model) {
				t.Fatalf("step %d: a fresh Mount loads %v, mirror holds %v", step, loaded, model)
			}
		}
	}
}

// TestPathHashIsFNV1a: the inlined hash decides which persistent bucket a
// path lives in, so it must stay the FNV-1a that formatted existing images.
func TestPathHashIsFNV1a(t *testing.T) {
	for _, p := range []string{"", "/", "/a", "/home/u1/shared", strings.Repeat("/x", 2000)} {
		h := fnv.New64a()
		h.Write([]byte(p))
		if got, want := pathHash(p), h.Sum64(); got != want {
			t.Errorf("pathHash(%q) = %#x, hash/fnv says %#x", p, got, want)
		}
	}
}
