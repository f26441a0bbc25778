// Package rbtree implements a red-black tree keyed by int64 with int64
// values. KernFS uses two of these volatile trees to track free NVM space
// and per-coffer allocated space (paper §4.1: "we use a global volatile
// red-black tree to track all free space in the allocation table, and
// another red-black tree to track all allocated space").
package rbtree

const (
	red   = false
	black = true
)

type node struct {
	key, val            int64
	color               bool
	left, right, parent *node
}

// Tree is a red-black tree mapping int64 keys to int64 values. The zero
// value is not usable; call New.
type Tree struct {
	root *node
	nil_ *node // sentinel
	size int
	// free chains (through right) the nodes Delete unlinked; Insert takes
	// from it before the heap, so a tree whose size oscillates allocates
	// nothing in steady state.
	free *node
}

// New returns an empty tree.
func New() *Tree {
	s := &node{color: black}
	s.left, s.right, s.parent = s, s, s
	return &Tree{root: s, nil_: s}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

func (t *Tree) rotateLeft(x *node) {
	y := x.right
	x.right = y.left
	if y.left != t.nil_ {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nil_:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree) rotateRight(x *node) {
	y := x.left
	x.left = y.right
	if y.right != t.nil_ {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == t.nil_:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

// Insert adds or replaces the entry for key.
func (t *Tree) Insert(key, val int64) {
	y := t.nil_
	x := t.root
	for x != t.nil_ {
		y = x
		switch {
		case key < x.key:
			x = x.left
		case key > x.key:
			x = x.right
		default:
			x.val = val
			return
		}
	}
	z := t.free
	if z != nil {
		t.free = z.right
	} else {
		z = new(node)
	}
	*z = node{key: key, val: val, color: red, left: t.nil_, right: t.nil_, parent: y}
	switch {
	case y == t.nil_:
		t.root = z
	case key < y.key:
		y.left = z
	default:
		y.right = z
	}
	t.size++
	t.insertFixup(z)
}

func (t *Tree) insertFixup(z *node) {
	for z.parent.color == red {
		if z.parent == z.parent.parent.left {
			y := z.parent.parent.right
			if y.color == red {
				z.parent.color = black
				y.color = black
				z.parent.parent.color = red
				z = z.parent.parent
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.color = black
				z.parent.parent.color = red
				t.rotateRight(z.parent.parent)
			}
		} else {
			y := z.parent.parent.left
			if y.color == red {
				z.parent.color = black
				y.color = black
				z.parent.parent.color = red
				z = z.parent.parent
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.color = black
				z.parent.parent.color = red
				t.rotateLeft(z.parent.parent)
			}
		}
	}
	t.root.color = black
}

func (t *Tree) search(key int64) *node {
	x := t.root
	for x != t.nil_ {
		switch {
		case key < x.key:
			x = x.left
		case key > x.key:
			x = x.right
		default:
			return x
		}
	}
	return t.nil_
}

// Get returns the value for key.
func (t *Tree) Get(key int64) (int64, bool) {
	n := t.search(key)
	if n == t.nil_ {
		return 0, false
	}
	return n.val, true
}

// Rekey changes the entry at key to (newKey, val) without moving its node.
// newKey must keep the entry's place in the order — strictly between its
// neighbours' keys — which is what an extent does when it shrinks from, or
// grows at, its front. It reports whether key existed.
func (t *Tree) Rekey(key, newKey, val int64) bool {
	n := t.search(key)
	if n == t.nil_ {
		return false
	}
	n.key, n.val = newKey, val
	return true
}

// Floor returns the greatest entry with key <= k.
func (t *Tree) Floor(k int64) (key, val int64, ok bool) {
	x := t.root
	best := t.nil_
	for x != t.nil_ {
		if x.key == k {
			return x.key, x.val, true
		}
		if x.key < k {
			best = x
			x = x.right
		} else {
			x = x.left
		}
	}
	if best == t.nil_ {
		return 0, 0, false
	}
	return best.key, best.val, true
}

// Ceiling returns the smallest entry with key >= k.
func (t *Tree) Ceiling(k int64) (key, val int64, ok bool) {
	x := t.root
	best := t.nil_
	for x != t.nil_ {
		if x.key == k {
			return x.key, x.val, true
		}
		if x.key > k {
			best = x
			x = x.left
		} else {
			x = x.right
		}
	}
	if best == t.nil_ {
		return 0, 0, false
	}
	return best.key, best.val, true
}

// Min returns the smallest entry.
func (t *Tree) Min() (key, val int64, ok bool) {
	if t.root == t.nil_ {
		return 0, 0, false
	}
	n := t.min(t.root)
	return n.key, n.val, true
}

func (t *Tree) min(x *node) *node {
	for x.left != t.nil_ {
		x = x.left
	}
	return x
}

func (t *Tree) transplant(u, v *node) {
	switch {
	case u.parent == t.nil_:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	v.parent = u.parent
}

// Delete removes the entry for key, reporting whether it existed.
func (t *Tree) Delete(key int64) bool {
	z := t.search(key)
	if z == t.nil_ {
		return false
	}
	t.size--
	y := z
	yOrig := y.color
	var x *node
	switch {
	case z.left == t.nil_:
		x = z.right
		t.transplant(z, z.right)
	case z.right == t.nil_:
		x = z.left
		t.transplant(z, z.left)
	default:
		y = t.min(z.right)
		yOrig = y.color
		x = y.right
		if y.parent == z {
			x.parent = y
		} else {
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yOrig == black {
		t.deleteFixup(x)
	}
	*z = node{right: t.free}
	t.free = z
	return true
}

func (t *Tree) deleteFixup(x *node) {
	for x != t.root && x.color == black {
		if x == x.parent.left {
			w := x.parent.right
			if w.color == red {
				w.color = black
				x.parent.color = red
				t.rotateLeft(x.parent)
				w = x.parent.right
			}
			if w.left.color == black && w.right.color == black {
				w.color = red
				x = x.parent
			} else {
				if w.right.color == black {
					w.left.color = black
					w.color = red
					t.rotateRight(w)
					w = x.parent.right
				}
				w.color = x.parent.color
				x.parent.color = black
				w.right.color = black
				t.rotateLeft(x.parent)
				x = t.root
			}
		} else {
			w := x.parent.left
			if w.color == red {
				w.color = black
				x.parent.color = red
				t.rotateRight(x.parent)
				w = x.parent.left
			}
			if w.right.color == black && w.left.color == black {
				w.color = red
				x = x.parent
			} else {
				if w.left.color == black {
					w.right.color = black
					w.color = red
					t.rotateLeft(w)
					w = x.parent.left
				}
				w.color = x.parent.color
				x.parent.color = black
				w.left.color = black
				t.rotateRight(x.parent)
				x = t.root
			}
		}
	}
	x.color = black
}

// Ascend calls fn for each entry in key order until fn returns false. fn
// must not modify the tree.
func (t *Tree) Ascend(fn func(key, val int64) bool) {
	if t.root == t.nil_ {
		return
	}
	for n := t.min(t.root); n != t.nil_; n = t.next(n) {
		if !fn(n.key, n.val) {
			return
		}
	}
}

// next returns n's in-order successor, or the sentinel after the last node.
func (t *Tree) next(n *node) *node {
	if n.right != t.nil_ {
		return t.min(n.right)
	}
	p := n.parent
	for p != t.nil_ && n == p.right {
		n, p = p, p.parent
	}
	return p
}

// validate checks the red-black invariants, key order and size; used by
// tests.
func (t *Tree) validate() (ok bool, blackHeight int) {
	if t.root.color != black {
		return false, 0
	}
	n, sorted := 0, true
	var prev int64
	t.Ascend(func(k, _ int64) bool {
		sorted = sorted && (n == 0 || prev < k)
		prev = k
		n++
		return true
	})
	if !sorted || n != t.size {
		return false, 0
	}
	var check func(n *node) (bool, int)
	check = func(n *node) (bool, int) {
		if n == t.nil_ {
			return true, 1
		}
		if n.color == red && (n.left.color == red || n.right.color == red) {
			return false, 0
		}
		lok, lh := check(n.left)
		rok, rh := check(n.right)
		if !lok || !rok || lh != rh {
			return false, 0
		}
		h := lh
		if n.color == black {
			h++
		}
		return true, h
	}
	return check(t.root)
}
