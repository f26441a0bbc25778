// Package trace reproduces the paper's file-permission survey (§2.3,
// Tables 3 and 4). The original inputs — live MySQL/PostgreSQL/DokuWiki
// data directories, the FSL Homes snapshot of 2015-04-10, and the MobiGen
// smartphone syscall traces — are not redistributable, so this package
// synthesizes metadata trees that match the published marginals (file
// counts per permission and type, group counts, size statistics) and then
// runs the paper's actual analysis: the top-down permission-grouping
// algorithm whose output motivates the coffer abstraction.
package trace

import (
	"fmt"
	"math/rand"
	"sort"

	"zofs/internal/coffer"
)

// Node is one file system object in a metadata tree.
type Node struct {
	Name     string
	Type     byte // 'f' regular, 'd' directory, 'l' symlink
	Perm     uint32
	UID, GID uint32
	Size     int64
	Children []*Node
}

// Group is one permission group produced by the paper's algorithm: a
// maximal subtree in which every file shares its parent's permission.
type Group struct {
	Perm     uint32
	UID, GID uint32
	Files    int
	Bytes    int64
}

// GroupByPermission implements §2.3: "If a file has the same permission as
// its parent, then it stays in the same group as its parent. Otherwise, a
// new group is created … starting from a single group containing the FS
// root directory, grouping files top-down."
func GroupByPermission(root *Node) []*Group {
	var groups []*Group
	var walk func(n *Node, g *Group)
	walk = func(n *Node, g *Group) {
		if c := n.class(); g == nil || c != coffer.ClassOf(coffer.Mode(g.Perm), g.UID, g.GID) {
			g = &Group{Perm: uint32(c.Mode), UID: c.UID, GID: c.GID}
			groups = append(groups, g)
		}
		g.Files++
		g.Bytes += n.Size
		for _, c := range n.Children {
			walk(c, g)
		}
	}
	walk(root, nil)
	return groups
}

// class is n's permission class, the coffers' own (coffer.Class).
func (n *Node) class() coffer.Class { return coffer.ClassOf(coffer.Mode(n.Perm), n.UID, n.GID) }

// GroupStats summarizes groups for one permission class (a Table 4 column).
type GroupStats struct {
	Perm    uint32
	Groups  int
	Files   int
	MinSize int64
	AvgSize int64
	MaxSize int64
}

// Summarize aggregates groups by permission bits.
func Summarize(groups []*Group) []GroupStats {
	byPerm := map[uint32][]*Group{}
	for _, g := range groups {
		byPerm[g.Perm] = append(byPerm[g.Perm], g)
	}
	var out []GroupStats
	for perm, gs := range byPerm {
		st := GroupStats{Perm: perm, Groups: len(gs), MinSize: 1 << 62}
		var total int64
		for _, g := range gs {
			st.Files += g.Files
			total += g.Bytes
			if g.Bytes < st.MinSize {
				st.MinSize = g.Bytes
			}
			if g.Bytes > st.MaxSize {
				st.MaxSize = g.Bytes
			}
		}
		st.AvgSize = total / int64(len(gs))
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Files > out[j].Files })
	return out
}

// fslClass describes one permission class of the published Table 4.
type fslClass struct {
	perm               uint32
	regular, symlink   int
	directory          int
	groups             int
	avgBytes, maxBytes int64
}

// fslTable4 is the published snapshot summary (paper Table 4).
var fslTable4 = []fslClass{
	{perm: 0o644, regular: 538538, symlink: 18, directory: 65127, groups: 1935, avgBytes: 46 << 20, maxBytes: 23 << 30},
	{perm: 0o600, regular: 105226, symlink: 0, directory: 4021, groups: 1174, avgBytes: 222 << 20, maxBytes: 52 << 30},
	{perm: 0o666, regular: 233, symlink: 6468, directory: 927, groups: 365, avgBytes: 474 << 10, maxBytes: 106 << 20},
	{perm: 0o444, regular: 3313, symlink: 0, directory: 1099, groups: 48, avgBytes: 92 << 20, maxBytes: 995 << 20},
	{perm: 0o660, regular: 342, symlink: 0, directory: 276, groups: 15, avgBytes: 118 << 10, maxBytes: 211 << 10},
	{perm: 0o640, regular: 921, symlink: 0, directory: 33, groups: 853, avgBytes: 31 << 10, maxBytes: 10 << 20},
	{perm: 0o664, regular: 110, symlink: 0, directory: 91, groups: 51, avgBytes: 348 << 10, maxBytes: 5 << 20},
	{perm: 0o440, regular: 8, symlink: 0, directory: 0, groups: 8, avgBytes: 26 << 10, maxBytes: 98 << 10},
}

// GenerateFSLHomes synthesizes a home-directory tree whose per-permission
// file counts and group counts follow the published Table 4, scaled by
// scale (1.0 reproduces the full 726,751-file snapshot).
func GenerateFSLHomes(scale float64, seed int64) *Node {
	rng := rand.New(rand.NewSource(seed))
	root := &Node{Name: "/", Type: 'd', Perm: 0o755, UID: 0, GID: 0}
	uid := uint32(1000)
	// 15 home directories, dominated by 644 as in the trace.
	homes := make([]*Node, 15)
	anchors := make([]*Node, 15)
	for i := range homes {
		homes[i] = &Node{Name: fmt.Sprintf("home%02d", i), Type: 'd', Perm: 0o644 | 0o111, UID: uid + uint32(i), GID: uid + uint32(i)}
		root.Children = append(root.Children, homes[i])
		// Planted groups hang off a per-home anchor directory whose
		// permission class (write-only after masking) appears nowhere in
		// the snapshot, so adjacent same-class groups never coalesce with
		// their surroundings — mirroring how differently-permed ancestors
		// separate groups in the real trace.
		anchors[i] = &Node{Name: "anchor", Type: 'd', Perm: 0o311, UID: homes[i].UID, GID: homes[i].GID}
		homes[i].Children = append(homes[i].Children, anchors[i])
	}
	for _, cls := range fslTable4 {
		nGroups := int(float64(cls.groups)*scale + 0.5)
		if nGroups < 1 {
			nGroups = 1
		}
		files := int(float64(cls.regular+cls.symlink)*scale + 0.5)
		dirs := int(float64(cls.directory)*scale + 0.5)
		for g := 0; g < nGroups; g++ {
			owner := anchors[rng.Intn(len(anchors))]
			// Group root: a directory with the class permission (or a
			// single file for single-file groups).
			share := files / nGroups
			if g == nGroups-1 {
				share = files - share*(nGroups-1)
			}
			if share <= 1 && dirs/nGroups == 0 {
				owner.Children = append(owner.Children, &Node{
					Name: fmt.Sprintf("g%o-%d", cls.perm, g), Type: 'f',
					Perm: cls.perm, UID: owner.UID, GID: owner.GID,
					Size: sizeSample(rng, cls.avgBytes, cls.maxBytes),
				})
				continue
			}
			gd := &Node{Name: fmt.Sprintf("g%o-%d", cls.perm, g), Type: 'd',
				Perm: cls.perm, UID: owner.UID, GID: owner.GID}
			owner.Children = append(owner.Children, gd)
			cur := gd
			for f := 0; f < share; f++ {
				typ := byte('f')
				if cls.symlink > 0 && rng.Intn(cls.regular+cls.symlink) < cls.symlink {
					typ = 'l'
				}
				cur.Children = append(cur.Children, &Node{
					Name: fmt.Sprintf("f%d", f), Type: typ,
					Perm: cls.perm, UID: owner.UID, GID: owner.GID,
					Size: sizeSample(rng, cls.avgBytes/int64(share+1), cls.maxBytes/4),
				})
				// Occasionally descend into a subdirectory of the group.
				if f%64 == 63 && dirs > 0 {
					nd := &Node{Name: fmt.Sprintf("d%d", f), Type: 'd',
						Perm: cls.perm, UID: owner.UID, GID: owner.GID}
					cur.Children = append(cur.Children, nd)
					cur = nd
					dirs--
				}
			}
		}
	}
	return root
}

// sizeSample draws a heavy-tailed file size around avg, capped at max.
func sizeSample(rng *rand.Rand, avg, max int64) int64 {
	if avg <= 0 {
		avg = 455
	}
	// Exponential around the mean with a long tail.
	v := int64(rng.ExpFloat64() * float64(avg))
	if max > 0 && v > max {
		v = max
	}
	return v
}

// Count walks a tree and reports totals per (type).
func Count(root *Node) (regular, symlink, directory int, bytes int64) {
	var walk func(n *Node)
	walk = func(n *Node) {
		switch n.Type {
		case 'f':
			regular++
		case 'l':
			symlink++
		case 'd':
			directory++
		}
		bytes += n.Size
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return
}

// AppTree is one Table 3 application data directory.
type AppTree struct {
	System string
	Root   *Node
}

// GenerateAppTrees synthesizes the Table 3 application directories with the
// published file counts, permissions and owners.
func GenerateAppTrees(seed int64) []AppTree {
	rng := rand.New(rand.NewSource(seed))
	mk := func(system string, rows []struct {
		typ   byte
		perm  uint32
		uid   uint32
		count int
		bytes int64
	}) AppTree {
		root := &Node{Name: "/", Type: 'd', Perm: rows[0].perm, UID: rows[0].uid, GID: rows[0].uid}
		var dirs []*Node
		dirs = append(dirs, root)
		for _, r := range rows {
			for i := 0; i < r.count; i++ {
				n := &Node{
					Name: fmt.Sprintf("%c%o-%d", r.typ, r.perm, i),
					Type: r.typ, Perm: r.perm, UID: r.uid, GID: r.uid,
				}
				if r.count > 0 {
					n.Size = r.bytes / int64(r.count)
				}
				parent := dirs[rng.Intn(len(dirs))]
				parent.Children = append(parent.Children, n)
				if r.typ == 'd' {
					dirs = append(dirs, n)
				}
			}
		}
		return AppTree{System: system, Root: root}
	}
	return []AppTree{
		mk("MySQL", []struct {
			typ   byte
			perm  uint32
			uid   uint32
			count int
			bytes int64
		}{
			{'d', 0o750, 970, 6, 32 << 10},
			{'f', 0o640, 970, 358, 399 << 20},
			{'f', 0o644, 0, 1, 0},
		}),
		mk("PostgreSQL", []struct {
			typ   byte
			perm  uint32
			uid   uint32
			count int
			bytes int64
		}{
			{'d', 0o700, 969, 28, 128 << 10},
			{'f', 0o600, 969, 1807, 99 << 20},
		}),
		mk("DokuWiki", []struct {
			typ   byte
			perm  uint32
			uid   uint32
			count int
			bytes int64
		}{
			{'d', 0o755, 33, 1035, 5 << 20},
			{'f', 0o644, 33, 19941, 452 << 20},
		}),
	}
}

// SurveyRow is one Table 3 row.
type SurveyRow struct {
	System string
	Type   string
	Perm   uint32
	UID    uint32
	Files  int
	Bytes  int64
}

// Survey aggregates an application tree by (type, perm, uid) as Table 3
// does.
func Survey(t AppTree) []SurveyRow {
	type key struct {
		typ  byte
		perm uint32
		uid  uint32
	}
	agg := map[key]*SurveyRow{}
	var walk func(n *Node)
	walk = func(n *Node) {
		k := key{n.Type, n.Perm, n.UID}
		r := agg[k]
		if r == nil {
			typ := "Regular"
			if n.Type == 'd' {
				typ = "Directory"
			} else if n.Type == 'l' {
				typ = "Symlink"
			}
			r = &SurveyRow{System: t.System, Type: typ, Perm: n.Perm, UID: n.UID}
			agg[k] = r
		}
		r.Files++
		r.Bytes += n.Size
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	var out []SurveyRow
	for _, r := range agg {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Files > out[j].Files })
	return out
}

// MobiGenStats reproduces the §2.3 MobiGen observation: permission-change
// syscall frequencies in two smartphone traces, including the Twitter
// shadow-file pattern (create 600 → write → chmod 660 → rename).
type MobiGenStats struct {
	Trace    string
	Syscalls int
	Chmods   int
	Chowns   int
}

// MobiGen returns the published trace summaries.
func MobiGen() []MobiGenStats {
	return []MobiGenStats{
		{Trace: "Facebook", Syscalls: 64282, Chmods: 0, Chowns: 0},
		{Trace: "Twitter", Syscalls: 25306, Chmods: 16, Chowns: 0},
	}
}
