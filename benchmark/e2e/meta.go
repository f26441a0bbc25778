package e2e

import (
	"errors"
	"fmt"

	"zofs/internal/vfs"
)

const (
	mcStatHit uint8 = iota
	mcStatMiss
	mcCreate
	mcUnlink
	mcRename
	mcOpenClose
	mcReadDir
	mcMkdirRmdir
)

const (
	metaChurnOps   = 120_000
	metaDirs       = 64
	metaSlots      = 512 // names per directory; half are live at any time
	metaLivePerDir = metaSlots / 2
)

// metaChurn keeps a tree of metaDirs directories stationary at about
// metaLivePerDir files each: creates go to the emptier of two random
// directories and unlinks to the fuller, so the population neither drains
// nor overflows the fixed name pool however long the stream is.
type metaChurn struct {
	dirs  []string
	subs  []string // per directory, the path mkdir+rmdir uses
	paths []string // dirs × metaSlots file paths, the fixed name pool
	ops   []Op
	warm  int
	init  [][]uint16 // initially live slots per directory
	final [][]uint16 // live slots per directory after the whole stream
	hash  uint64
}

func newMetaChurn(seed uint64, scale int) *metaChurn {
	r := newRNG(seed ^ 0x3e7a_0003)
	nDirs := max(4, metaDirs/scale)
	n := metaChurnOps / scale
	w := &metaChurn{warm: n / 10}
	live := make([][]uint16, nDirs)
	dead := make([][]uint16, nDirs)
	for d := 0; d < nDirs; d++ {
		dir := fmt.Sprintf("/m/d%02d", d)
		w.dirs = append(w.dirs, dir)
		w.subs = append(w.subs, dir+"/sub")
		for s := 0; s < metaSlots; s++ {
			w.paths = append(w.paths, fmt.Sprintf("%s/f%03d", dir, s))
			if s%2 == 0 {
				live[d] = append(live[d], uint16(s))
			} else {
				dead[d] = append(dead[d], uint16(s))
			}
		}
		w.init = append(w.init, append([]uint16(nil), live[d]...))
	}
	take := func(set *[]uint16) uint16 {
		i := r.intn(len(*set))
		s := (*set)[i]
		(*set)[i] = (*set)[len(*set)-1]
		*set = (*set)[:len(*set)-1]
		return s
	}
	// fuller/emptier pick between two random directories.
	pick2 := func(fuller bool) int {
		a, b := r.intn(nDirs), r.intn(nDirs)
		if (len(live[a]) < len(live[b])) == fuller {
			return b
		}
		return a
	}
	id := func(d int, s uint16) uint32 { return uint32(d*metaSlots) + uint32(s) }
	kinds := deck(r, n+w.warm, []mixEntry{
		{mcStatHit, 30}, {mcStatMiss, 10}, {mcCreate, 20}, {mcUnlink, 20},
		{mcRename, 10}, {mcOpenClose, 5}, {mcReadDir, 4}, {mcMkdirRmdir, 1},
	})
	w.ops = make([]Op, len(kinds))
	renames := 0
	for i, k := range kinds {
		o := Op{Kind: k}
		switch k {
		case mcStatHit, mcOpenClose:
			d := pick2(true)
			o.A = id(d, live[d][r.intn(len(live[d]))])
		case mcStatMiss:
			d := pick2(false)
			o.A, o.Want = id(d, dead[d][r.intn(len(dead[d]))]), wantNotExist
		case mcCreate:
			d := pick2(false)
			s := take(&dead[d])
			live[d] = append(live[d], s)
			o.A = id(d, s)
		case mcUnlink:
			d := pick2(true)
			s := take(&live[d])
			dead[d] = append(dead[d], s)
			o.A = id(d, s)
		case mcRename:
			// Alternate same-directory and cross-directory renames.
			src := pick2(true)
			dst := src
			if renames++; renames%2 == 0 {
				for dst == src {
					dst = pick2(false)
				}
			}
			s := take(&live[src])
			t := take(&dead[dst])
			dead[src] = append(dead[src], s)
			live[dst] = append(live[dst], t)
			o.A, o.B = id(src, s), id(dst, t)
		case mcReadDir:
			d := r.intn(nDirs)
			o.A, o.B = uint32(d), uint32(len(live[d]))
		case mcMkdirRmdir:
			o.A = uint32(r.intn(nDirs))
		}
		w.ops[i] = o
	}
	w.final = live
	w.hash = hashOps(w.ops)
	return w
}

func (w *metaChurn) Name() string       { return "meta_churn" }
func (w *metaChurn) Ops() int           { return len(w.ops) - w.warm }
func (w *metaChurn) StreamHash() uint64 { return w.hash }
func (w *metaChurn) KindNames() []string {
	return []string{"stat_hit", "stat_miss", "create", "unlink", "rename", "open_close", "readdir", "mkdir_rmdir"}
}

type metaChurnInst struct {
	w   *metaChurn
	env *Env
	tr  *Tracer
}

func (w *metaChurn) NewInstance(tr *Tracer) (Instance, error) {
	env, err := newEnv(1 << 30)
	if err != nil {
		return nil, err
	}
	c, err := env.addClient(0, tr)
	if err != nil {
		return nil, err
	}
	if err := c.Lib.Mkdir(c.Th, "/m", 0o755); err != nil {
		return nil, err
	}
	for d, dir := range w.dirs {
		if err := c.Lib.Mkdir(c.Th, dir, 0o755); err != nil {
			return nil, err
		}
		for _, s := range w.init[d] {
			if err := touch(c, w.paths[d*metaSlots+int(s)]); err != nil {
				return nil, err
			}
		}
	}
	return &metaChurnInst{w: w, env: env, tr: tr}, nil
}

// touch creates an empty file.
func touch(c *Client, path string) error {
	fd, err := c.Lib.Open(c.Th, path, vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	return c.Lib.Close(c.Th, fd)
}

func (in *metaChurnInst) Env() *Env { return in.env }

func (in *metaChurnInst) Warm() int { return in.exec(in.w.ops[:in.w.warm], nil) }

func (in *metaChurnInst) Run(h *Hist, laps *Laps) int {
	ops := in.w.ops[in.w.warm:]
	return laps.run(len(ops), func(a, b int) int { return in.exec(ops[a:b], h) })
}

func (in *metaChurnInst) exec(ops []Op, h *Hist) (failed int) {
	c, tr, w := in.env.Clients[0], in.tr, in.w
	th, lib := c.Th, c.Lib
	for i := range ops {
		o := &ops[i]
		var (
			err error
			ok  = true
		)
		v0 := th.Clk.Now()
		tr.Begin(o.Kind, th.TID, v0)
		switch o.Kind {
		case mcStatHit:
			var fi vfs.FileInfo
			fi, err = lib.Stat(th, w.paths[o.A])
			ok = fi.Type == vfs.TypeRegular
		case mcStatMiss:
			_, err = lib.Stat(th, w.paths[o.A])
		case mcCreate:
			var fd int
			if fd, err = lib.Open(th, w.paths[o.A], vfs.O_CREATE|vfs.O_EXCL|vfs.O_RDWR, 0o644); err == nil {
				err = lib.Close(th, fd)
			}
		case mcUnlink:
			err = lib.Unlink(th, w.paths[o.A])
		case mcRename:
			err = lib.Rename(th, w.paths[o.A], w.paths[o.B])
		case mcOpenClose:
			var fd int
			if fd, err = lib.Open(th, w.paths[o.A], vfs.O_RDONLY, 0); err == nil {
				err = lib.Close(th, fd)
			}
		case mcReadDir:
			var ents []vfs.DirEntry
			ents, err = lib.ReadDir(th, w.dirs[o.A])
			ok = len(ents) == int(o.B)
		case mcMkdirRmdir:
			if err = lib.Mkdir(th, w.subs[o.A], 0o755); err == nil {
				err = lib.Rmdir(th, w.subs[o.A])
			}
		}
		v1 := th.Clk.Now()
		tr.End(v1)
		if h != nil {
			h.Record(v1 - v0)
		}
		if !matches(o.Want, err) || (err == nil && !ok) {
			failed++
		}
	}
	return failed
}

// matches reports whether err is the outcome the model predicted.
func matches(want uint8, err error) bool {
	switch want {
	case wantNotExist:
		return errors.Is(err, vfs.ErrNotExist)
	case wantPerm:
		return errors.Is(err, vfs.ErrPerm)
	default:
		return err == nil
	}
}

// verifyDir compares a directory listing with the expected base names; it
// returns how many names were expected and how many were missing or extra.
func verifyDir(c *Client, dir string, want map[string]bool) (checked, bad int) {
	ents, err := c.Lib.ReadDir(c.Th, dir)
	if err != nil {
		return len(want), len(want)
	}
	seen := 0
	for _, e := range ents {
		if want[e.Name] {
			seen++
		} else {
			bad++
		}
	}
	return len(want), bad + len(want) - seen
}

func (in *metaChurnInst) Verify() (checked, bad int) {
	c := in.env.Clients[0]
	for d, dir := range in.w.dirs {
		want := make(map[string]bool, len(in.w.final[d]))
		for _, s := range in.w.final[d] {
			_, base := vfs.SplitPath(in.w.paths[d*metaSlots+int(s)])
			want[base] = true
		}
		ck, b := verifyDir(c, dir, want)
		checked, bad = checked+ck, bad+b
	}
	return checked, bad
}

func (in *metaChurnInst) LiveBytes() int64 {
	n := namesLen(in.w.dirs)
	for d := range in.w.dirs {
		for _, s := range in.w.final[d] {
			n += int64(len(in.w.paths[d*metaSlots+int(s)]))
		}
	}
	return n
}
