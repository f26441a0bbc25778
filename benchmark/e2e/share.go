package e2e

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"zofs/internal/coffer"
	"zofs/internal/vfs"
)

// coffer_share op kinds.
const (
	csRead       uint8 = iota // open + pread 4 KiB + close, direct path or through a /pub symlink
	csAppend                  // 4 KiB append to the log all three processes share
	csTmpCreate               // create an entry (a symlink) in the world-writable shared directory
	csTmpUnlink               // unlink one of the client's own entries there
	csDenyOpen                // the four denied kinds must fail with ErrPerm
	csDenyStat                //
	csDenyCreate              //
	csDenyUnlink              //
	csChmodCycle              // chmod 0600 (coffer split) then chmod 0644 (merge back)
	csMove                    // rename between the client's docs and priv coffers
)

const (
	cofferShareOps = 240_000
	shareClients   = 3
	shareReadFiles = 16 // static read pool per client, 16 KiB each
	shareReadBlks  = 4
	shareTmpNames  = 16 // per client; at most shareTmpLive exist at once
	shareTmpLive   = 8
	shareChmodPool = 8
	shareMovePool  = 4
)

// Every client maps "/pub", the three home coffers and its own priv coffer,
// plus one coffer per moved file and per in-flight chmod split. The pool
// sizes above keep that at 10 or fewer, under the 15 MPK regions a process
// has: eviction picks its victim by Go map order, which would make virtual
// time differ from run to run.
//
// Shared-directory entries are symlinks, not regular files: a regular file
// created by a uid other than the directory coffer's owner becomes a coffer
// of its own, and deleting a coffer the deleter has mapped bumps its
// revocation generation, which makes zofs drop its whole mount cache and
// with it the per-thread allocation batches — 32 to 544 pages stranded per
// unlink until recovery. At 15 % of ops that fills any device within
// seconds. Symlinks always live in the parent's coffer, so the workload
// still has three processes inserting into, removing from and allocating in
// one shared coffer. (coffer_new/coffer_delete unit costs are in the layer
// ledger.)

var shareUIDs = [shareClients]uint32{1000, 1001, 0}

// Home directory modes differ so that each home is a coffer of its own
// (root's would otherwise share the root coffer's 0755/uid 0 class).
var shareHomeMode = [shareClients]coffer.Mode{0o755, 0o755, 0o775}

type cofferShare struct {
	paths   []string
	streams [shareClients][]Op
	warm    int // per client
	pay     [][]byte

	readPaths [shareClients][]uint32 // path index of each client's static files

	// Final model.
	appends     map[uint8]int        // payload index → records expected in the log
	tmpLive     map[string]bool      // base names left in /pub/tmp
	moveHome    [shareClients][]bool // per move-pool file: true = in docs, false = in priv
	staticNames int64                // bytes of the names set-up creates
	hash        uint64
}

func (w *cofferShare) path(p string) uint32 {
	w.paths = append(w.paths, p)
	return uint32(len(w.paths) - 1)
}

func home(k int) string { return fmt.Sprintf("/home/u%d", k) }

// shareFileID is the content-pattern id of client k's j-th static file.
func shareFileID(k, j int) uint32 { return uint32(k*100 + j) }

func newCofferShare(seed uint64, scale int) *cofferShare {
	r := newRNG(seed ^ 0xc0ff_0004)
	perClient := cofferShareOps / scale / shareClients
	w := &cofferShare{warm: perClient / 10, pay: buildPayloads(),
		appends: map[uint8]int{}, tmpLive: map[string]bool{}}

	var direct, link [shareClients][]uint32
	for k := 0; k < shareClients; k++ {
		for j := 0; j < shareReadFiles; j++ {
			p := fmt.Sprintf("%s/docs/r%02d", home(k), j)
			direct[k] = append(direct[k], w.path(p))
			link[k] = append(link[k], w.path(fmt.Sprintf("/pub/ln/u%d_r%02d", k, j)))
			w.staticNames += int64(3 * len(p)) // the file, its symlink and the symlink's target
		}
		w.readPaths[k] = direct[k]
	}

	for k := 0; k < shareClients; k++ {
		cr := r.fork(uint64(k))
		var tmp, chmods, inDocs, inPriv []uint32
		for j := 0; j < shareTmpNames; j++ {
			tmp = append(tmp, w.path(fmt.Sprintf("/pub/tmp/c%d_%02d", k, j)))
		}
		for j := 0; j < shareChmodPool; j++ {
			chmods = append(chmods, w.path(fmt.Sprintf("%s/docs/c%02d", home(k), j)))
			w.staticNames += int64(len(w.paths[len(w.paths)-1]))
		}
		for j := 0; j < shareMovePool; j++ {
			inDocs = append(inDocs, w.path(fmt.Sprintf("%s/docs/m%02d", home(k), j)))
			inPriv = append(inPriv, w.path(fmt.Sprintf("%s/priv/m%02d", home(k), j)))
			w.staticNames += int64(len(w.paths[len(w.paths)-1]))
		}
		w.staticNames += int64(len(home(k) + "/priv/s"))
		// Denied targets belong to the other two clients.
		var deny [4][]uint32
		for o := 0; o < shareClients; o++ {
			if o == k {
				continue
			}
			deny[0] = append(deny[0], w.path(home(o)+"/priv/s"))
			deny[1] = append(deny[1], w.path(home(o)+"/priv/s"))
			deny[2] = append(deny[2], w.path(fmt.Sprintf("%s/docs/x%d", home(o), k)))
			deny[3] = append(deny[3], direct[o][0])
		}

		// Root passes every permission check, so its denied share is reads.
		mix := []mixEntry{{csRead, 40}, {csAppend, 25}, {csTmpCreate, 15}, {csDenyOpen, 10}, {csChmodCycle, 5}, {csMove, 5}}
		if shareUIDs[k] == 0 {
			mix = []mixEntry{{csRead, 50}, {csAppend, 25}, {csTmpCreate, 15}, {csChmodCycle, 5}, {csMove, 5}}
		}
		kinds := deck(cr, perClient+w.warm, mix)
		ops := make([]Op, len(kinds))
		var tmpLive []uint32
		tmpDead := append([]uint32(nil), tmp...)
		atHome := make([]bool, shareMovePool)
		for j := range atHome {
			atHome[j] = true
		}
		for i, kind := range kinds {
			o := Op{Kind: kind}
			switch kind {
			case csRead:
				owner, j := cr.intn(shareClients), cr.intn(shareReadFiles)
				o.A = direct[owner][j]
				if cr.intn(2) == 0 {
					o.A = link[owner][j]
				}
				o.B = shareFileID(owner, j)<<8 | uint32(cr.intn(shareReadBlks))
			case csAppend:
				o.B = uint32(cr.intn(nPayloads))
				w.appends[uint8(o.B)]++
			case csTmpCreate:
				// One kind in the mix, two directions: keep the client's
				// live files between 0 and shareTmpLive.
				if len(tmpLive) < shareTmpLive && (len(tmpLive) == 0 || cr.intn(2) == 0) {
					j := cr.intn(len(tmpDead))
					o.A, o.B = tmpDead[j], direct[k][0]
					tmpDead = append(tmpDead[:j], tmpDead[j+1:]...)
					tmpLive = append(tmpLive, o.A)
				} else {
					j := cr.intn(len(tmpLive))
					o.Kind, o.A = csTmpUnlink, tmpLive[j]
					tmpLive = append(tmpLive[:j], tmpLive[j+1:]...)
					tmpDead = append(tmpDead, o.A)
				}
			case csDenyOpen:
				sub := cr.intn(4)
				o.Kind, o.Want = csDenyOpen+uint8(sub), wantPerm
				o.A = deny[sub][cr.intn(len(deny[sub]))]
			case csChmodCycle:
				o.A = chmods[cr.intn(len(chmods))]
			case csMove:
				j := cr.intn(shareMovePool)
				o.A, o.B = inDocs[j], inPriv[j]
				if !atHome[j] {
					o.A, o.B = o.B, o.A
				}
				atHome[j] = !atHome[j]
			}
			ops[i] = o
		}
		w.streams[k] = ops
		w.moveHome[k] = atHome
		for _, p := range tmpLive {
			_, base := vfs.SplitPath(w.paths[p])
			w.tmpLive[base] = true
		}
	}
	w.hash = hashOps(w.streams[0], w.streams[1], w.streams[2])
	return w
}

func (w *cofferShare) Name() string       { return "coffer_share" }
func (w *cofferShare) Ops() int           { return shareClients * (len(w.streams[0]) - w.warm) }
func (w *cofferShare) StreamHash() uint64 { return w.hash }
func (w *cofferShare) KindNames() []string {
	return []string{"xread", "log_append", "tmp_create", "tmp_unlink", "deny_open", "deny_stat",
		"deny_create", "deny_unlink", "chmod_cycle", "xrename"}
}

type cofferShareInst struct {
	w      *cofferShare
	env    *Env
	tr     *Tracer
	logFD  [shareClients]int
	cursor [shareClients]int
	buf    []byte
}

func (w *cofferShare) NewInstance(tr *Tracer) (Instance, error) {
	env, err := newEnv(1 << 30)
	if err != nil {
		return nil, err
	}
	// Root first: it owns "/" and builds the shared part of the namespace.
	var cs [shareClients]*Client
	for _, k := range []int{2, 0, 1} {
		if cs[k], err = env.addClient(shareUIDs[k], tr); err != nil {
			return nil, err
		}
	}
	env.Clients = cs[:]
	env.Dev.SetConcurrency(shareClients)
	root := cs[2]
	for _, d := range []struct {
		path string
		mode coffer.Mode
	}{{"/pub", 0o777}, {"/pub/tmp", 0o777}, {"/pub/ln", 0o777}, {"/home", 0o755}} {
		if err := root.Lib.Mkdir(root.Th, d.path, d.mode); err != nil {
			return nil, fmt.Errorf("mkdir %s: %w", d.path, err)
		}
	}
	fd, err := root.Lib.Open(root.Th, "/pub/log", vfs.O_CREATE|vfs.O_RDWR, 0o666)
	if err != nil {
		return nil, err
	}
	root.Lib.Close(root.Th, fd)

	blk := make([]byte, shareReadBlks*pageSize)
	for k, c := range cs {
		h := home(k)
		if err := root.Lib.Mkdir(root.Th, h, shareHomeMode[k]); err != nil {
			return nil, err
		}
		if err := root.Lib.Chown(root.Th, h, shareUIDs[k], shareUIDs[k]); err != nil {
			return nil, err
		}
		if err := c.Lib.Mkdir(c.Th, h+"/docs", shareHomeMode[k]); err != nil {
			return nil, err
		}
		if err := c.Lib.Mkdir(c.Th, h+"/priv", 0o700); err != nil {
			return nil, err
		}
		mode := shareHomeMode[k] &^ 0o111
		mk := func(p string, id uint32, m coffer.Mode) error {
			fd, err := c.Lib.Open(c.Th, p, vfs.O_CREATE|vfs.O_RDWR, m)
			if err != nil {
				return fmt.Errorf("create %s: %w", p, err)
			}
			fillPattern(blk, id, 0)
			if _, err := c.Lib.Pwrite(c.Th, fd, blk, 0); err != nil {
				return err
			}
			return c.Lib.Close(c.Th, fd)
		}
		for j, pi := range w.readPaths[k] {
			p := w.paths[pi]
			if err := mk(p, shareFileID(k, j), mode); err != nil {
				return nil, err
			}
			_, base := vfs.SplitPath(p)
			if err := root.Lib.Symlink(root.Th, p, fmt.Sprintf("/pub/ln/u%d_%s", k, base)); err != nil {
				return nil, err
			}
		}
		for j := 0; j < shareChmodPool; j++ {
			if err := mk(fmt.Sprintf("%s/docs/c%02d", h, j), 0, mode); err != nil {
				return nil, err
			}
		}
		for j := 0; j < shareMovePool; j++ {
			if err := mk(fmt.Sprintf("%s/docs/m%02d", h, j), 0, mode); err != nil {
				return nil, err
			}
		}
		if err := mk(h+"/priv/s", 0, 0o600); err != nil {
			return nil, err
		}
	}
	in := &cofferShareInst{w: w, env: env, tr: tr, buf: make([]byte, pageSize)}
	var latest int64
	for k, c := range cs {
		if in.logFD[k], err = c.Lib.Open(c.Th, "/pub/log", vfs.O_WRONLY|vfs.O_APPEND, 0); err != nil {
			return nil, fmt.Errorf("open log as uid %d: %w", shareUIDs[k], err)
		}
		latest = max(latest, c.Th.Clk.Now())
	}
	// Set-up ran mostly on root's clock. Start every client at the same
	// virtual instant, or the min-clock schedule would idle root until the
	// others caught up.
	for _, c := range cs {
		c.Th.Clk.AdvanceTo(latest)
	}
	return in, nil
}

func (in *cofferShareInst) Env() *Env { return in.env }

func (in *cofferShareInst) Warm() int { return in.exec(in.w.warm, nil) }

func (in *cofferShareInst) Run(h *Hist, laps *Laps) int {
	// A lap advances every client by the same number of its own ops.
	return laps.run(len(in.w.streams[0])-in.w.warm, func(_, b int) int { return in.exec(in.w.warm+b, h) })
}

// exec steps the clients on one goroutine, always the one whose virtual
// clock is furthest behind (ties to the lowest index), until each cursor
// reaches upto. No Go-level concurrency means no run-to-run difference in
// interleaving: lease handovers and lock waits happen at the same virtual
// instants every time.
func (in *cofferShareInst) exec(upto int, h *Hist) (failed int) {
	w, tr := in.w, in.tr
	for {
		k := -1
		for i, c := range in.env.Clients {
			if in.cursor[i] < upto && (k < 0 || c.Th.Clk.Now() < in.env.Clients[k].Th.Clk.Now()) {
				k = i
			}
		}
		if k < 0 {
			return failed
		}
		c := in.env.Clients[k]
		th, lib := c.Th, c.Lib
		o := &w.streams[k][in.cursor[k]]
		in.cursor[k]++
		var (
			err error
			ok  = true
		)
		v0 := th.Clk.Now()
		tr.Begin(o.Kind, th.TID, v0)
		switch o.Kind {
		case csRead:
			var fd, n int
			if fd, err = lib.Open(th, w.paths[o.A], vfs.O_RDONLY, 0); err == nil {
				off := int64(o.B&0xff) * pageSize
				n, err = lib.Pread(th, fd, in.buf, off)
				ok = n == pageSize && checkEnds(in.buf, o.B>>8, off)
				if cerr := lib.Close(th, fd); err == nil {
					err = cerr
				}
			}
		case csAppend:
			var n int
			n, err = lib.Write(th, in.logFD[k], w.pay[o.B])
			ok = n == pageSize
		case csTmpCreate:
			err = lib.Symlink(th, w.paths[o.B], w.paths[o.A])
		case csTmpUnlink, csDenyUnlink:
			err = lib.Unlink(th, w.paths[o.A])
		case csDenyOpen:
			var fd int
			if fd, err = lib.Open(th, w.paths[o.A], vfs.O_RDONLY, 0); err == nil {
				lib.Close(th, fd)
			}
		case csDenyStat:
			_, err = lib.Stat(th, w.paths[o.A])
		case csDenyCreate:
			var fd int
			if fd, err = lib.Open(th, w.paths[o.A], vfs.O_CREATE|vfs.O_RDWR, 0o644); err == nil {
				lib.Close(th, fd)
			}
		case csChmodCycle:
			if err = lib.Chmod(th, w.paths[o.A], 0o600); err == nil {
				err = lib.Chmod(th, w.paths[o.A], shareHomeMode[k]&^0o111)
			}
		case csMove:
			err = lib.Rename(th, w.paths[o.A], w.paths[o.B])
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
}

func (in *cofferShareInst) Verify() (checked, bad int) {
	w, cs := in.w, in.env.Clients
	root := cs[2]
	add := func(ck, b int) { checked, bad = checked+ck, bad+b }
	cond := func(c bool) {
		checked++
		if !c {
			bad++
		}
	}

	// The shared log: every 4 KiB record is one whole payload, and each
	// payload occurs as often as the three streams appended it.
	var total int
	for _, n := range w.appends {
		total += n
	}
	fi, err := root.Lib.Stat(root.Th, "/pub/log")
	cond(err == nil && fi.Size == int64(total)*pageSize)
	byFirstWord := map[uint64]uint8{}
	for i := range w.pay {
		byFirstWord[patternWord(payloadID, int64(i)*pageSize)] = uint8(i)
	}
	got := map[uint8]int{}
	if fd, err := root.Lib.Open(root.Th, "/pub/log", vfs.O_RDONLY, 0); err == nil {
		chunk := make([]byte, 256*pageSize)
		for off := int64(0); off < fi.Size; off += int64(len(chunk)) {
			n, _ := root.Lib.Pread(root.Th, fd, chunk, off)
			for b := 0; b+pageSize <= n; b += pageSize {
				rec := chunk[b : b+pageSize]
				idx, known := byFirstWord[binary.LittleEndian.Uint64(rec)]
				if known && bytes.Equal(rec, w.pay[idx]) {
					got[idx]++
				} else {
					add(1, 1) // torn or foreign record
				}
			}
		}
		root.Lib.Close(root.Th, fd)
	}
	for idx, n := range w.appends {
		cond(got[idx] == n)
	}

	add(verifyDir(root, "/pub/tmp", w.tmpLive))

	for k, c := range cs {
		h := home(k)
		docs, priv := map[string]bool{}, map[string]bool{"s": true}
		for j, pi := range w.readPaths[k] {
			p := w.paths[pi]
			_, base := vfs.SplitPath(p)
			docs[base] = true
			// Denied unlinks and foreign readers left the contents alone.
			buf := make([]byte, shareReadBlks*pageSize)
			n, err := readWhole(c, p, buf)
			cond(err == nil && n == len(buf) && checkPattern(buf, shareFileID(k, j), 0))
		}
		for j := 0; j < shareChmodPool; j++ {
			base := fmt.Sprintf("c%02d", j)
			docs[base] = true
			// Every chmod cycle ended merged back, at the home's mode.
			fi, err := c.Lib.Stat(c.Th, h+"/docs/"+base)
			_, split := in.env.Kern.LookupPath(nil, h+"/docs/"+base)
			cond(err == nil && fi.Mode == shareHomeMode[k]&^0o111 && !split)
		}
		for j, atHome := range w.moveHome[k] {
			base := fmt.Sprintf("m%02d", j)
			if atHome {
				docs[base] = true
			} else {
				priv[base] = true
			}
		}
		add(verifyDir(c, h+"/docs", docs))
		add(verifyDir(c, h+"/priv", priv))
	}
	return checked, bad
}

func (in *cofferShareInst) LiveBytes() int64 {
	w := in.w
	var n int64
	for _, c := range w.appends {
		n += int64(c) * pageSize
	}
	files := int64(shareClients * (shareReadFiles + shareChmodPool + shareMovePool + 1))
	n += files * shareReadBlks * pageSize
	// Names: the static pools (symlinks count name and target) and what is
	// left in the shared directory.
	n += w.staticNames
	for base := range w.tmpLive {
		n += int64(len("/pub/tmp/") + len(base))
	}
	return n
}
