package e2e

import (
	"bytes"
	"fmt"

	"zofs/internal/vfs"
)

const fileBytes = 1 << 20 // every data file is 1 MiB = 256 blocks
const blocksPerFile = fileBytes / pageSize

// populateFile creates path and fills it with the pattern of file id.
func populateFile(c *Client, path string, id uint32, buf []byte) (int, error) {
	fd, err := c.Lib.Open(c.Th, path, vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		return -1, fmt.Errorf("create %s: %w", path, err)
	}
	fillPattern(buf, id, 0)
	if n, err := c.Lib.Pwrite(c.Th, fd, buf, 0); err != nil || n != len(buf) {
		return -1, fmt.Errorf("populate %s: n=%d err=%v", path, n, err)
	}
	return fd, nil
}

// readWhole reads size bytes of path through a fresh descriptor.
func readWhole(c *Client, path string, buf []byte) (int, error) {
	fd, err := c.Lib.Open(c.Th, path, vfs.O_RDONLY, 0)
	if err != nil {
		return 0, err
	}
	defer c.Lib.Close(c.Th, fd)
	return c.Lib.Pread(c.Th, fd, buf, 0)
}

func namesLen(paths []string) int64 {
	var n int64
	for _, p := range paths {
		n += int64(len(p))
	}
	return n
}

// ---- data_read ---------------------------------------------------------------

// data_read op kinds. drNote is a 64-byte in-place write of a per-descriptor
// access record, 0.4 % of ops: it allocates nothing and calls no kernfs
// function, and exists so that nvm_wbytes_per_op and the host allocation
// metrics are never zero on this workload (a zero median has no relative
// spread to bound).
const (
	drRead4K uint8 = iota
	drRead64K
	drNote
)

const (
	dataReadOps   = 2_000_000
	dataReadFiles = 256
	dataReadFDs   = 64
	noteBytes     = 64
)

type dataRead struct {
	files []string
	open  []uint32 // file id behind each descriptor slot
	ops   []Op
	warm  int
	pay   [][]byte
	notes []int16 // final payload index per slot's access record, -1 = never written
	hash  uint64
}

func newDataRead(seed uint64, scale int) *dataRead {
	r := newRNG(seed ^ 0xd47a_0001)
	nFiles := max(8, dataReadFiles/scale)
	nFDs := min(dataReadFDs, nFiles)
	n := dataReadOps / scale
	w := &dataRead{warm: n / 10, pay: buildPayloads()}
	for i := 0; i < nFiles; i++ {
		w.files = append(w.files, fmt.Sprintf("/d/f%03d", i))
	}
	// Descriptors are opened on a seeded choice of files.
	perm := make([]uint32, nFiles)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := nFiles - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	w.open = perm[:nFDs]
	w.notes = make([]int16, nFDs)
	for i := range w.notes {
		w.notes[i] = -1
	}
	kinds := deck(r, n+w.warm, []mixEntry{{drRead4K, 900}, {drRead64K, 100}, {drNote, 4}})
	w.ops = make([]Op, len(kinds))
	for i, k := range kinds {
		o := Op{Kind: k, A: uint32(r.intn(nFDs))}
		switch k {
		case drRead4K:
			o.B = uint32(r.intn(blocksPerFile))
		case drRead64K:
			o.B = uint32(r.intn(blocksPerFile - 15))
		case drNote:
			o.B = uint32(r.intn(nPayloads))
			w.notes[o.A] = int16(o.B)
		}
		w.ops[i] = o
	}
	w.hash = hashOps(w.ops)
	return w
}

func (w *dataRead) Name() string        { return "data_read" }
func (w *dataRead) Ops() int            { return len(w.ops) - w.warm }
func (w *dataRead) StreamHash() uint64  { return w.hash }
func (w *dataRead) KindNames() []string { return []string{"pread4k", "pread64k", "note64"} }

type dataReadInst struct {
	w      *dataRead
	env    *Env
	tr     *Tracer
	fds    []int
	noteFD int
	buf    []byte
}

func (w *dataRead) NewInstance(tr *Tracer) (Instance, error) {
	env, err := newEnv(int64(len(w.files))*fileBytes*2 + 256<<20)
	if err != nil {
		return nil, err
	}
	c, err := env.addClient(0, tr)
	if err != nil {
		return nil, err
	}
	if err := c.Lib.Mkdir(c.Th, "/d", 0o755); err != nil {
		return nil, err
	}
	in := &dataReadInst{w: w, env: env, tr: tr, fds: make([]int, len(w.open)), buf: make([]byte, 16*pageSize)}
	slotOf := make(map[uint32]int, len(w.open))
	for s, id := range w.open {
		slotOf[id] = s
	}
	big := make([]byte, fileBytes)
	for i, p := range w.files {
		fd, err := populateFile(c, p, uint32(i), big)
		if err != nil {
			return nil, err
		}
		if s, ok := slotOf[uint32(i)]; ok {
			in.fds[s] = fd
		} else if err := c.Lib.Close(c.Th, fd); err != nil {
			return nil, err
		}
	}
	in.noteFD, err = c.Lib.Open(c.Th, "/d/notes", vfs.O_CREATE|vfs.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := c.Lib.Pwrite(c.Th, in.noteFD, make([]byte, pageSize), 0); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *dataReadInst) Env() *Env { return in.env }

func (in *dataReadInst) Warm() int { return in.exec(in.w.ops[:in.w.warm], nil) }

func (in *dataReadInst) Run(h *Hist, laps *Laps) int {
	ops := in.w.ops[in.w.warm:]
	return laps.run(len(ops), func(a, b int) int { return in.exec(ops[a:b], h) })
}

func (in *dataReadInst) exec(ops []Op, h *Hist) (failed int) {
	c, tr := in.env.Clients[0], in.tr
	th, lib := c.Th, c.Lib
	for i := range ops {
		o := &ops[i]
		var (
			n    int
			err  error
			want int
			off  = int64(o.B) * pageSize
		)
		v0 := th.Clk.Now()
		tr.Begin(o.Kind, th.TID, v0)
		switch o.Kind {
		case drRead4K:
			want = pageSize
			n, err = lib.Pread(th, in.fds[o.A], in.buf[:pageSize], off)
		case drRead64K:
			want = len(in.buf)
			n, err = lib.Pread(th, in.fds[o.A], in.buf, off)
		case drNote:
			want = noteBytes
			n, err = lib.Pwrite(th, in.noteFD, in.w.pay[o.B][:noteBytes], int64(o.A)*noteBytes)
		}
		v1 := th.Clk.Now()
		tr.End(v1)
		if h != nil {
			h.Record(v1 - v0)
		}
		if err != nil || n != want || (o.Kind != drNote && !checkEnds(in.buf[:n], in.w.open[o.A], off)) {
			failed++
		}
	}
	return failed
}

func (in *dataReadInst) Verify() (checked, bad int) {
	c := in.env.Clients[0]
	big := make([]byte, fileBytes)
	for i, p := range in.w.files {
		checked++
		if n, err := readWhole(c, p, big); err != nil || n != fileBytes || !checkPattern(big, uint32(i), 0) {
			bad++
		}
	}
	notes := make([]byte, pageSize)
	if n, err := readWhole(c, "/d/notes", notes); err != nil || n != pageSize {
		return checked + 1, bad + 1
	}
	// Warm-up and timed ops both write records; the model holds the last.
	for s, p := range in.w.notes {
		checked++
		rec := notes[s*noteBytes : (s+1)*noteBytes]
		want := make([]byte, noteBytes)
		if p >= 0 {
			want = in.w.pay[p][:noteBytes]
		}
		if !bytes.Equal(rec, want) {
			bad++
		}
	}
	return checked, bad
}

func (in *dataReadInst) LiveBytes() int64 {
	return int64(len(in.w.files))*fileBytes + pageSize + namesLen(in.w.files) + int64(len("/d/notes"))
}

// ---- data_write --------------------------------------------------------------

// data_write op kinds. dwReadBack re-reads a table block and compares it with
// what the stream last wrote there: 2 % of ops, taken evenly from the two
// 4 KiB write kinds. It checks read-your-writes inside the timed region and
// keeps nvm_rbytes_per_op above zero (metadata reads are charged as cache
// hits and move no media bytes).
const (
	dwOverwrite uint8 = iota
	dwAppend4K
	dwAppend256
	dwReadBack
)

const (
	dataWriteOps    = 1_200_000
	dataWriteTables = 64
	dataWriteLogs   = 8
	logCapBytes     = 16 << 20
	smallAppend     = 256
	truncFirst      = 1 << 31 // Op.B flag: the log reached its cap, truncate before appending
)

type logRec struct {
	n   uint16
	pay uint8
}

type dataWrite struct {
	tables []string
	logs   []string
	ops    []Op
	warm   int
	pay    [][]byte
	// Final model: payload index per table block (-1 = populated pattern)
	// and the records each log holds since its last truncation.
	tabPay  []int16
	logRecs [][]logRec
	hash    uint64
}

func newDataWrite(seed uint64, scale int) *dataWrite {
	r := newRNG(seed ^ 0xd47a_0002)
	nTables := max(4, dataWriteTables/scale)
	n := dataWriteOps / scale
	logCap := int64(max(256<<10, logCapBytes/scale))
	w := &dataWrite{warm: n / 10, pay: buildPayloads()}
	for i := 0; i < nTables; i++ {
		w.tables = append(w.tables, fmt.Sprintf("/w/t%03d", i))
	}
	for i := 0; i < dataWriteLogs; i++ {
		w.logs = append(w.logs, fmt.Sprintf("/w/log%d", i))
	}
	w.tabPay = make([]int16, nTables*blocksPerFile)
	for i := range w.tabPay {
		w.tabPay[i] = -1
	}
	w.logRecs = make([][]logRec, dataWriteLogs)
	logSize := make([]int64, dataWriteLogs)
	appends := map[uint8]int{}
	kinds := deck(r, n+w.warm, []mixEntry{{dwOverwrite, 49}, {dwAppend4K, 39}, {dwAppend256, 10}, {dwReadBack, 2}})
	w.ops = make([]Op, len(kinds))
	for i, k := range kinds {
		o := Op{Kind: k, B: uint32(r.intn(nPayloads))}
		switch k {
		case dwOverwrite:
			o.A = uint32(r.intn(nTables * blocksPerFile))
			w.tabPay[o.A] = int16(o.B)
		case dwReadBack:
			o.A = uint32(r.intn(nTables * blocksPerFile))
			o.B = uint32(w.tabPay[o.A] + 1) // 0 = still the populated pattern
		default:
			// Appends of each size go round the logs in turn: every log
			// receives the same bytes whatever the seed, so the live data
			// at the end — space_amp's denominator — does not depend on
			// where a seed happened to leave each log relative to its cap.
			sz := pageSize
			if k == dwAppend256 {
				sz = smallAppend
			}
			o.A = uint32(appends[k] % dataWriteLogs)
			appends[k]++
			if logSize[o.A]+int64(sz) > logCap {
				logSize[o.A], w.logRecs[o.A] = 0, w.logRecs[o.A][:0]
				o.B |= truncFirst
			}
			logSize[o.A] += int64(sz)
			w.logRecs[o.A] = append(w.logRecs[o.A], logRec{n: uint16(sz), pay: uint8(o.B &^ truncFirst)})
		}
		w.ops[i] = o
	}
	w.hash = hashOps(w.ops)
	return w
}

func (w *dataWrite) Name() string       { return "data_write" }
func (w *dataWrite) Ops() int           { return len(w.ops) - w.warm }
func (w *dataWrite) StreamHash() uint64 { return w.hash }
func (w *dataWrite) KindNames() []string {
	return []string{"overwrite4k", "append4k", "append256", "readback4k"}
}

type dataWriteInst struct {
	w      *dataWrite
	env    *Env
	tr     *Tracer
	tabFDs []int
	logFDs []int
	buf    []byte
}

func (w *dataWrite) NewInstance(tr *Tracer) (Instance, error) {
	env, err := newEnv(int64(len(w.tables))*fileBytes*2 + dataWriteLogs*logCapBytes*2 + 256<<20)
	if err != nil {
		return nil, err
	}
	c, err := env.addClient(0, tr)
	if err != nil {
		return nil, err
	}
	if err := c.Lib.Mkdir(c.Th, "/w", 0o755); err != nil {
		return nil, err
	}
	in := &dataWriteInst{w: w, env: env, tr: tr, buf: make([]byte, pageSize)}
	big := make([]byte, fileBytes)
	for i, p := range w.tables {
		fd, err := populateFile(c, p, uint32(i), big)
		if err != nil {
			return nil, err
		}
		in.tabFDs = append(in.tabFDs, fd)
	}
	for _, p := range w.logs {
		fd, err := c.Lib.Open(c.Th, p, vfs.O_CREATE|vfs.O_WRONLY|vfs.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", p, err)
		}
		in.logFDs = append(in.logFDs, fd)
	}
	return in, nil
}

func (in *dataWriteInst) Env() *Env { return in.env }

func (in *dataWriteInst) Warm() int { return in.exec(in.w.ops[:in.w.warm], nil) }

func (in *dataWriteInst) Run(h *Hist, laps *Laps) int {
	ops := in.w.ops[in.w.warm:]
	return laps.run(len(ops), func(a, b int) int { return in.exec(ops[a:b], h) })
}

func (in *dataWriteInst) exec(ops []Op, h *Hist) (failed int) {
	c, tr := in.env.Clients[0], in.tr
	th, lib := c.Th, c.Lib
	for i := range ops {
		o := &ops[i]
		var (
			n, want int
			err     error
		)
		v0 := th.Clk.Now()
		tr.Begin(o.Kind, th.TID, v0)
		switch o.Kind {
		case dwOverwrite:
			want = pageSize
			n, err = lib.Pwrite(th, in.tabFDs[o.A/blocksPerFile], in.w.pay[o.B], int64(o.A%blocksPerFile)*pageSize)
		case dwReadBack:
			want = pageSize
			n, err = lib.Pread(th, in.tabFDs[o.A/blocksPerFile], in.buf, int64(o.A%blocksPerFile)*pageSize)
		default:
			want = pageSize
			if o.Kind == dwAppend256 {
				want = smallAppend
			}
			fd := in.logFDs[o.A]
			if o.B&truncFirst != 0 {
				err = lib.Ftruncate(th, fd, 0)
			}
			if err == nil {
				n, err = lib.Write(th, fd, in.w.pay[o.B&^truncFirst][:want])
			}
		}
		v1 := th.Clk.Now()
		tr.End(v1)
		if h != nil {
			h.Record(v1 - v0)
		}
		if err != nil || n != want || (o.Kind == dwReadBack && !in.readBackOK(o)) {
			failed++
		}
	}
	return failed
}

func (in *dataWriteInst) readBackOK(o *Op) bool {
	if o.B == 0 {
		return checkPattern(in.buf, o.A/blocksPerFile, int64(o.A%blocksPerFile)*pageSize)
	}
	return bytes.Equal(in.buf, in.w.pay[o.B-1])
}

func (in *dataWriteInst) Verify() (checked, bad int) {
	c := in.env.Clients[0]
	big := make([]byte, fileBytes)
	for t, p := range in.w.tables {
		n, err := readWhole(c, p, big)
		if err != nil || n != fileBytes {
			checked, bad = checked+blocksPerFile, bad+blocksPerFile
			continue
		}
		for b := 0; b < blocksPerFile; b++ {
			checked++
			blk := big[b*pageSize : (b+1)*pageSize]
			pay := in.w.tabPay[t*blocksPerFile+b]
			if (pay < 0 && !checkPattern(blk, uint32(t), int64(b)*pageSize)) ||
				(pay >= 0 && !bytes.Equal(blk, in.w.pay[pay])) {
				bad++
			}
		}
	}
	logBuf := make([]byte, logCapBytes)
	for l, p := range in.w.logs {
		var size int
		for _, r := range in.w.logRecs[l] {
			size += int(r.n)
		}
		fi, err := c.Lib.Stat(c.Th, p)
		n, rerr := readWhole(c, p, logBuf[:size])
		if err != nil || rerr != nil || fi.Size != int64(size) || n != size {
			checked, bad = checked+1, bad+1
			continue
		}
		off := 0
		for _, r := range in.w.logRecs[l] {
			checked++
			if !bytes.Equal(logBuf[off:off+int(r.n)], in.w.pay[r.pay][:r.n]) {
				bad++
			}
			off += int(r.n)
		}
	}
	return checked, bad
}

func (in *dataWriteInst) LiveBytes() int64 {
	n := int64(len(in.w.tables))*fileBytes + namesLen(in.w.tables) + namesLen(in.w.logs)
	for _, recs := range in.w.logRecs {
		for _, r := range recs {
			n += int64(r.n)
		}
	}
	return n
}
