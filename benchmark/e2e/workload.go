// Package e2e is the repository's benchmark: five deterministic workloads
// driven against the real stack (fslibs → zofs → kernfs → nvm/mpk, and
// tpcc/sqldb on top), measured on two clocks — the simulator's virtual
// nanoseconds, which repeat exactly, and the host's wall clock, which does
// not and is therefore stabilised by repeating the same work and keeping,
// lap by lap, the execution the host disturbed least.
//
// Everything here calls only public functions of the packages under test;
// no file outside benchmark/ knows the benchmark exists.
package e2e

import (
	"fmt"

	"zofs/internal/coffer"
	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/zofs"
)

// Workload is one pre-generated op stream plus the recipe for the file
// system it runs against. Building a Workload does all generation (op kinds,
// targets, offsets, name pool, payloads) so that nothing is generated or
// allocated by the benchmark inside the timed region.
type Workload interface {
	Name() string
	// Ops is the number of timed ops in one pass (warm-up excluded).
	Ops() int
	// KindNames names the op kinds (Span.Name of root spans).
	KindNames() []string
	// StreamHash digests every generated op, warm-up included.
	StreamHash() uint64
	// NewInstance builds a fresh device, formats and mounts it and
	// populates the initial data set: the work setup_s times.
	NewInstance(tr *Tracer) (Instance, error)
}

// Instance is one pass's mutable state: a device, its clients, and the
// cursor into the op stream.
type Instance interface {
	Env() *Env
	// Warm runs the untimed first tenth of the stream.
	Warm() (failed int)
	// Run executes the timed ops, recording each op's virtual latency, and
	// returns how many results disagreed with the generator's model.
	Run(h *Hist, laps *Laps) (failed int)
	// Verify compares the final state with the model; bad counts
	// mismatching items out of checked.
	Verify() (checked, bad int)
	// LiveBytes is the user data the final state holds: file sizes plus
	// the bytes of every live name.
	LiveBytes() int64
}

// Env is the simulated machine of one pass.
type Env struct {
	Dev     *nvm.Device
	Kern    *kernfs.KernFS
	Free0   int64 // free pages right after mkfs + mount
	Clients []*Client
}

// Client is one simulated process: its thread (virtual clock, PKRU), its
// FSLibs instance and the µFS behind it.
type Client struct {
	Th  *proc.Thread
	Lib *fslibs.Lib
	ZFS *zofs.FS
}

// newEnv formats and mounts a fresh device. PID/TID counters restart so
// that TID-seeded retry jitter, and with it virtual time, is a function of
// the op stream alone.
func newEnv(devBytes int64) (*Env, error) {
	proc.ResetIDs()
	dev := nvm.New(nvm.Config{Size: devBytes})
	if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	k, err := kernfs.Mount(dev)
	if err != nil {
		return nil, fmt.Errorf("mount: %w", err)
	}
	return &Env{Dev: dev, Kern: k, Free0: k.FreePages()}, nil
}

// addClient mounts FSLibs for a new process with the given uid. With a
// tracer, the fslibs→zofs boundary is interposed.
func (e *Env) addClient(uid uint32, tr *Tracer) (*Client, error) {
	th := proc.NewProcess(e.Dev, uid, uid).NewThread()
	lib, err := fslibs.Mount(e.Kern, th, fslibs.Options{})
	if err != nil {
		return nil, fmt.Errorf("fslibs mount uid %d: %w", uid, err)
	}
	c := &Client{Th: th, Lib: lib, ZFS: lib.ZoFS()}
	if len(e.Clients) == 0 {
		if err := c.ZFS.EnsureRootDir(th); err != nil {
			return nil, fmt.Errorf("root dir: %w", err)
		}
	}
	if tr != nil {
		lib.RegisterFS(coffer.TypeZoFS, &tracedFS{inner: c.ZFS, tr: tr})
	}
	e.Clients = append(e.Clients, c)
	return c, nil
}

// PagesUsed is the number of device pages handed out since mount.
func (e *Env) PagesUsed() int64 { return e.Free0 - e.Kern.FreePages() }

// Entry is one workload of the Catalog.
type Entry struct {
	Name  string
	Why   string
	Build func(seed uint64, scale int) Workload
	// SimTolerance is the relative difference the determinism check allows
	// between two passes' simulated metrics; 0 demands bit-identical values.
	SimTolerance float64
	// Direct marks a workload whose ops reach zofs without fslibs in between:
	// whatever time an op spends outside zofs is then the application's.
	Direct bool
}

// Catalog lists the workloads in report order with the reason each exists.
var Catalog = []Entry{
	{Name: "data_read", Why: "random 4 KiB/64 KiB preads of open files: dispatch, PKRU window, block-map walk and nvm reads; no allocator or kernfs work, so metadata changes must not move it",
		Build: func(s uint64, sc int) Workload { return newDataRead(s, sc) }},
	{Name: "data_write", Why: "in-place 4 KiB writes beside 4 KiB and 256 B appends with log truncation: allocator batching, coffer_enlarge, nt-store/flush/fence, write and space amplification",
		Build: func(s uint64, sc int) Workload { return newDataWrite(s, sc) }},
	{Name: "meta_churn", Why: "stat/create/unlink/rename/readdir over a stationary tree: zofs directory, dcache and inode paths and fslibs path resolution, data layers idle",
		Build: func(s uint64, sc int) Workload { return newMetaChurn(s, sc) }},
	{Name: "coffer_share", Why: "three processes with different uids over nine coffers: cross-coffer reads, shared-log lease handover, denied accesses, chmod split/merge, cross-coffer rename",
		Build: func(s uint64, sc int) Workload { return newCofferShare(s, sc) }},
	// sqldb sits on zofs.FS directly, as in the paper's Figure 11. Its pager
	// writes a transaction's dirty pages back in Go map order, so which page
	// extends the file first — and with it a few allocator and timestamp
	// bytes — differs from pass to pass. The observed difference is below
	// 1e-6; anything beyond 1e-4 is treated as a real one.
	{Name: "app_tpcc", Why: "TPC-C 44/44/4/4/4 on sqldb over zofs.FS (Fig. 11): the application-level result, where the file system is a small share of the host clock",
		Build: func(s uint64, sc int) Workload { return newAppTPCC(s, sc) }, SimTolerance: 1e-4, Direct: true},
}

// lookup returns the named workload's Catalog entry.
func lookup(name string) (*Entry, error) {
	for i := range Catalog {
		if Catalog[i].Name == name {
			return &Catalog[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
