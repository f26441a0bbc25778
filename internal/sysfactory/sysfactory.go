// Package sysfactory builds fresh machines running every file system under
// test — ZoFS (and its variants), LogFS and the four baselines — over fresh
// simulated devices, for the benchmark harnesses, the crash checker, the
// chaos campaign, the tools and the examples. System.New boots a fresh
// machine with one root process on it; Instance.Spawn adds another process
// to a machine; Boot brings a formatted, saved or crashed device back up.
// Each is the one way any harness, checker, tool or example does that.
package sysfactory

import (
	"zofs/internal/baselines"
	"zofs/internal/fslibs"
	"zofs/internal/kernfs"
	"zofs/internal/logfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// Instance is one process on a machine running a file system under test.
type Instance struct {
	Name string
	FS   vfs.FileSystem // the µFS Lib dispatches to, or the baseline engine
	Proc *proc.Process
	Dev  *nvm.Device
	Kern *kernfs.KernFS // the Treasury kernel under a µFS; nil for the baselines
	// Lib is the process's FSLibs dispatcher and Thread the thread that
	// mounted it; both nil for the baselines.
	Lib    *fslibs.Lib
	Thread *proc.Thread
}

// SetConcurrency informs the device's write-bandwidth model.
func (in *Instance) SetConcurrency(n int) { in.Dev.SetConcurrency(n) }

// Spawn returns another process on the instance's machine, with the given
// identity. Under a µFS its first thread mounts FSLibs with the instance's
// options, and its FS is the µFS its Lib routes the root coffer to; under a
// baseline it shares the instance's engine. Safe for concurrent use.
func (in *Instance) Spawn(uid, gid uint32) (*Instance, error) {
	p := proc.NewProcess(in.Dev, uid, gid)
	if in.Lib == nil {
		return &Instance{Name: in.Name, FS: in.FS, Proc: p, Dev: in.Dev}, nil
	}
	return mount(in.Name, in.Kern, p, in.Lib.ZoFS().Options())
}

// Boot brings a device up as a power cycle would: its volatile attachments
// are dropped (DRAM is empty), the kernel mounts over its image, and a root
// process mounts FSLibs with the given µFS options. The instance's FS is the
// µFS the root coffer's type routes to, and its Name is empty.
func Boot(dev *nvm.Device, opts zofs.Options) (*Instance, error) {
	dev.DropVolatile()
	k, err := kernfs.Mount(dev)
	if err != nil {
		return nil, err
	}
	return mount("", k, proc.NewProcess(dev, 0, 0), opts)
}

// mount has p's first thread mount FSLibs over k.
func mount(name string, k *kernfs.KernFS, p *proc.Process, opts zofs.Options) (*Instance, error) {
	th := p.NewThread()
	l, err := fslibs.Mount(k, th, fslibs.Options{ZoFS: opts})
	if err != nil {
		return nil, err
	}
	root, _ := k.Info(k.RootCoffer())
	return &Instance{Name: name, FS: l.MicroFS(root.Type), Proc: p, Dev: k.Device(), Kern: k, Lib: l, Thread: th}, nil
}

// System names a buildable file system configuration.
type System struct {
	Name string
	// New builds a fresh instance on a device of size bytes. Crash tests ask
	// for a persistence-tracked device; benchmarks, for speed, do not.
	New func(size int64, tracked bool) (*Instance, error)
}

// newMicroFS formats a device and boots it, then has setup prepare the root
// coffer for the µFS.
func newMicroFS(name string, opts zofs.Options, setup func(in *Instance) error) System {
	return System{Name: name, New: func(size int64, tracked bool) (*Instance, error) {
		dev := nvm.New(nvm.Config{Size: size, TrackPersistence: tracked})
		if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
			return nil, err
		}
		in, err := Boot(dev, opts)
		if err != nil {
			return nil, err
		}
		in.Name = name
		return in, setup(in)
	}}
}

// NewZoFS builds a ZoFS instance (mkfs + mount + root process) with the
// given µFS options.
func NewZoFS(name string, opts zofs.Options) System {
	return newMicroFS(name, opts, func(in *Instance) error { return in.Lib.ZoFS().EnsureRootDir(in.Thread) })
}

func newBaseline(name string, build func(dev *nvm.Device) *baselines.Engine) System {
	return System{Name: name, New: func(size int64, tracked bool) (*Instance, error) {
		dev := nvm.New(nvm.Config{Size: size, TrackPersistence: tracked})
		e := build(dev)
		return &Instance{Name: name, FS: e, Proc: proc.NewProcess(dev, 0, 0), Dev: dev}, nil
	}}
}

// The systems compared throughout §6.
var (
	ZoFS         = NewZoFS("ZoFS", zofs.Options{})
	ZoFSSysEmpty = NewZoFS("ZoFS-sysempty", zofs.Options{SysEmptyPerWrite: true})
	ZoFSKWrite   = NewZoFS("ZoFS-kwrite", zofs.Options{KernelWrite: true})
	ZoFS1Coffer  = NewZoFS("ZoFS-1coffer", zofs.Options{OneCoffer: true})
	ZoFSInline   = NewZoFS("ZoFS-inline", zofs.Options{InlineData: true})

	PMFS        = newBaseline("PMFS", func(d *nvm.Device) *baselines.Engine { return baselines.NewPMFS(d, baselines.PMFSOptions{}) })
	PMFSNocache = newBaseline("PMFS-nocache", func(d *nvm.Device) *baselines.Engine {
		return baselines.NewPMFS(d, baselines.PMFSOptions{Nocache: true})
	})
	NOVA  = newBaseline("NOVA", func(d *nvm.Device) *baselines.Engine { return baselines.NewNOVA(d, baselines.NOVAOptions{}) })
	NOVAi = newBaseline("NOVAi", func(d *nvm.Device) *baselines.Engine {
		return baselines.NewNOVA(d, baselines.NOVAOptions{InPlace: true})
	})
	NOVANoIndex = newBaseline("NOVA-noindex", func(d *nvm.Device) *baselines.Engine {
		return baselines.NewNOVA(d, baselines.NOVAOptions{NoIndex: true})
	})
	NOVAiNoIndex = newBaseline("NOVAi-noindex", func(d *nvm.Device) *baselines.Engine {
		return baselines.NewNOVA(d, baselines.NOVAOptions{InPlace: true, NoIndex: true})
	})
	Strata  = newBaseline("Strata", baselines.NewStrata)
	Ext4DAX = newBaseline("Ext4-DAX", baselines.NewExt4DAX)
)

// LogFS is the second µFS (§5.3) alone on a device: mkfs makes the root
// coffer ZoFS-typed, so it is re-typed and formatted as a LogFS coffer.
var LogFS = newMicroFS("LogFS", zofs.Options{}, func(in *Instance) error {
	k, th := in.Kern, in.Thread
	rp, _ := k.Info(k.RootCoffer())
	if err := k.SetCofferType(th, k.RootCoffer(), logfs.TypeLogFS, rp.Mode); err != nil {
		return err
	}
	f := in.Lib.MicroFS(logfs.TypeLogFS).(*logfs.FS)
	in.FS = f
	return f.Format(th, k.RootCoffer())
})

// Comparison is the default system set of Figures 7 and 9.
var Comparison = []System{Ext4DAX, PMFS, Strata, NOVA, ZoFS}

// All is every system this package builds, each once.
var All = []System{
	ZoFS, ZoFSSysEmpty, ZoFSKWrite, ZoFS1Coffer, ZoFSInline,
	PMFS, PMFSNocache, NOVA, NOVAi, NOVANoIndex, NOVAiNoIndex, Strata, Ext4DAX,
	LogFS,
}
