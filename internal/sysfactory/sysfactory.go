// Package sysfactory builds fresh instances of every file system under
// test — ZoFS (and its variants), LogFS and the four baselines — over fresh
// simulated devices, for the benchmark harnesses and the crash checker.
package sysfactory

import (
	"zofs/internal/baselines"
	"zofs/internal/kernfs"
	"zofs/internal/logfs"
	"zofs/internal/nvm"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// Instance is a ready-to-use file system under test.
type Instance struct {
	Name string
	FS   vfs.FileSystem
	Proc *proc.Process
	Dev  *nvm.Device
	Kern *kernfs.KernFS // the Treasury kernel under a µFS; nil for the baselines
}

// SetConcurrency informs the device's write-bandwidth model.
func (in *Instance) SetConcurrency(n int) { in.Dev.SetConcurrency(n) }

// System names a buildable file system configuration.
type System struct {
	Name string
	// New builds a fresh instance on a device of size bytes. Crash tests ask
	// for a persistence-tracked device; benchmarks, for speed, do not.
	New func(size int64, tracked bool) (*Instance, error)
}

// newMicroFS formats a device, mounts the kernel over it and a root process
// on that, then has setup put a µFS over the kernel.
func newMicroFS(name string, setup func(k *kernfs.KernFS, th *proc.Thread) (vfs.FileSystem, error)) System {
	return System{Name: name, New: func(size int64, tracked bool) (*Instance, error) {
		dev := nvm.New(nvm.Config{Size: size, TrackPersistence: tracked})
		if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
			return nil, err
		}
		k, err := kernfs.Mount(dev)
		if err != nil {
			return nil, err
		}
		p := proc.NewProcess(dev, 0, 0)
		th := p.NewThread()
		if err := k.FSMount(th); err != nil {
			return nil, err
		}
		fs, err := setup(k, th)
		if err != nil {
			return nil, err
		}
		return &Instance{Name: name, FS: fs, Proc: p, Dev: dev, Kern: k}, nil
	}}
}

// NewZoFS builds a ZoFS instance (mkfs + mount + root process) with the
// given µFS options.
func NewZoFS(name string, opts zofs.Options) System {
	return newMicroFS(name, func(k *kernfs.KernFS, th *proc.Thread) (vfs.FileSystem, error) {
		f := zofs.New(k, opts)
		return f, f.EnsureRootDir(th)
	})
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
var LogFS = newMicroFS("LogFS", func(k *kernfs.KernFS, th *proc.Thread) (vfs.FileSystem, error) {
	rp, _ := k.Info(k.RootCoffer())
	if err := k.SetCofferType(th, k.RootCoffer(), logfs.TypeLogFS, rp.Mode); err != nil {
		return nil, err
	}
	f := logfs.New(k)
	return f, f.Format(th, k.RootCoffer())
})

// Comparison is the default system set of Figures 7 and 9.
var Comparison = []System{Ext4DAX, PMFS, Strata, NOVA, ZoFS}

// All is every system this package builds, each once.
var All = []System{
	ZoFS, ZoFSSysEmpty, ZoFSKWrite, ZoFS1Coffer, ZoFSInline,
	PMFS, PMFSNocache, NOVA, NOVAi, NOVANoIndex, NOVAiNoIndex, Strata, Ext4DAX,
	LogFS,
}
