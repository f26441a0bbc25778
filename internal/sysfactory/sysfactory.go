// Package sysfactory builds fresh instances of every file system under
// test — ZoFS (and its variants) plus the four baselines — over fresh
// simulated devices, for the benchmark harnesses.
package sysfactory

import (
	"zofs/internal/baselines"
	"zofs/internal/kernfs"
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
}

// SetConcurrency informs the device's write-bandwidth model.
func (in *Instance) SetConcurrency(n int) { in.Dev.SetConcurrency(n) }

// System names a buildable file system configuration.
type System struct {
	Name string
	// New builds a fresh instance on a device of size bytes. Persistence
	// tracking is disabled for benchmark speed (crash tests build their
	// own devices).
	New func(size int64) (*Instance, error)
}

func newDevice(size int64) *nvm.Device {
	return nvm.New(nvm.Config{Size: size, TrackPersistence: false})
}

// NewZoFS builds a ZoFS instance (mkfs + mount + root process) with the
// given µFS options.
func NewZoFS(name string, opts zofs.Options) System {
	return System{Name: name, New: func(size int64) (*Instance, error) {
		dev := newDevice(size)
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
		f := zofs.New(k, opts)
		if err := f.EnsureRootDir(th); err != nil {
			return nil, err
		}
		return &Instance{Name: name, FS: f, Proc: p, Dev: dev}, nil
	}}
}

func newBaseline(name string, build func(dev *nvm.Device) *baselines.Engine) System {
	return System{Name: name, New: func(size int64) (*Instance, error) {
		dev := newDevice(size)
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
	ZoFSNoMPK    = NewZoFS("ZoFS-nompk", zofs.Options{NoMPK: true})
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

// Comparison is the default system set of Figures 7 and 9.
var Comparison = []System{Ext4DAX, PMFS, Strata, NOVA, ZoFS}
