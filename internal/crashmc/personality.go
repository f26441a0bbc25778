package crashmc

import (
	"fmt"
	"strings"

	"zofs/internal/baselines"
	"zofs/internal/kernfs"
	"zofs/internal/nvm"
	"zofs/internal/obsfs"
	"zofs/internal/proc"
	"zofs/internal/vfs"
	"zofs/internal/zofs"
)

// stack is one freshly-built system under test on a tracked device.
type stack struct {
	dev *nvm.Device
	k   *kernfs.KernFS // nil for the baselines
	fs  vfs.FileSystem
	th  *proc.Thread
}

// personality describes how one file system is built and which post-crash
// checks apply to it.
type personality struct {
	name string
	// zofs systems persist their namespace and are remounted + fscked
	// after each crash; baselines keep a volatile namespace, so only their
	// flushed data blocks and the auditor's view are checked.
	zofs bool
	// allNT systems persist every store non-temporally: the model checker
	// asserts they never have a dirty cacheline at any crash point, which
	// makes the subset and torn media models provably equivalent to drop.
	allNT bool
	opts  zofs.Options
	build func(bytes int64) (*stack, error)
}

// personalities is the one list of systems the checker can build; lookup
// resolves against it and Systems prints it.
var personalities = []*personality{
	zofsPersonality("ZoFS", zofs.Options{}),
	zofsPersonality("ZoFS-inline", zofs.Options{InlineData: true}),
	baselinePersonality("Ext4-DAX", func(d *nvm.Device) vfs.FileSystem {
		return baselines.NewExt4DAX(d)
	}),
	baselinePersonality("PMFS", func(d *nvm.Device) vfs.FileSystem {
		return baselines.NewPMFS(d, baselines.PMFSOptions{})
	}),
}

// Systems lists the system names Config.System accepts, comma-separated, for
// error messages and command-line help.
func Systems() string {
	names := make([]string, len(personalities))
	for i, p := range personalities {
		names[i] = p.name
	}
	return strings.Join(names, ", ")
}

// lookup resolves a system name to its crash-test personality.
func lookup(name string) (*personality, error) {
	for _, p := range personalities {
		if p.name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("crashmc: unknown system %q (have %s)", name, Systems())
}

func zofsPersonality(name string, opts zofs.Options) *personality {
	return &personality{name: name, zofs: true, allNT: true, opts: opts,
		build: func(bytes int64) (*stack, error) {
			dev := nvm.New(nvm.Config{Size: bytes, TrackPersistence: true})
			if err := kernfs.Mkfs(dev, kernfs.MkfsOptions{RootMode: 0o755}); err != nil {
				return nil, err
			}
			k, err := kernfs.Mount(dev)
			if err != nil {
				return nil, err
			}
			th := proc.NewProcess(dev, 0, 0).NewThread()
			if err := k.FSMount(th); err != nil {
				return nil, err
			}
			f := zofs.New(k, opts)
			if err := f.EnsureRootDir(th); err != nil {
				return nil, err
			}
			// With span collection active each workload op opens a root span,
			// letting the model checker assert span hygiene (no leaks, no
			// double-closes) across injected crashes; otherwise this is f.
			return &stack{dev: dev, k: k, fs: obsfs.Wrap(f, nil), th: th}, nil
		}}
}

func baselinePersonality(name string, build func(*nvm.Device) vfs.FileSystem) *personality {
	return &personality{name: name,
		build: func(bytes int64) (*stack, error) {
			dev := nvm.New(nvm.Config{Size: bytes, TrackPersistence: true})
			return &stack{dev: dev, fs: build(dev), th: proc.NewProcess(dev, 0, 0).NewThread()}, nil
		}}
}
