package fslibs_test

import (
	"testing"

	"zofs/internal/proc"
	"zofs/internal/sysfactory"
	"zofs/internal/vfs"
	"zofs/internal/vfs/vfstest"
)

// TestFSLibsConformance runs the conformance suite through the dispatcher of
// a ZoFS machine's root process, as an application's calls reach the µFS.
func TestFSLibsConformance(t *testing.T) {
	vfstest.Run(t, func(t *testing.T) (vfs.FileSystem, *proc.Thread) {
		in, err := sysfactory.ZoFS.New(128<<20, false)
		if err != nil {
			t.Fatal(err)
		}
		return in.Lib.FS(), in.Thread
	})
}
