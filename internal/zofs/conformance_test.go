package zofs_test

import (
	"testing"

	"zofs/internal/sysfactory"
	"zofs/internal/vfs/vfstest"
)

// The conformance suite on ZoFS and each of its sysfactory variants: small-file
// inlining and the one-coffer variant of Table 9, the syscall-per-write and
// kernel-write variants of Fig. 8.
func TestZoFSConformance(t *testing.T)          { vfstest.Run(t, vfstest.On(sysfactory.ZoFS)) }
func TestZoFSInlineConformance(t *testing.T)    { vfstest.Run(t, vfstest.On(sysfactory.ZoFSInline)) }
func TestZoFSOneCofferConformance(t *testing.T) { vfstest.Run(t, vfstest.On(sysfactory.ZoFS1Coffer)) }
func TestZoFSSysEmptyConformance(t *testing.T)  { vfstest.Run(t, vfstest.On(sysfactory.ZoFSSysEmpty)) }
func TestZoFSKWriteConformance(t *testing.T)    { vfstest.Run(t, vfstest.On(sysfactory.ZoFSKWrite)) }
