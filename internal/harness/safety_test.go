package harness_test

import (
	"bytes"
	"testing"

	"zofs/internal/harness"
	"zofs/internal/obsfs"
	"zofs/internal/pmemtrace"
	"zofs/internal/proc"
	"zofs/internal/sysfactory"
)

// TestSafetyIgnoresObservation: the safety run audits a recorder of its own,
// so it prints the same with and without an observation session — whose
// recorder has already logged other traffic — and leaves the session's
// recorder installed. (Each run starts from reset thread ids: allocator
// shards, and so the coffer pages the output names, follow them.)
func TestSafetyIgnoresObservation(t *testing.T) {
	var dark, lit bytes.Buffer
	proc.ResetIDs()
	if err := harness.RunSafety(&dark, tiny()); err != nil {
		t.Fatal(err)
	}
	sess, err := obsfs.Start(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := pmemtrace.Active()
	in, err := sysfactory.ZoFS.New(64<<20, false)
	if err == nil {
		err = in.FS.Mkdir(in.Proc.NewThread(), "/d", 0o755)
	}
	if err != nil {
		t.Fatal(err)
	}
	proc.ResetIDs()
	err = harness.RunSafety(&lit, tiny())
	after := pmemtrace.Active()
	if _, serr := sess.Stop(); err != nil || serr != nil {
		t.Fatal(err, serr)
	}
	if tr.Total() == 0 || after != tr {
		t.Fatalf("the session's recorder logged %d events and is installed after the run: %v", tr.Total(), after == tr)
	}
	if dark.String() != lit.String() {
		t.Fatalf("observed safety run printed:\n%s\nunobserved:\n%s", lit.String(), dark.String())
	}
}
