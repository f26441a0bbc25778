package main

import (
	"strings"
	"testing"
)

// TestTranscript runs the demo and checks the lines of its narrative that do
// not depend on how the reader goroutines interleave: the publish count, the
// request count and the access log's size. The virtual time the readers take
// is reported but not checked, because contention on the shared device
// depends on that interleaving.
func TestTranscript(t *testing.T) {
	var out strings.Builder
	run(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 ||
		lines[0] != "published 500 documents (16 KB each)" ||
		!strings.HasPrefix(lines[1], "served 2000 requests with 4 reader processes in ") ||
		lines[2] != "access-0.log: 14500 bytes of appended log lines" {
		t.Fatalf("transcript:\n%s", out.String())
	}
}
