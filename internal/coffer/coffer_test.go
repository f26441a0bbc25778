package coffer

import (
	"strings"
	"testing"
	"testing/quick"

	"zofs/internal/nvm"
)

func TestAccess(t *testing.T) {
	cases := []struct {
		mode         Mode
		owner, group uint32
		uid, gid     uint32
		write, want  bool
	}{
		{0o644, 100, 100, 100, 100, false, true},  // owner read
		{0o644, 100, 100, 100, 100, true, true},   // owner write
		{0o644, 100, 100, 200, 100, true, false},  // group write denied
		{0o644, 100, 100, 200, 100, false, true},  // group read
		{0o640, 100, 100, 200, 300, false, false}, // other read denied
		{0o646, 100, 100, 200, 300, true, true},   // other write allowed
		{0o000, 100, 100, 0, 0, true, true},       // root bypasses
		{0o600, 100, 100, 200, 200, false, false}, // private file
	}
	for i, c := range cases {
		if got := Access(c.mode, c.owner, c.group, c.uid, c.gid, c.write); got != c.want {
			t.Errorf("case %d: Access(%o,...) = %v want %v", i, c.mode, got, c.want)
		}
	}
}

func TestAccessHierarchyProperty(t *testing.T) {
	// Owner permissions shadow group/other: if the caller is the owner,
	// group/other bits are irrelevant.
	f := func(modeRaw uint16, owner uint8, write bool) bool {
		mode := Mode(modeRaw) & 0o777
		uid := uint32(owner) + 1 // nonzero
		got := Access(mode, uid, 42, uid, 99, write)
		var want bool
		if write {
			want = mode&0o200 != 0
		} else {
			want = mode&0o400 != 0
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// encode runs EncodeRootPage over a dirty buffer: the image must not depend
// on what the caller's page held before.
func encode(rp *RootPage) []byte {
	var page [nvm.PageSize]byte
	for i := range page {
		page[i] = 0xa5
	}
	EncodeRootPage(&page, rp)
	return page[:]
}

func TestRootPageRoundTrip(t *testing.T) {
	rp := &RootPage{
		ID: 1234, Type: TypeZoFS, Mode: 0o640, UID: 7, GID: 8,
		Flags: FlagInRecovery, RootInode: 999, Custom: 1000,
		Lease: 0xabcdef, Path: "/home/user/data",
	}
	buf := encode(rp)
	got, err := DecodeRootPage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *rp {
		t.Fatalf("round trip: %+v != %+v", got, rp)
	}
	for i, b := range buf[rpPathOff+len(rp.Path):] {
		if b != 0 {
			t.Fatalf("byte %d after the path = %#x, want 0", i, b)
		}
	}
}

func TestRootPageRejectsCorruption(t *testing.T) {
	buf := encode(&RootPage{ID: 1, Path: "/x"})
	buf[0] ^= 0xff // break magic
	if _, err := DecodeRootPage(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
	buf2 := encode(&RootPage{ID: 1, Path: "/x"})
	buf2[56] = 0xff // absurd path length
	buf2[57] = 0xff
	if _, err := DecodeRootPage(buf2); err == nil {
		t.Fatal("corrupt path length accepted")
	}
	if _, err := DecodeRootPage(make([]byte, 16)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestRootPagePathLimit(t *testing.T) {
	long := "/" + strings.Repeat("a", MaxPathLen)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized path accepted")
		}
	}()
	encode(&RootPage{ID: 1, Path: long})
}

func TestRootPageRoundTripProperty(t *testing.T) {
	f := func(id uint32, mode uint16, uid, gid uint32, ri, cu uint32, pathRaw []byte) bool {
		path := "/" + sanitize(pathRaw, 200)
		rp := &RootPage{
			ID: ID(id), Type: TypeZoFS, Mode: Mode(mode) & 0o777,
			UID: uid, GID: gid, RootInode: int64(ri), Custom: int64(cu), Path: path,
		}
		got, err := DecodeRootPage(encode(rp))
		return err == nil && *got == *rp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(raw []byte, max int) string {
	var b strings.Builder
	for _, c := range raw {
		if b.Len() >= max {
			break
		}
		b.WriteByte('a' + c%26)
	}
	return b.String()
}

func TestExtent(t *testing.T) {
	e := Extent{Start: 10, Count: 5}
	if e.End() != 15 {
		t.Fatalf("End = %d", e.End())
	}
	if e.String() == "" {
		t.Fatal("empty String")
	}
}
