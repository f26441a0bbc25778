//go:build !linux || race

package nvm

// media is a device's backing memory. In this build each chunk is a Go heap
// object the runtime zeroes. Race builds need it: the race detector sees only
// memory the Go runtime allocated, so unsynchronized accesses to a mapped
// device byte would pass `go test -race` unreported. Other systems lack the
// Linux anonymous mapping media_mmap.go uses.
type media struct{}

func newMedia(int64) *media { return new(media) }

func (*media) chunk(int64) *chunk { return new(chunk) }
