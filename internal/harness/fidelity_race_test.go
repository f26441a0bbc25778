//go:build race

package harness_test

// Under the race detector device media are chunks of Go heap
// (nvm/media_heap.go).
func init() { heapMedia = true }
