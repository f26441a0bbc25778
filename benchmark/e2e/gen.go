package e2e

import "encoding/binary"

// rng is splitmix64: the generator's only source of randomness, so a seed
// fixes every op stream independently of the Go release's math/rand.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 0x1234567} }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a value in [0,n). The modulo bias is below 2^-40 for every n
// the generators use.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// fork derives an independent generator (per client, per pass purpose).
func (r *rng) fork(tag uint64) *rng { return newRNG(r.next() ^ mix64(tag)) }

// Op is one pre-generated operation. Kind indexes the workload's own kind
// table; A and B are workload-defined targets (file or path index, block
// number, payload index). Want is the outcome the generator's model
// predicts, so the timed loop can check a result with one comparison.
type Op struct {
	Kind uint8
	Want uint8
	A, B uint32
}

// Expected outcomes.
const (
	wantOK uint8 = iota
	wantNotExist
	wantPerm
)

// mixEntry is one op kind's share of a workload, in parts of the mix total.
type mixEntry struct {
	kind  uint8
	parts int
}

// deck returns n op kinds realizing the mix exactly (largest-remainder
// rounding), shuffled. Exact counts keep op totals identical across seeds,
// so seeds differ in order and targets, not in how much work they ask for.
func deck(r *rng, n int, mix []mixEntry) []uint8 {
	total := 0
	for _, m := range mix {
		total += m.parts
	}
	out := make([]uint8, 0, n)
	rem := make([]int, len(mix))
	for i, m := range mix {
		c := n * m.parts / total
		rem[i] = n * m.parts % total
		for j := 0; j < c; j++ {
			out = append(out, m.kind)
		}
	}
	for len(out) < n {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		rem[best] = -1
		out = append(out, mix[best].kind)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// hashOps folds op streams into one 64-bit FNV-1a digest.
func hashOps(streams ...[]Op) uint64 {
	h := uint64(0xcbf29ce484222325)
	step := func(b uint64) {
		h ^= b
		h *= 0x100000001b3
	}
	for si, s := range streams {
		step(uint64(si) + 0x51)
		for _, o := range s {
			step(uint64(o.Kind) | uint64(o.Want)<<8)
			step(uint64(o.A))
			step(uint64(o.B))
		}
	}
	return h
}

// pageSize is the unit of every data op and content check.
const pageSize = 4096

// fillPattern writes the content of file `id` at byte offset off into buf:
// each aligned 8-byte word is a hash of (id, word offset), so any block
// returned from the wrong file or offset is detected by checking one word.
// off and len(buf) must be multiples of 8.
func fillPattern(buf []byte, id uint32, off int64) {
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], patternWord(id, off+int64(i)))
	}
}

func patternWord(id uint32, off int64) uint64 {
	return mix64(uint64(id)<<40 ^ uint64(off) ^ 0x5a5a)
}

// checkEnds verifies the first and last word of a block read from (id, off).
// The timed loops use it: it is cheap enough not to hide the read itself,
// and a misdirected or torn block fails it. Full contents are compared by
// the verifiers after the timed region.
func checkEnds(buf []byte, id uint32, off int64) bool {
	n := len(buf)
	return binary.LittleEndian.Uint64(buf) == patternWord(id, off) &&
		binary.LittleEndian.Uint64(buf[n-8:]) == patternWord(id, off+int64(n-8))
}

// checkPattern compares a whole buffer against the pattern.
func checkPattern(buf []byte, id uint32, off int64) bool {
	for i := 0; i+8 <= len(buf); i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != patternWord(id, off+int64(i)) {
			return false
		}
	}
	return true
}

// payloads is the fixed pool of write buffers, built before the timed region
// so writes allocate and fill nothing. Payload i is the pattern of pseudo
// file payloadID at offset i*pageSize; a written block is identified by its
// payload index alone.
const (
	payloadID = 0xffffff
	nPayloads = 251 // prime, so (target, version) pairs spread over the pool
)

func buildPayloads() [][]byte {
	flat := make([]byte, nPayloads*pageSize)
	fillPattern(flat, payloadID, 0)
	out := make([][]byte, nPayloads)
	for i := range out {
		out[i] = flat[i*pageSize : (i+1)*pageSize : (i+1)*pageSize]
	}
	return out
}
