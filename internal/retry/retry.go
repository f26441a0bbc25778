// Package retry is the unified failure-path retry policy: deterministic
// virtual-time exponential backoff with jitter and a per-operation deadline
// budget. Every blocking re-attempt loop in the stack (inode lease
// re-acquisition, allocator pool rescans, quarantine-era remaps) draws its
// waits from a Policy instead of hand-rolled sleeps, so
//
//   - retries are bounded: once an op's budget is spent the caller gets a
//     typed failure instead of wedging forever behind a dead peer, and
//   - retry time is attributed: every virtual nanosecond slept here is
//     billed to the spans "retry" component, keeping the exact-sum
//     attribution invariant while separating failure-path churn from
//     healthy-lock contention (CompLock).
//
// Determinism: jitter comes from a splitmix64 mix of the caller-provided
// seed and the attempt number — no wall clock, no math/rand — so a seeded
// chaos campaign replays byte-identically.
package retry

import (
	"zofs/internal/simclock"
	"zofs/internal/spans"
)

// Policy describes one backoff schedule. The zero value is invalid; use a
// named policy or fill every field.
type Policy struct {
	// Base is the first attempt's backoff delay in virtual nanoseconds.
	Base int64
	// Cap bounds any single attempt's delay.
	Cap int64
	// Budget is the total virtual time one operation may spend sleeping
	// under this policy before it must fail with a typed error.
	Budget int64
}

// DelayAt returns the jittered delay for attempt n (0-based): exponential
// growth Base<<n capped at Cap, then jittered into [d/2, d] by a
// deterministic mix of seed and n. Pure function — same (policy, seed, n)
// always yields the same delay.
func (p Policy) DelayAt(seed uint64, n int) int64 {
	d := p.Base
	if n > 0 {
		if n >= 62 || d<<uint(n) <= 0 || d<<uint(n) > p.Cap {
			d = p.Cap
		} else {
			d <<= uint(n)
		}
	}
	if d > p.Cap {
		d = p.Cap
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + int64(mix64(seed^uint64(n)+0x9e3779b97f4a7c15)%(uint64(half)+1))
}

// Start opens a backoff sequence for one operation beginning at virtual
// time now. The seed feeds the jitter stream; callers derive it from
// deterministic per-op state (thread ID, inode, campaign seed).
func (p Policy) Start(now int64, seed uint64) *Backoff {
	return &Backoff{p: p, seed: seed, deadline: now + p.Budget}
}

// Backoff is the per-operation state of one retry sequence.
type Backoff struct {
	p        Policy
	seed     uint64
	attempts int
	deadline int64
	slept    int64
}

// Slept reports the total virtual time spent sleeping so far.
func (b *Backoff) Slept() int64 { return b.slept }

// Deadline reports the absolute virtual time at which the budget runs out.
func (b *Backoff) Deadline() int64 { return b.deadline }

// Sleep advances clk by the next jittered backoff delay (clamped to the
// remaining budget) and bills the elapsed time to the spans retry
// component. It returns false — without advancing the clock — when the
// budget is already exhausted, at which point the caller must give up with
// a typed error.
func (b *Backoff) Sleep(clk *simclock.Clock) bool {
	return b.SleepUntil(clk, b.deadline)
}

// SleepUntil is Sleep with an extra wakeup target: the delay is further
// clamped so the sleeper does not overshoot target (e.g. a lease expiry
// stamp it is polling for) by more than necessary. A target at or before
// now degrades to a minimal one-tick sleep so progress is still made.
func (b *Backoff) SleepUntil(clk *simclock.Clock, target int64) bool {
	now := clk.Now()
	if now >= b.deadline {
		return false
	}
	d := b.p.DelayAt(b.seed, b.attempts)
	if d <= 0 {
		d = 1
	}
	if target <= now {
		d = 1
	} else if now+d > target {
		d = target - now
	}
	if now+d > b.deadline {
		d = b.deadline - now
	}
	if d <= 0 {
		d = 1
	}
	clk.Advance(d)
	spans.FromClock(clk).Bill(spans.CompRetry, d)
	b.attempts++
	b.slept += d
	return true
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality deterministic
// bit mixer for jitter (and for chaos-engine fate draws).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix exposes the deterministic mixer for callers that need seeded fate
// draws with the same reproducibility contract as the jitter stream.
func Mix(x uint64) uint64 { return mix64(x) }
