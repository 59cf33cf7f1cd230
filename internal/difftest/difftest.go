// Package difftest is the Gauntlet-style differential testing subsystem:
// it generates random, well-typed MiniClick programs from a seed, compiles
// them through the full gallium pipeline, executes a deterministic packet
// trace through the partitioned deployment three ways — sequential
// Testbed.Inject, the concurrent engine with one worker, and the
// concurrent engine with eight workers — and compares every per-packet
// output and the canonicalized final state against an oracle that runs
// the *unpartitioned* IR through the reference interpreter. Any
// divergence is a partitioner, codegen, or runtime bug; the shrinker
// minimizes the (program, trace) pair and writes it to
// testdata/regressions/ as a permanent corpus case.
//
// Equivalence is defined relative to the §4.3.3 write-back protocol, as
// documented in TESTING.md. The harness removes the two benign sources of
// nondeterminism by construction: trace packets are spaced far enough
// apart in virtual time that every control-plane flip lands before the
// next injection (Inject leg), and an engine worker flips each packet's
// write-back before it starts the next job, so it never runs a packet
// before its previous write-back is visible.
// Under those conditions the oracle comparison is exact for the Inject
// and 1-worker legs on every program. The 8-worker leg is exact only for
// programs whose cross-packet state is partitioned by flow ("shard-safe",
// see ProgramSpec.ShardSafe): their per-shard states are disjoint and the
// union must equal the oracle's. Programs with cross-flow state (scalar
// counters, non-flow map keys) get relaxed 8-worker checks — no errors,
// no lost packets — because sharded execution legitimately reorders
// cross-flow interactions.
package difftest

// rng is a splitmix64 stream: tiny, stable across Go releases, and
// trivially re-seedable, so a printed seed always replays the same case.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// rangen returns a uniform int in [lo, hi].
func (r *rng) rangen(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// pct returns true with probability p/100.
func (r *rng) pct(p int) bool { return r.intn(100) < p }

// pick returns a uniformly chosen element.
func pick[T any](r *rng, xs []T) T { return xs[r.intn(len(xs))] }
