package engine

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// False-sharing audit benchmarks. The engine pads every per-worker
// mutable block — worker hot state, switchsim lane stats — with 64-byte
// guards so adjacent shards never share a cache line. These benchmarks
// measure the exact effect being bought: eight
// counter slots bumped by concurrent goroutines, in the packed layout
// (adjacent slots share lines, one Int64 apart) versus the engine's
// padded layout (one slot per line).
//
//	go test ./internal/engine/ -run - -bench FalseSharing -cpu 1,2,4,8
//
// On a multi-core host the packed layout degrades with -cpu as every
// bump invalidates the neighbors' line; the padded layout holds flat.
// On a single-core host the two are equal — there is no cross-core
// traffic to eliminate, which is the honest null result and why the
// scale gate (the root package's TestScaleOut) loud-skips below 4 cores
// instead of claiming a measurement.

const benchSlots = 8

// packedSlot is the layout the audit removed: nothing keeps neighbors
// off this slot's cache line.
type packedSlot struct {
	n atomic.Int64
}

// paddedSlot is the engine's layout (worker, laneStats): guards on
// both sides give each slot a line of its own.
type paddedSlot struct {
	_ [64]byte
	n atomic.Int64
	_ [56]byte
}

// benchSink defeats dead-code elimination of the counter sums.
var benchSink int64

func runSlots(b *testing.B, bump func(id int), load func() int64) {
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1)-1) % benchSlots
		for pb.Next() {
			bump(id)
		}
	})
	benchSink = load()
}

func BenchmarkFalseSharingPacked(b *testing.B) {
	slots := make([]packedSlot, benchSlots)
	runSlots(b,
		func(id int) { slots[id].n.Add(1) },
		func() int64 { return slots[0].n.Load() })
}

func BenchmarkFalseSharingPadded(b *testing.B) {
	slots := make([]paddedSlot, benchSlots)
	runSlots(b,
		func(id int) { slots[id].n.Add(1) },
		func() int64 { return slots[0].n.Load() })
}

// layoutField is one struct field's place, for the cache-line layout tests.
type layoutField struct {
	name      string
	off, size uintptr
}

// checkApart fails t for every field of written that could share a cache
// line with a field of read: a field that starts at least 64 bytes past
// the end of another can share no line with it, wherever the struct sits.
func checkApart(t *testing.T, typ string, read, written []layoutField) {
	t.Helper()
	for _, r := range read {
		for _, w := range written {
			lo, hi := r, w
			if w.off < r.off {
				lo, hi = w, r
			}
			if gap := int(hi.off) - int(lo.off+lo.size); gap < 64 {
				t.Errorf("%s.%s (offset %d) and %s.%s (offset %d) are %d bytes apart: they can share a cache line",
					typ, w.name, w.off, typ, r.name, r.off, gap)
			}
		}
	}
}

// TestDispatcherStateOffWorkerLines pins the layouts that keep the
// dispatcher's writes off the workers' reads. Every Dispatch locks feedMu
// and bumps Engine's seq, lastT and fedAny (and pending, within a receive
// batch), while a worker reads aborted (and runCtx beside it) once per
// packet. And every packet Feed or Dispatch hands to a worker is appended
// to that worker's burst, while the worker reads its id, eng and box and
// its hot block (walk, batch, next, lifeOn) once per packet.
func TestDispatcherStateOffWorkerLines(t *testing.T) {
	var e Engine
	checkApart(t, "Engine",
		[]layoutField{
			{"runCtx", unsafe.Offsetof(e.runCtx), unsafe.Sizeof(e.runCtx)},
			{"aborted", unsafe.Offsetof(e.aborted), unsafe.Sizeof(e.aborted)},
		},
		[]layoutField{
			{"feedMu", unsafe.Offsetof(e.feedMu), unsafe.Sizeof(e.feedMu)},
			{"seq", unsafe.Offsetof(e.seq), unsafe.Sizeof(e.seq)},
			{"lastT", unsafe.Offsetof(e.lastT), unsafe.Sizeof(e.lastT)},
			{"fedAny", unsafe.Offsetof(e.fedAny), unsafe.Sizeof(e.fedAny)},
			{"pending", unsafe.Offsetof(e.pending), unsafe.Sizeof(e.pending)},
		})
	var w worker
	checkApart(t, "worker",
		[]layoutField{
			{"id", unsafe.Offsetof(w.id), unsafe.Sizeof(w.id)},
			{"eng", unsafe.Offsetof(w.eng), unsafe.Sizeof(w.eng)},
			{"box", unsafe.Offsetof(w.box), unsafe.Sizeof(w.box)},
			{"walk", unsafe.Offsetof(w.walk), unsafe.Sizeof(w.walk)},
			{"batch", unsafe.Offsetof(w.batch), unsafe.Sizeof(w.batch)},
			{"next", unsafe.Offsetof(w.next), unsafe.Sizeof(w.next)},
			{"lifeOn", unsafe.Offsetof(w.lifeOn), unsafe.Sizeof(w.lifeOn)},
		},
		[]layoutField{
			{"burst", unsafe.Offsetof(w.burst), unsafe.Sizeof(w.burst)},
		})
}
