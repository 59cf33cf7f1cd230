package main

import "time"

// calRefNs is the calibration pass's duration on the reference host (the
// 2-vCPU builder host, quiet). Every timing is multiplied by
// calRefNs/cal_ns of the calibration passes around it (atRef), so a run
// made while the host is slow reports what the same work would have
// taken at reference speed. Only ratios between builds on one host mean
// anything; the constant just keeps the numbers near raw wall clock.
const calRefNs = 20.0e6

const (
	calTableSize  = 1 << 16 // 512 KiB of uint64: larger than L1, inside L2
	calStoreSize  = 1 << 17 // entries of the big map: ~8 MB with its keys, beyond L2
	calInterpRuns = 40_000
	calMapRounds  = 64
	calMapSize    = 4096
	calHandoffs   = 12_000
	calPipeItems  = 10_000
	calPipeDepth  = 256 // the engine's default queue depth
)

// calKey is a key (and value) of the big map: two words, like a flow key.
type calKey struct{ a, b uint64 }

var (
	calTable [calTableSize]uint64
	calProg  [64]uint8
	calMap   = make(map[uint64]uint64, calMapSize)
	calStore = make(map[calKey]calKey, calStoreSize)
	calKeys  = make([]calKey, calStoreSize)
	// calPool holds the pipeline's items. Twice the queue depth: an item
	// is not rewritten while it can still be queued or in the consumer's
	// hands.
	calPool [2 * calPipeDepth]calItem
	calSink uint64
)

func init() {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range calTable {
		calTable[i] = next()
	}
	for i := range calProg {
		calProg[i] = uint8(next() % 8)
	}
	for i := range calKeys {
		k := calKey{next(), x * 31}
		calKeys[i] = k
		calStore[k] = calKey{uint64(i), x}
	}
}

// calLookup probes the big map for one of its keys, chosen by seed.
func calLookup(seed uint64) uint64 {
	return calStore[calKeys[(seed>>33)&(calStoreSize-1)]].a
}

// calInterp runs a fixed 64-instruction program over a register file:
// switch dispatch, independent ALU steps, data-dependent branches and
// loads from the 64 K-entry table — the shape of an IR interpreter. A
// single dependent chain of ALU steps would not do: a busy neighbour on
// the core's other hardware thread barely slows it, while it slows code
// like this (and the engine) by a fifth (README, "Calibration").
func calInterp(regs *[16]uint64, seed uint64) uint64 {
	regs[0] = seed
	for pc, op := range calProg {
		a, b := pc&15, (pc*7+3)&15
		switch op {
		case 0:
			regs[a] += regs[b]
		case 1:
			regs[a] ^= regs[b] >> 3
		case 2:
			regs[a] = regs[b]*0x9E3779B97F4A7C15 + 1
		case 3:
			if regs[b]&1 == 0 {
				regs[a]++
			} else {
				regs[a] += 3
			}
		case 4:
			regs[a] = regs[a]<<7 | regs[a]>>57
		case 5:
			regs[a] &= regs[b] | 0xFF
		case 6:
			regs[a] -= regs[b]
		case 7:
			regs[a] = calTable[regs[b]&(calTableSize-1)]
		}
	}
	return regs[3] ^ regs[7]
}

// calItem is what the pass's pipeline hands from producer to consumer.
type calItem struct {
	seq  uint64
	data [8]uint64
}

// calibrate runs one pass of fixed work that touches no repository code
// and returns how long it took. The work is shaped like the engine's
// own; the parts and their shares were chosen so that the pass slows
// down as much as the four workloads do when the host does, whichever
// way it does (README, "Calibration"):
//
//   - an interpreter loop with table loads (calInterp): the switch and
//     server programs;
//   - clearing and refilling a Go map: the slow path's hashing and bucket
//     walks. The map is reused so the pass leaves no garbage: a pass that
//     allocated would run faster or slower with the collector's phase,
//     which is the program's state and not the host's speed;
//   - round trips over unbuffered channels between two goroutines: the
//     slow path's worker -> drainer -> worker wake-ups;
//   - a producer filling items and handing them through a 256-deep
//     channel to a consumer that interprets each and looks up a random key
//     in a map too large for the L2 cache: the dispatcher -> worker
//     pipeline, whose rate depends on how the host runs the two vCPUs side
//     by side, and flow tables that miss cache, which a neighbour filling
//     the shared cache slows several times more than it slows computation.
func calibrate() float64 {
	t0 := time.Now()
	var regs [16]uint64
	x := uint64(88172645463325252)
	for i := 0; i < calInterpRuns; i++ {
		x += calInterp(&regs, x)
	}

	for r := 0; r < calMapRounds; r++ {
		clear(calMap)
		for i := uint64(0); i < calMapSize; i++ {
			calMap[x+i*0x9E3779B97F4A7C15] = i
		}
		x += uint64(len(calMap))
	}

	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < calHandoffs; i++ {
		ping <- x
		x = <-pong
	}
	close(ping)
	<-pong // the echo goroutine has exited

	jobs := make(chan *calItem, calPipeDepth)
	sum := make(chan uint64)
	go func() {
		var regs [16]uint64
		var acc uint64
		for it := range jobs {
			acc += calInterp(&regs, it.seq) + calLookup(it.seq*0x9E3779B97F4A7C15<<7)
		}
		sum <- acc
	}()
	for i := 0; i < calPipeItems; i++ {
		it := &calPool[i%len(calPool)]
		it.seq = x + uint64(i)
		for j := range it.data {
			it.data[j] = x ^ uint64(j)
		}
		jobs <- it
	}
	close(jobs)
	calSink = x + <-sum // the consumer has exited
	return float64(time.Since(t0))
}

// atRef converts a raw duration to reference host speed, given the
// duration of the calibration pass (or the mean of several) taken
// around it.
func atRef(raw, calNs float64) float64 {
	return raw * calRefNs / calNs
}
