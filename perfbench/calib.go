package main

import (
	"time"

	"flowpulse/perfbench/stats"
)

// The calibration loop is a fixed piece of simulator-shaped work: a
// binary heap of timed events, each of which reads and writes a random
// slot of a 16 MB table. The benchmark runs it between operations, while
// the program is idle, and reports host time in multiples of it (the
// unit "cal"). On a shared machine the speed of the host drifts by tens
// of percent over minutes; the calibration loop slows with it, so the
// ratio keeps the drift out of the gated metrics while a change to the
// program still moves them. The loop lives in the benchmark, so a change
// to the program cannot change it.
const (
	calEvents = 4096
	calPops   = 10000
	calSlots  = 1 << 21 // 16 MB of uint64: past the per-core L2, inside the shared L3
	calBits   = 21
)

type calEvent struct{ at, slot uint64 }

// The heap and the table are package-level arrays, outside the Go heap:
// the loop allocates nothing and moves neither the GC pace nor the live
// heap the benchmark reports.
var (
	calHeap  [calEvents]calEvent
	calTable [calSlots]uint64
	calSink  uint64
	calPass  uint64
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calibrate runs the calibration loop once and returns its host time.
// Every pass does the same amount of work on slots drawn afresh, so a
// pass finds little of the table in the per-core caches whether or not
// another pass ran just before it.
func calibrate() time.Duration {
	t0 := time.Now()
	calPass++
	x := xorshift(calPass*0x9E3779B97F4A7C15 + 1)
	n := 0
	for ; n < calEvents; n++ {
		x = xorshift(x)
		calPush(n, calEvent{at: x & (1<<20 - 1), slot: x >> (64 - calBits)})
	}
	var sum uint64
	for i := 0; i < calPops; i++ {
		e := calHeap[0]
		n--
		calHeap[0] = calHeap[n]
		calDown(n)
		calTable[e.slot] += e.at
		sum += calTable[(e.slot*0x9E3779B97F4A7C15)>>(64-calBits)]
		x = xorshift(x)
		calPush(n, calEvent{at: e.at + 1 + x&1023, slot: x >> (64 - calBits)})
		n++
	}
	calSink += sum
	return time.Since(t0)
}

// calPush places e at index n of a heap of n events and sifts it up.
func calPush(n int, e calEvent) {
	calHeap[n] = e
	for n > 0 {
		p := (n - 1) / 2
		if calHeap[p].at <= calHeap[n].at {
			return
		}
		calHeap[p], calHeap[n] = calHeap[n], calHeap[p]
		n = p
	}
}

// calDown sifts the root of a heap of n events down.
func calDown(n int) {
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		if r := l + 1; r < n && calHeap[r].at < calHeap[l].at {
			l = r
		}
		if calHeap[i].at <= calHeap[l].at {
			return
		}
		calHeap[i], calHeap[l] = calHeap[l], calHeap[i]
		i = l
	}
}

// calMedian runs the calibration loop n times and returns the median
// time in milliseconds.
func calMedian(n int) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = ms(calibrate())
	}
	return stats.Median(xs)
}

// warmCalibration touches the table and heap once so that the first
// timed pass does not pay for page faults.
func warmCalibration() {
	for i := 0; i < 3; i++ {
		calibrate()
	}
}
