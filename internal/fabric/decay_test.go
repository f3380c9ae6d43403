package fabric

import (
	"math"
	"testing"
	"testing/quick"

	"flowpulse/internal/sim"
)

// TestDecayMemoBitExact: over random dt sequences with repeats and
// with keys that collide in the memo's table, the memoised factor has
// the same bits as a fresh math.Exp(-dt/tau), on the first call too.
func TestDecayMemoBitExact(t *testing.T) {
	// Five of the eight pool values share one slot, so lookups evict
	// each other.
	var pool []sim.Time
	for dt := sim.Time(0); len(pool) < 4; dt += 1237 {
		pool = append(pool, dt) // includes 0
	}
	for dt := sim.Time(1); len(pool) < 8; dt++ {
		if decaySlot(dt) == decaySlot(pool[1]) && dt != pool[1] {
			pool = append(pool, dt)
		}
	}
	prop := func(tauPS uint32, ops []uint16) bool {
		tau := float64(tauPS) + 1
		m := newDecayMemo(tau)
		for i, op := range ops {
			dt := pool[op%uint16(len(pool))]
			got := m.factor(dt)
			if want := math.Exp(-float64(dt) / tau); math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("op %d (dt %v, tau %v): memo %x, exp %x",
					i, dt, tau, math.Float64bits(got), math.Float64bits(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSprayLoad measures one 16-candidate spray sweep: every
// candidate port's load for a High-class packet, then the picked port's
// recent-bytes update, as forward and the serialization timer do.
func BenchmarkSprayLoad(b *testing.B) {
	const cands = 16
	m := newDecayMemo(float64(5 * sim.Microsecond))
	var dirs [cands]linkDir
	for i := range dirs {
		dirs[i].addRecent(0, 4096, int(High), &m)
	}
	now := sim.Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += sim.Time(300 * sim.Nanosecond)
		var sum int64
		for c := range dirs {
			sum += dirs[c].load(now, &m, int(High))
		}
		dirs[i%cands].addRecent(now, 4096, int(High), &m)
		if sum < 0 {
			b.Fatal("negative load")
		}
	}
}
