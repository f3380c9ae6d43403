package fabric

import (
	"math"
	"testing"
	"testing/quick"

	"flowpulse/internal/sim"
)

// TestDecayMemoBitExact: over random dt sequences with repeats,
// interleaved across priority classes, the memoised factor has the
// same bits as a fresh math.Exp(-dt/tau), on the first call too.
func TestDecayMemoBitExact(t *testing.T) {
	prop := func(tauPS uint32, ops []uint16) bool {
		tau := float64(tauPS) + 1
		m := newDecayMemo(tau)
		for i, op := range ops {
			// A pool of eight dt values makes repeats common; the
			// class comes from other bits so lookups interleave.
			dt := float64(int(op%8) * 1237) // includes 0, the zero value of an unset entry
			prio := int(op>>3) % numPriorities
			got := m.factor(prio, dt)
			if want := math.Exp(-dt / tau); math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("op %d (class %d, dt %v, tau %v): memo %x, exp %x",
					i, prio, dt, tau, math.Float64bits(got), math.Float64bits(want))
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
