package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// drainRec is one fired cross-domain post: when it fired, the window
// it was emitted in, its source domain and that domain's emission
// index.
type drainRec struct {
	at   Time
	win  Time
	from int
	idx  int
}

func drainRecLess(a, b drainRec) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.win != b.win {
		return a.win < b.win
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.idx < b.idx
}

// drainPostTimer is the PostTimer flavour of a recorded post.
type drainPostTimer struct {
	log *[]drainRec
	rec drainRec
}

func (p *drainPostTimer) Fire(now Time) {
	r := p.rec
	r.at = now
	*p.log = append(*p.log, r)
}

// drainTraffic runs random cross-domain traffic on a fresh group and
// returns, per destination domain, the posts in firing order. Emitters
// sit on a few shared instants so several source domains post in the
// same window, and every post lands on one of a few instants past the
// window end, so timestamps collide across sources. Half the posts go
// through PostTimer.
func drainTraffic(seed int64, workers int) [][]drainRec {
	const (
		domains = 6
		L       = 40 * Nanosecond
	)
	g := NewGroup(GroupConfig{Domains: domains, Lookahead: L, Workers: workers})
	defer g.Close()
	logs := make([][]drainRec, domains)
	emitted := make([]int, domains)

	rng := rand.New(rand.NewSource(seed))
	for from := 1; from < domains; from++ {
		for k := rng.Intn(4) + 1; k > 0; k-- {
			start := Time(rng.Intn(6)) * Time(L/2)
			type plan struct {
				to, slot int
				timer    bool
			}
			plans := make([]plan, rng.Intn(6)+1)
			for i := range plans {
				to := rng.Intn(domains - 1)
				if to >= from {
					to++ // never self: a self post is plain local scheduling
				}
				plans[i] = plan{to: to, slot: rng.Intn(3), timer: rng.Intn(2) == 0}
			}
			g.Engine(from).At(start, func(Time) {
				for _, pl := range plans {
					rec := drainRec{win: g.windowStart, from: from, idx: emitted[from]}
					emitted[from]++
					at := g.windowEnd.Add(Duration(pl.slot) * L / 2)
					log := &logs[pl.to]
					if pl.timer {
						g.PostTimer(from, pl.to, at, &drainPostTimer{log: log, rec: rec})
						continue
					}
					g.Post(from, pl.to, at, func(now Time) {
						r := rec
						r.at = now
						*log = append(*log, r)
					})
				}
			})
		}
	}
	g.Run()
	return logs
}

// TestGroupDrainOrderProperty pins the invariant the barrier's drain
// provides: every destination fires the posts of one barrier in
// (at, from, index) order (earlier barriers first on equal at), and
// the firing log is the same for every worker count.
func TestGroupDrainOrderProperty(t *testing.T) {
	prop := func(seed int64) bool {
		want := drainTraffic(seed, 1)
		for dom, log := range want {
			for i := 1; i < len(log); i++ {
				if !drainRecLess(log[i-1], log[i]) {
					t.Logf("seed %d dom %d: %+v fired before %+v", seed, dom, log[i-1], log[i])
					return false
				}
			}
		}
		for w := 2; w <= 4; w++ {
			got := drainTraffic(seed, w)
			for dom := range want {
				if !slices.Equal(got[dom], want[dom]) {
					t.Logf("seed %d workers %d dom %d: log differs from workers=1", seed, w, dom)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

type nopTimer struct{}

func (nopTimer) Fire(Time) {}

// drainRound fills every worker domain's mailbox with m posts spread
// over all other domains on four colliding instants, drains the
// barrier, and empties the destination heaps again.
func drainRound(g *Group, m int) {
	at := g.windowEnd
	n := len(g.engines)
	for from := 1; from < n; from++ {
		for i := 0; i < m; i++ {
			to := (from + 1 + i%(n-1)) % n
			g.outbox[from] = append(g.outbox[from], post{at: at.Add(Duration(i % 4)), to: int32(to), tm: nopTimer{}})
		}
	}
	g.drainPosts()
	for _, e := range g.engines {
		for e.queue.len() > 0 {
			e.free = append(e.free, e.queue.pop())
		}
		e.pending = 0
	}
}

func newDrainGroup(domains int) *Group {
	g := NewGroup(GroupConfig{Domains: domains, Lookahead: 100 * Nanosecond, Workers: 1})
	g.windowStart, g.windowEnd = 0, Time(100*Nanosecond)
	return g
}

// BenchmarkGroupDrain measures one barrier: N domains each posting M
// events per window, drained onto the destination heaps.
func BenchmarkGroupDrain(b *testing.B) {
	for _, c := range []struct {
		name           string
		domains, posts int
	}{
		{"N=17/M=8", 17, 8},
		{"N=49/M=32", 49, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := newDrainGroup(c.domains)
			defer g.Close()
			drainRound(g, c.posts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainRound(g, c.posts)
			}
		})
	}
}

// TestGroupDrainAllocsZero: once mailboxes, heaps and event pools are
// warm, a barrier drain allocates nothing.
func TestGroupDrainAllocsZero(t *testing.T) {
	g := newDrainGroup(17)
	defer g.Close()
	drainRound(g, 32)
	if allocs := testing.AllocsPerRun(100, func() { drainRound(g, 32) }); allocs != 0 {
		t.Fatalf("barrier drain allocates %.1f per round, want 0", allocs)
	}
}
