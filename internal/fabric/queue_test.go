package fabric

import (
	"testing"
	"testing/quick"
)

func TestFifoBasics(t *testing.T) {
	var q fifo
	if q.len() != 0 || q.byteLen() != 0 || q.pop() != nil || q.peek() != nil {
		t.Fatal("empty fifo misbehaves")
	}
	p1 := &Packet{ID: 1, Size: 100}
	p2 := &Packet{ID: 2, Size: 200}
	q.push(p1)
	q.push(p2)
	if q.len() != 2 || q.byteLen() != 300 {
		t.Fatalf("len=%d bytes=%d", q.len(), q.byteLen())
	}
	if q.peek() != p1 {
		t.Fatal("peek is not FIFO head")
	}
	if q.pop() != p1 || q.pop() != p2 || q.pop() != nil {
		t.Fatal("pop order wrong")
	}
	if q.byteLen() != 0 {
		t.Fatal("bytes not drained")
	}
}

func TestFifoGrowPreservesOrder(t *testing.T) {
	var q fifo
	// Interleave pushes and pops so head wraps before growth.
	for i := 0; i < 10; i++ {
		q.push(&Packet{ID: uint64(i), Size: 1})
	}
	for i := 0; i < 7; i++ {
		q.pop()
	}
	for i := 10; i < 64; i++ {
		q.push(&Packet{ID: uint64(i), Size: 1})
	}
	want := uint64(7)
	for q.len() > 0 {
		got := q.pop().ID
		if got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
		want++
	}
}

// The ring's capacity must stay a power of two at every size so the
// push/pop index wrap can be a mask instead of a modulo; the head must
// survive growth while wrapped around the end of the buffer.
func TestFifoPowerOfTwoGrowth(t *testing.T) {
	var q fifo
	for i := 0; i < 300; i++ {
		q.push(&Packet{ID: uint64(i), Size: 1})
		if c := len(q.buf); c&(c-1) != 0 {
			t.Fatalf("capacity %d is not a power of two", c)
		}
	}
	// Wrap the head deep into the buffer, then force another growth
	// cycle while wrapped.
	for i := 0; i < 250; i++ {
		q.pop()
	}
	for i := 300; i < 1000; i++ {
		q.push(&Packet{ID: uint64(i), Size: 1})
		if c := len(q.buf); c&(c-1) != 0 {
			t.Fatalf("capacity %d is not a power of two after wrap", c)
		}
	}
	want := uint64(250)
	for q.len() > 0 {
		if got := q.pop().ID; got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
		want++
	}
	if want != 1000 {
		t.Fatalf("drained %d packets, want 1000", want)
	}
}

// Property: any interleaving of pushes and pops is FIFO and
// byte-conserving.
func TestFifoProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q fifo
		next, expect := uint64(0), uint64(0)
		var bytes int64
		for _, op := range ops {
			if op%3 == 0 && q.len() > 0 {
				p := q.pop()
				if p.ID != expect {
					return false
				}
				expect++
				bytes -= int64(p.Size)
			} else {
				size := int(op)%512 + 1
				q.push(&Packet{ID: next, Size: size})
				next++
				bytes += int64(size)
			}
			if q.byteLen() != bytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPerPriorityLoadIsolation(t *testing.T) {
	// High-priority spray decisions must not see Low-priority bytes —
	// the mechanism that makes §5.1 prioritization isolate the
	// measured collective.
	ld := &linkDir{}
	ld.queues[int(Low)].push(&Packet{Size: 1 << 20, Priority: Low})
	m := newDecayMemo(float64(5000000)) // 5 µs in ps
	if got := ld.load(0, &m, int(High)); got != 0 {
		t.Fatalf("High-class load sees Low bytes: %d", got)
	}
	if got := ld.load(0, &m, int(Low)); got != 1<<20 {
		t.Fatalf("Low-class load = %d, want its own bytes", got)
	}
	// Ctrl bytes are visible to every class.
	ld.queues[int(Ctrl)].push(&Packet{Size: 64, Priority: Ctrl})
	if got := ld.load(0, &m, int(High)); got != 64 {
		t.Fatalf("High-class load = %d, want 64 (Ctrl visible)", got)
	}
}

func TestLoadRecentDecays(t *testing.T) {
	ld := &linkDir{}
	m := newDecayMemo(float64(5 * 1000 * 1000)) // 5 µs
	ld.addRecent(0, 10000, int(High), &m)
	early := ld.load(1000, &m, int(High))
	late := ld.load(50*1000*1000, &m, int(High)) // 50 µs later
	if early < 9000 {
		t.Fatalf("recent bytes decayed too fast: %d", early)
	}
	if late != 0 {
		t.Fatalf("recent bytes never decayed: %d", late)
	}
	// tau <= 0 disables the memory term entirely.
	ld2 := &linkDir{}
	off := newDecayMemo(-1)
	ld2.addRecent(0, 10000, int(High), &off)
	if got := ld2.load(1, &off, int(High)); got != 0 {
		t.Fatalf("disabled memory still contributes: %d", got)
	}
}

func TestPacketPoolRecycles(t *testing.T) {
	n := &Network{doms: make([]domainState, 1)}
	d := &n.doms[0]
	p1 := n.allocPacket(d)
	id1 := p1.ID
	p1.Size = 999
	n.freePacket(d, p1)
	p2 := n.allocPacket(d)
	if p2 != p1 {
		t.Fatal("pool did not recycle")
	}
	if p2.Size != 0 {
		t.Fatal("recycled packet not zeroed")
	}
	if p2.ID == id1 {
		t.Fatal("recycled packet kept its old ID")
	}
}
