package trace

import (
	"bytes"
	"testing"

	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
)

// decodeFixture records two ready windows of one leaf with `ports`
// uplinks and `senders` senders per uplink, reads the first through a
// Reader (which primes its XOR cache and clock) and returns that
// Reader with the second window's payload: the steady state of a live
// stream, where most predictions repeat and fold to one zero byte.
func decodeFixture(tb testing.TB, ports, senders int) (*Reader, []byte) {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	h := Header{
		Label:  "decode",
		Leaves: 8, Spines: 4, HostsPerLeaf: 1, Trunk: 1,
		Jobs: []JobHeader{{Predictor: "analytical", Threshold: 0.01}},
	}
	if err := w.Begin(h); err != nil {
		tb.Fatal(err)
	}
	win := &telemetry.Window{
		LeafOrdinal: 3,
		Packets:     4096,
		PortBytes:   make([]int64, ports),
		SenderBytes: make([][]int64, ports),
	}
	port := make([]float64, ports)
	sender := make([][]float64, ports)
	for u := range win.SenderBytes {
		win.PortBytes[u] = int64(senders) << 17
		port[u] = float64(win.PortBytes[u])
		win.SenderBytes[u] = make([]int64, senders)
		sender[u] = make([]float64, senders)
		for l := range sender[u] {
			win.SenderBytes[u][l] = 128<<10 + int64(u*l)
			sender[u][l] = 128 << 10
		}
	}
	for i := 1; i <= 2; i++ {
		win.Iter = uint32(i)
		win.OpenedAt = win.ClosedAt
		win.ClosedAt += sim.Time(50 * sim.Microsecond)
		win.PortBytes[i%ports] += int64(i)
		port[0] += float64(i) // one prediction changes per window
		w.Window(win, true, port, sender)
	}
	if err := w.Finish(win.ClosedAt); err != nil {
		tb.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		tb.Fatal(err)
	}
	payload, err := r.readFrame()
	if err != nil {
		tb.Fatal(err)
	}
	return r, append([]byte(nil), payload...)
}

// decodeInto decodes one window payload into the record slot returns.
func decodeInto(tb testing.TB, r *Reader, payload []byte, slot WindowSlot) {
	d := dec{b: payload}
	if k := d.kind(); k != KindWindow {
		tb.Fatalf("kind %d, want window", k)
	}
	r.decodeWindow(&d, slot)
	if err := d.done(); err != nil {
		tb.Fatal(err)
	}
}

// TestDecodeWindowAllocs is the decode side's allocation budget. A
// slot that already holds a window of the same shape decodes without
// allocating; a fresh slot costs a fixed number of allocations (one
// backing array per matrix, not one per row), so the count is the same
// for 16 and 64 rows.
func TestDecodeWindowAllocs(t *testing.T) {
	r, payload := decodeFixture(t, 16, 32)
	var warm WindowRecord
	warmSlot := func(uint16, int) *WindowRecord { return &warm }
	decodeInto(t, r, payload, warmSlot)
	if avg := testing.AllocsPerRun(100, func() { decodeInto(t, r, payload, warmSlot) }); avg != 0 {
		t.Errorf("decode into a warm slot: %v allocs/op, want 0", avg)
	}

	fresh := func(rows int) float64 {
		r, payload := decodeFixture(t, rows, 32)
		slot := func(uint16, int) *WindowRecord { return new(WindowRecord) }
		return testing.AllocsPerRun(100, func() { decodeInto(t, r, payload, slot) })
	}
	if a16, a64 := fresh(16), fresh(64); a16 != a64 {
		t.Errorf("decode into a fresh slot: %v allocs at 16 rows, %v at 64", a16, a64)
	}
}

// BenchmarkTraceDecodeWindow decodes one steady-state window (16 ports
// × 32 senders, predictions ready) into a warm slot: the per-window
// cost of serve ingest and offline replay.
func BenchmarkTraceDecodeWindow(b *testing.B) {
	r, payload := decodeFixture(b, 16, 32)
	var w WindowRecord
	slot := func(uint16, int) *WindowRecord { return &w }
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeInto(b, r, payload, slot)
	}
}
