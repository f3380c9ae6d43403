package trace

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flowpulse/internal/sim"
	"flowpulse/internal/telemetry"
)

var regenCorpus = flag.Bool("regen-corpus", false, "rewrite the committed fuzz seed corpus under testdata/fuzz")

// validTrace builds a small complete recording: header, a ready
// window, a probe round, a fault, trailer.
func validTrace() []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Begin(testHeader()); err != nil {
		panic(err)
	}
	win := telemetry.Window{
		LeafOrdinal: 1,
		ClosedAt:    sim.Time(50 * sim.Microsecond),
		Packets:     64,
		PortBytes:   []int64{1000, 2000},
		SenderBytes: [][]int64{{100, 200, 300, 400}, {500, 600, 700, 800}},
	}
	w.Window(&win, true, []float64{1000, 2000}, [][]float64{{100, 200, 300, 400}, {500, 600, 700, 800}})
	w.ProbeRound(sim.Time(60*sim.Microsecond), 3, 10, 1)
	w.Fault(FaultRecord{At: sim.Time(30 * sim.Microsecond), Kind: "bernoulli", LeafOrd: 1, Rate: 0.02, OnsetIter: 2})
	if err := w.Finish(sim.Time(sim.Millisecond)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReaderRobust feeds arbitrary bytes through the reader: it must
// reject garbage with an error, never panic, and never allocate out
// of proportion to the input.
func FuzzReaderRobust(f *testing.F) {
	valid := validTrace()
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated mid-trailer
	f.Add(valid[:len(Magic)])   // magic only
	f.Add([]byte{})
	corrupt := append([]byte{}, valid...)
	corrupt[20] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A stream of len(data) bytes can hold at most len(data)
		// records (every frame is ≥ 1 byte + CRC); anything more means
		// the reader is spinning.
		for i := 0; i <= len(data); i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
		t.Fatalf("reader produced more records than the stream can hold")
	})
}

// FuzzWindowRoundTrip drives scalar window fields and predictions
// through a write→read cycle and demands exact reconstruction,
// including the XOR fold across two consecutive windows of the same
// leaf.
func FuzzWindowRoundTrip(f *testing.F) {
	f.Add(uint16(0), uint8(1), uint32(3), int64(100), int64(1000), int64(2000), int64(7), 1.5, -2.5, true)
	f.Add(uint16(9), uint8(0), uint32(0), int64(-5), int64(0), int64(-1), int64(2), math.Inf(1), 0.0, true)
	f.Add(uint16(1), uint8(3), uint32(1<<30), int64(1)<<60, int64(-1)<<60, int64(1), int64(0), 1e-300, -1e300, false)
	f.Fuzz(func(t *testing.T, job uint16, leafOrd uint8, iter uint32, packets, b0, b1, agg int64, p0, p1 float64, ready bool) {
		win := telemetry.Window{
			Job:         job,
			LeafOrdinal: int(leafOrd % 4),
			Iter:        iter,
			OpenedAt:    sim.Time(packets),
			ClosedAt:    sim.Time(packets) + sim.Time(50*sim.Microsecond),
			Packets:     packets,
			PortBytes:   []int64{b0, b1},
			SenderBytes: [][]int64{{b0 + agg, b1}, {agg, b0 ^ b1}},
		}
		switch agg & 3 {
		case 1:
			win.AggPortBytes = []int64{b0, b1}
		case 2:
			win.AggPortBytes = []int64{b0 + agg, b1 - agg}
		case 3:
			win.AggPortBytes = []int64{agg, b0, b1}
		}
		port := []float64{p0, p1}
		sender := [][]float64{{p1, p0}, {p0 / 2, p1 * 3}}

		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Begin(testHeader()); err != nil {
			t.Fatal(err)
		}
		w.Window(&win, ready, port, sender)
		win2 := win
		win2.ClosedAt += sim.Time(50 * sim.Microsecond)
		w.Window(&win2, ready, port, sender) // unchanged prediction: pure XOR-fold path
		if err := w.Finish(win2.ClosedAt); err != nil {
			t.Fatal(err)
		}

		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []*telemetry.Window{&win, &win2} {
			rec, err := r.Next()
			if err != nil {
				t.Fatalf("window %d: %v", i, err)
			}
			g := rec.Window
			if g == nil {
				t.Fatalf("window %d: wrong record kind %d", i, rec.Kind)
			}
			if g.Job != want.Job || g.LeafOrd != want.LeafOrdinal || g.Iter != want.Iter ||
				g.OpenedAt != want.OpenedAt || g.ClosedAt != want.ClosedAt || g.Packets != want.Packets {
				t.Fatalf("window %d scalars: got %+v want %+v", i, g, want)
			}
			if !reflect.DeepEqual(g.PortBytes, want.PortBytes) ||
				!reflect.DeepEqual(g.AggPortBytes, want.AggPortBytes) ||
				!reflect.DeepEqual(g.SenderBytes, want.SenderBytes) {
				t.Fatalf("window %d counters: got %+v want %+v", i, g, want)
			}
			if g.Ready != ready {
				t.Fatalf("window %d ready: %v", i, g.Ready)
			}
			if ready {
				if !floatsBitEqual(g.PortPred, port) {
					t.Fatalf("window %d port pred: got %v want %v", i, g.PortPred, port)
				}
				for u := range sender {
					if !floatsBitEqual(g.SenderPred[u], sender[u]) {
						t.Fatalf("window %d sender pred row %d: got %v want %v", i, u, g.SenderPred[u], sender[u])
					}
				}
			}
		}
	})
}

// FuzzDecodeRows is the differential check of the bulk row decoders:
// over arbitrary bytes, row lengths, start offsets and a possibly
// already-sticky error, dec.deltas and dec.xorBits must leave the same
// row values, offset, error text and XOR cache as the scalar d.i()/d.u()
// loops they replace.
func FuzzDecodeRows(f *testing.F) {
	var e enc
	for _, v := range []int64{0, 1, -1, 63, -64, 64, 1 << 20, -(1 << 40), math.MaxInt64, math.MinInt64} {
		e.i(v)
	}
	valid := e.b
	for cut := 0; cut <= len(valid); cut++ {
		f.Add(valid[:cut], uint8(12), uint8(0), false) // truncated at every byte
	}
	overlong10 := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
	overlong11 := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	max10 := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	f.Add(overlong10, uint8(2), uint8(0), false)
	f.Add(overlong11, uint8(2), uint8(0), false)
	f.Add(append([]byte{5, 7}, max10...), uint8(4), uint8(1), false)
	f.Add(valid, uint8(3), uint8(2), true)
	f.Fuzz(func(t *testing.T, data []byte, n, skip uint8, sticky bool) {
		start := min(int(skip), len(data))
		fresh := func() dec {
			d := dec{b: data, off: start}
			if sticky {
				d.fail("trace: earlier failure")
			}
			return d
		}
		same := func(what string, got, want *dec) {
			t.Helper()
			if got.off != want.off {
				t.Fatalf("%s: off %d, scalar %d", what, got.off, want.off)
			}
			if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
				t.Fatalf("%s: err %v, scalar %v", what, got.err, want.err)
			}
		}

		bulk, scalar := fresh(), fresh()
		got, want := make([]int64, n), make([]int64, n)
		bulk.deltas(got)
		var prev int64
		for j := range want {
			prev += scalar.i()
			want[j] = prev
		}
		same("deltas", &bulk, &scalar)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("deltas: %v, scalar %v", got, want)
		}

		seedCache := func() []uint64 {
			c := make([]uint64, n)
			for j := range c {
				c[j] = uint64(j+1) * 0x9E3779B97F4A7C15
			}
			return c
		}
		bulk, scalar = fresh(), fresh()
		gotF, wantF := make([]float64, n), make([]float64, n)
		gotC, wantC := seedCache(), seedCache()
		bulk.xorBits(gotF, gotC)
		for j := range wantF {
			bits := scalar.u() ^ wantC[j]
			wantC[j] = bits
			wantF[j] = math.Float64frombits(bits)
		}
		same("xorBits", &bulk, &scalar)
		if !floatsBitEqual(gotF, wantF) {
			t.Fatalf("xorBits: %v, scalar %v", gotF, wantF)
		}
		if !reflect.DeepEqual(gotC, wantC) {
			t.Fatalf("xorBits cache: %x, scalar %x", gotC, wantC)
		}
	})
}

// floatsBitEqual compares by bit pattern, so NaN inputs still have a
// well-defined round-trip requirement.
func floatsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRegenFuzzCorpus rewrites the committed seed corpus (the same
// inputs the f.Add calls register, in `go test fuzz v1` form) when run
// with -regen-corpus, mirroring the golden files' -update convention.
func TestRegenFuzzCorpus(t *testing.T) {
	if !*regenCorpus {
		t.Skip("run with -regen-corpus to rewrite testdata/fuzz")
	}
	valid := validTrace()
	corrupt := append([]byte{}, valid...)
	corrupt[20] ^= 0xff
	write := func(fuzz, name string, lines ...string) {
		dir := filepath.Join("testdata", "fuzz", fuzz)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n"
		for _, l := range lines {
			body += l + "\n"
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("FuzzReaderRobust", "seed-valid", fmt.Sprintf("[]byte(%q)", valid))
	write("FuzzReaderRobust", "seed-truncated", fmt.Sprintf("[]byte(%q)", valid[:len(valid)-5]))
	write("FuzzReaderRobust", "seed-magic-only", fmt.Sprintf("[]byte(%q)", valid[:len(Magic)]))
	write("FuzzReaderRobust", "seed-corrupt", fmt.Sprintf("[]byte(%q)", corrupt))
	write("FuzzWindowRoundTrip", "seed-basic",
		"uint16(0)", "byte(1)", "uint32(3)", "int64(100)", "int64(1000)", "int64(2000)", "int64(7)",
		"float64(1.5)", "float64(-2.5)", "bool(true)")
	write("FuzzWindowRoundTrip", "seed-extremes",
		"uint16(1)", "byte(3)", "uint32(1073741824)", "int64(1152921504606846976)",
		"int64(-1152921504606846976)", "int64(1)", "int64(0)",
		"float64(1e-300)", "float64(-1e+300)", "bool(false)")
}
