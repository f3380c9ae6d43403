package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// castagnoli is the CRC32C table every frame checksum uses (the
// polynomial with hardware support on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// enc builds one record payload in a reusable buffer. Integers are
// varints (zigzag for signed), floats either raw 8-byte words (rare
// records) or XOR-folded against a prediction cache (windows), strings
// length-prefixed.
type enc struct {
	b []byte
}

func (e *enc) reset() { e.b = e.b[:0] }

func (e *enc) kind(k byte)    { e.b = append(e.b, k) }
func (e *enc) u(v uint64)     { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i(v int64)      { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) raw64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f(v float64)    { e.raw64(math.Float64bits(v)) }
func (e *enc) bit(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *enc) s(v string) {
	e.u(uint64(len(v)))
	e.b = append(e.b, v...)
}

// dec walks one record payload. The first decode error sticks; all
// subsequent reads return zero values, so record decoders can run
// straight-line and check err once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) kind() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("trace: truncated record")
		return 0
	}
	k := d.b[d.off]
	d.off++
	return k
}

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("trace: bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("trace: bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// deltas decodes len(row) zigzag varints into their running sum: the
// bulk form of `prev += d.i(); row[j] = prev`, which window matrices
// spend most of their decode time in. The offset lives in a local and
// one-byte varints skip binary.Uvarint. After a bad varint the row's
// tail holds the last sum and d.err/d.off are what d.i() leaves, so
// the result is the scalar loop's, error path included.
func (d *dec) deltas(row []int64) {
	var prev int64
	j := 0
	if d.err == nil {
		b, off := d.b, d.off
		for ; j < len(row); j++ {
			var ux uint64
			if off < len(b) && b[off] < 0x80 {
				ux = uint64(b[off])
				off++
			} else {
				v, n := binary.Uvarint(b[off:])
				if n <= 0 {
					d.fail("trace: bad varint at offset %d", off)
					break
				}
				ux = v
				off += n
			}
			x := int64(ux >> 1)
			if ux&1 != 0 {
				x = ^x
			}
			prev += x
			row[j] = prev
		}
		d.off = off
	}
	for ; j < len(row); j++ {
		row[j] = prev
	}
}

// xorBits decodes len(row) uvarints, XOR-folds each against cache (the
// previous prediction's bits), writes the result back to cache and
// stores it as a float: the bulk form of `bits := d.u() ^ cache[j]`.
// After a bad uvarint the row's tail repeats the cached bits, as the
// scalar loop's zero reads would.
func (d *dec) xorBits(row []float64, cache []uint64) {
	cache = cache[:len(row)]
	j := 0
	if d.err == nil {
		b, off := d.b, d.off
		for ; j < len(row); j++ {
			var v uint64
			if off < len(b) && b[off] < 0x80 {
				v = uint64(b[off])
				off++
			} else {
				var n int
				v, n = binary.Uvarint(b[off:])
				if n <= 0 {
					d.fail("trace: bad uvarint at offset %d", off)
					break
				}
				off += n
			}
			bits := v ^ cache[j]
			cache[j] = bits
			row[j] = math.Float64frombits(bits)
		}
		d.off = off
	}
	for ; j < len(row); j++ {
		row[j] = math.Float64frombits(cache[j])
	}
}

func (d *dec) raw64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("trace: truncated 8-byte word at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) f() float64 { return math.Float64frombits(d.raw64()) }

func (d *dec) bit() bool { return d.kind() != 0 }

func (d *dec) s() string {
	n := d.u()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("trace: string length %d exceeds payload", n)
		return ""
	}
	v := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return v
}

// count reads a collection length and bounds it against the remaining
// payload (minBytes is the smallest possible encoding of one element),
// so a corrupt length cannot drive a giant allocation.
func (d *dec) count(minBytes int) int {
	n := d.u()
	if d.err != nil {
		return 0
	}
	if n > uint64((len(d.b)-d.off)/minBytes+1) {
		d.fail("trace: collection length %d exceeds payload", n)
		return 0
	}
	return int(n)
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("trace: %d trailing bytes in record", len(d.b)-d.off)
	}
	return nil
}

// predCache is the per-(job, leaf) previous-prediction state the float
// XOR folding runs against: a prediction that did not change since the
// leaf's previous window encodes as a single zero byte.
type predCache struct {
	port   []uint64
	sender []uint64
}

func (c *predCache) size(ports, senders int) {
	if len(c.port) != ports {
		c.port = make([]uint64, ports)
	}
	if len(c.sender) != senders {
		c.sender = make([]uint64, senders)
	}
}

func cacheKey(job uint16, leafOrd int) uint64 {
	return uint64(job)<<32 | uint64(uint32(leafOrd))
}

// fnv64Offset/fnv64Prime are the FNV-64a parameters of the event
// fingerprint (same family the simtest replay oracle uses).
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// fpState accumulates the alert/remediation stream fingerprint without
// allocating: the online Writer and the offline replay both fold every
// event and action through it, and equality of the two sums is the
// bit-identical-replay guarantee.
type fpState struct {
	h uint64
}

func newFP() fpState { return fpState{h: fnv64Offset} }

func (f *fpState) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.h = (f.h ^ uint64(byte(v>>(8*i)))) * fnv64Prime
	}
}

func (f *fpState) i64(v int64)   { f.u64(uint64(v)) }
func (f *fpState) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fpState) str(s string) {
	for i := 0; i < len(s); i++ {
		f.h = (f.h ^ uint64(s[i])) * fnv64Prime
	}
	f.u64(uint64(len(s)))
}
