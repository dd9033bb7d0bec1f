// Package store is the file-backed page store: the physical disk.Backend
// behind a simulated Disk. Page payloads are encoded into a versioned binary
// wire format (one record per page: fixed 16-byte header + payload + CRC),
// appended to one real file per disk.FileID, and served back via mmap with a
// pread fallback — with *measured* per-read wall latencies, which is the
// point: every other layer of this repository charges modeled seconds, this
// one reports what the hardware actually did.
//
// The wire format is also the dataset save/load container (`pmjoin -save` /
// `-load`): the same header frames raw-data records (Data), so one codec,
// one CRC, and one fuzz target cover both uses.
//
// store is one of the sanctioned wall-clock packages: measured timing is its
// job, and nothing it measures ever feeds a Report — only disk.Measured /
// ExecStats.MeasuredIOWall.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"pmjoin/internal/disk"
	"pmjoin/internal/kernel"
)

// Record layout (all integers little-endian):
//
//	offset size field
//	0      4    magic "PMJP"
//	4      2    format version (currently 1)
//	6      2    payload kind
//	8      4    payload length in bytes
//	12     4    CRC-32 (IEEE) of the payload bytes
//	16     n    payload (kind-specific, see encodePage and encodeData)
//
// Vector and series page payloads are the kernel's flat layout, so a fetched
// page is a view of its record rather than a decoded copy:
//
//	u32 n, u32 width
//	n × i64       object IDs
//	n × i64       window starts (series pages only)
//	n·width × f64 rows, row-major (kernel.FlatPage.Data)
//
// Every field is a whole number of 8-byte words from the record start, and
// Store.Put starts every record on an 8-byte boundary, so in a mapped file
// the IDs, starts and floats are 8-aligned (see words).
const (
	headerSize    = 16
	formatVersion = 1
)

var magic = [4]byte{'P', 'M', 'J', 'P'}

// pageKind tags a record's payload encoding.
type pageKind uint16

// Kinds 1 and 2 were vector and series pages in a per-row layout. Page
// records never outlive their Store (Open truncates), so no reader for them
// is kept: they decode as unknown kinds.
const (
	kindStringPage pageKind = 3 + iota
	kindRawVectors
	kindRawSeries
	kindRawString
	kindVectorPage
	kindSeriesPage
)

// Data is an unindexed dataset, the save/load container's payload. Kind
// names the field that holds it: Vectors (rows of coordinates) for
// disk.Vectors, Series (samples) for disk.Series, String (symbols) for
// disk.Strings. The other two fields are ignored when saving and empty when
// loaded.
type Data struct {
	Kind    disk.Kind
	Vectors [][]float64
	Series  []float64
	String  []byte
}

// ErrUnsupportedPayload reports a payload the wire format has no encoding
// for: a scratch page, which holds no objects (Store.Put keeps such pages
// memory-only), or Data of no dataset kind.
var ErrUnsupportedPayload = errors.New("store: unsupported payload type")

// ErrCorruptRecord reports a record that failed structural validation:
// wrong magic, unknown version or kind, truncated payload, CRC mismatch, or
// payload bytes that do not parse back. Decoding never panics on corrupt
// input (fuzzed by FuzzPageCodecRoundTrip).
var ErrCorruptRecord = errors.New("store: corrupt record")

// EncodePage encodes one page into a complete wire record (header +
// payload). It returns ErrUnsupportedPayload for a scratch page, and an
// error for a page whose slices disagree on its object count.
func EncodePage(pg *disk.Page) ([]byte, error) {
	return seal(encodePage(pg))
}

// encodeData encodes one raw dataset into a complete wire record, or
// returns ErrUnsupportedPayload for Data of no dataset kind.
func encodeData(data Data) ([]byte, error) {
	return seal(encodeRaw(data))
}

// seal writes the header of rec, whose payload follows headerSize bytes
// left for it.
func seal(kind pageKind, rec []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	body := rec[headerSize:]
	if len(body) > math.MaxUint32 {
		return nil, fmt.Errorf("store: payload of %d bytes exceeds the record size limit", len(body))
	}
	copy(rec[0:4], magic[:])
	binary.LittleEndian.PutUint16(rec[4:6], formatVersion)
	binary.LittleEndian.PutUint16(rec[6:8], uint16(kind))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[12:16], crc32.ChecksumIEEE(body))
	return rec, nil
}

// parseHeader validates a record header and returns its kind and payload
// length. b must hold at least headerSize bytes.
func parseHeader(b []byte) (kind pageKind, payloadLen uint32, crc uint32, err error) {
	if len(b) < headerSize {
		return 0, 0, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorruptRecord, len(b))
	}
	if [4]byte(b[0:4]) != magic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic %q", ErrCorruptRecord, b[0:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != formatVersion {
		return 0, 0, 0, fmt.Errorf("%w: unknown format version %d", ErrCorruptRecord, v)
	}
	kind = pageKind(binary.LittleEndian.Uint16(b[6:8]))
	if kind < kindStringPage || kind > kindSeriesPage {
		return 0, 0, 0, fmt.Errorf("%w: unknown payload kind %d", ErrCorruptRecord, kind)
	}
	return kind, binary.LittleEndian.Uint32(b[8:12]), binary.LittleEndian.Uint32(b[12:16]), nil
}

// DecodePage decodes one complete page record (as produced by EncodePage).
// Corrupt or truncated input, and a raw dataset record, return
// ErrCorruptRecord — never a panic. A vector or series page aliases rec: its
// IDs, starts and flat block view rec's bytes wherever words can, so rec must
// outlive the page and never change.
func DecodePage(rec []byte) (*disk.Page, error) {
	kind, body, err := record(rec)
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindVectorPage, kindSeriesPage:
		return decodeFlat(kind, body)
	case kindStringPage:
		return decodeStrings(body)
	}
	return nil, fmt.Errorf("%w: kind %d is not a page record", ErrCorruptRecord, kind)
}

// record validates one complete wire record — header, length and CRC — and
// returns its kind and payload.
func record(rec []byte) (pageKind, []byte, error) {
	kind, plen, crc, err := parseHeader(rec)
	if err != nil {
		return 0, nil, err
	}
	if uint64(len(rec)) != headerSize+uint64(plen) {
		return 0, nil, fmt.Errorf("%w: record is %d bytes, header says %d", ErrCorruptRecord, len(rec), headerSize+plen)
	}
	body := rec[headerSize:]
	if crc32.ChecksumIEEE(body) != crc {
		return 0, nil, fmt.Errorf("%w: CRC mismatch", ErrCorruptRecord)
	}
	return kind, body, nil
}

// encoder appends the fixed-width primitives of the format.
type encoder struct{ b []byte }

func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// i64 encodes a Go int as two's-complement u64, so negative IDs round-trip.
func (e *encoder) i64(v int) { e.u64(uint64(int64(v))) }

// f64 encodes a float through its exact bit pattern: NaNs, signed zeros and
// subnormals round-trip bit-identically, which is what keeps comparison
// results backend-independent.
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) floats(vs []float64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.f64(v)
	}
}

// decoder consumes the primitives with saturating error state: after the
// first short read every accessor returns zero, and the caller checks err
// once at the end. Count fields are validated against the bytes that could
// possibly back them before any allocation, so corrupt input cannot force
// huge allocations.
type decoder struct {
	b   []byte
	off int
	bad bool
}

func (d *decoder) fail() { d.bad = true }

func (d *decoder) u32() uint32 {
	if d.bad || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.bad || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int     { return int(int64(d.u64())) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a u32 element count and rejects it unless the remaining bytes
// can hold n elements of at least minBytes each.
func (d *decoder) count(minBytes int) int {
	n := int(d.u32())
	if d.bad {
		return 0
	}
	if n < 0 || (minBytes > 0 && n > (len(d.b)-d.off)/minBytes) {
		d.fail()
		return 0
	}
	return n
}

func (d *decoder) floats() []float64 {
	n := d.count(8)
	if d.bad {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *decoder) bytes() []byte {
	n := d.count(1)
	if d.bad || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:d.off+n])
	d.off += n
	return out
}

// done reports whether the decoder consumed the payload exactly.
func (d *decoder) done() bool { return !d.bad && d.off == len(d.b) }

// encodePage serializes one page after headerSize bytes left for the
// header, returning its kind tag and the record.
func encodePage(pg *disk.Page) (pageKind, []byte, error) {
	n := len(pg.IDs)
	switch pg.Kind {
	case disk.Vectors:
		rec, err := encodeFlat(pg.IDs, nil, &pg.Flat)
		return kindVectorPage, rec, err
	case disk.Series:
		if len(pg.Starts) != n {
			return 0, nil, fmt.Errorf("store: series page with %d ids but %d starts", n, len(pg.Starts))
		}
		rec, err := encodeFlat(pg.IDs, pg.Starts, &pg.Flat)
		return kindSeriesPage, rec, err
	case disk.Strings:
		if len(pg.Starts) != n || len(pg.Windows) != n || len(pg.Freqs) != n {
			return 0, nil, fmt.Errorf("store: string page with mismatched row slices")
		}
		// u32 n, then per row: i64 id, i64 start, u32 wlen + bytes,
		// u32 flen, flen×i64 frequencies.
		e := encoder{b: make([]byte, headerSize)}
		e.u32(uint32(n))
		for i, id := range pg.IDs {
			e.i64(id)
			e.i64(pg.Starts[i])
			w := pg.Windows[i]
			e.u32(uint32(len(w)))
			e.b = append(e.b, w...)
			fr := pg.Freqs[i]
			e.u32(uint32(len(fr)))
			for _, f := range fr {
				e.i64(f)
			}
		}
		return kindStringPage, e.b, nil
	}
	return 0, nil, fmt.Errorf("%w: %v page", ErrUnsupportedPayload, pg.Kind)
}

// encodeRaw serializes one raw dataset after headerSize bytes left for the
// header, returning its kind tag and the record.
func encodeRaw(data Data) (pageKind, []byte, error) {
	e := encoder{b: make([]byte, headerSize)}
	switch data.Kind {
	case disk.Vectors:
		e.u32(uint32(len(data.Vectors)))
		for _, row := range data.Vectors {
			e.floats(row)
		}
		return kindRawVectors, e.b, nil
	case disk.Series:
		e.floats(data.Series)
		return kindRawSeries, e.b, nil
	case disk.Strings:
		e.u32(uint32(len(data.String)))
		e.b = append(e.b, data.String...)
		return kindRawString, e.b, nil
	}
	return 0, nil, fmt.Errorf("%w: %v data", ErrUnsupportedPayload, data.Kind)
}

// encodeFlat lays out a vector page (starts nil) or a series page in the
// flat layout, after headerSize bytes left for the header. The block must
// hold exactly one row per id; an empty page is written with width 0.
func encodeFlat(ids, starts []int, f *kernel.FlatPage) ([]byte, error) {
	if f.N != len(ids) || len(f.Data) != f.N*f.Dim {
		return nil, fmt.Errorf("store: page of %d ids over a block of %d rows (%d values, dim %d)", len(ids), f.N, len(f.Data), f.Dim)
	}
	width := 0
	if f.N > 0 {
		width = f.Dim
	}
	e := encoder{b: make([]byte, headerSize, headerSize+8*(1+len(ids)+len(starts)+len(f.Data)))}
	e.u32(uint32(len(ids)))
	e.u32(uint32(width))
	for _, id := range ids {
		e.i64(id)
	}
	for _, s := range starts {
		e.i64(s)
	}
	for _, v := range f.Data {
		e.f64(v)
	}
	return e.b, nil
}

// decodeData decodes one complete raw dataset record (as produced by
// encodeData). Corrupt input, and a page record, return ErrCorruptRecord.
func decodeData(rec []byte) (Data, error) {
	kind, body, err := record(rec)
	if err != nil {
		return Data{}, err
	}
	d := &decoder{b: body}
	var out Data
	switch kind {
	case kindRawVectors:
		n := d.count(4) // a length word per row, minimum
		out = Data{Kind: disk.Vectors, Vectors: make([][]float64, 0, n)}
		for i := 0; i < n && !d.bad; i++ {
			out.Vectors = append(out.Vectors, d.floats())
		}
	case kindRawSeries:
		out = Data{Kind: disk.Series, Series: d.floats()}
	case kindRawString:
		out = Data{Kind: disk.Strings, String: d.bytes()}
	default:
		return Data{}, fmt.Errorf("%w: kind %d is not a dataset record", ErrCorruptRecord, kind)
	}
	if !d.done() {
		return Data{}, fmt.Errorf("%w: payload does not parse (kind %d)", ErrCorruptRecord, kind)
	}
	return out, nil
}

// decodeStrings parses a string page body.
func decodeStrings(body []byte) (*disk.Page, error) {
	d := &decoder{b: body}
	n := d.count(24) // id + start + two len counts per row, minimum
	p := &disk.Page{Kind: disk.Strings, IDs: make([]int, 0, n), Starts: make([]int, 0, n), Windows: make([][]byte, 0, n), Freqs: make([][]int, 0, n)}
	for i := 0; i < n && !d.bad; i++ {
		p.IDs = append(p.IDs, d.i64())
		p.Starts = append(p.Starts, d.i64())
		p.Windows = append(p.Windows, d.bytes())
		fn := d.count(8)
		fr := make([]int, 0, fn)
		for k := 0; k < fn && !d.bad; k++ {
			fr = append(fr, d.i64())
		}
		p.Freqs = append(p.Freqs, fr)
	}
	if !d.done() {
		return nil, fmt.Errorf("%w: payload does not parse (kind %d)", ErrCorruptRecord, kindStringPage)
	}
	return p, nil
}

// decodeFlat builds a vector or series page over a flat-layout body. The
// shape is checked against the body length before anything is allocated,
// and an empty page must have width 0 (the one encoding of it).
func decodeFlat(kind pageKind, body []byte) (*disk.Page, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("%w: page payload of %d bytes has no shape", ErrCorruptRecord, len(body))
	}
	n := uint64(binary.LittleEndian.Uint32(body[0:4]))
	width := uint64(binary.LittleEndian.Uint32(body[4:8]))
	cols := uint64(1) // IDs
	if kind == kindSeriesPage {
		cols = 2 // IDs and starts
	}
	bodyWords := uint64(len(body)-8) / 8
	switch {
	case n == 0 && width != 0:
		return nil, fmt.Errorf("%w: empty page of width %d", ErrCorruptRecord, width)
	case width != 0 && n > bodyWords/width:
		return nil, fmt.Errorf("%w: %d rows of width %d exceed the payload", ErrCorruptRecord, n, width)
	case uint64(len(body)) != 8+8*(cols*n+n*width):
		return nil, fmt.Errorf("%w: %d-byte payload for %d rows of width %d", ErrCorruptRecord, len(body), n, width)
	}
	rest := body[8:]
	pg := &disk.Page{Kind: disk.Vectors, IDs: words(rest[:8*n], wordInt), Flat: kernel.FlatPage{Dim: int(width), N: int(n)}}
	rest = rest[8*n:]
	if kind == kindSeriesPage {
		pg.Kind = disk.Series
		pg.Starts = words(rest[:8*n], wordInt)
		rest = rest[8*n:]
	}
	pg.Flat.Data = words(rest, math.Float64frombits)
	return pg, nil
}

// wordInt reads a two's-complement word as an int (see encoder.i64).
func wordInt(u uint64) int { return int(int64(u)) }

// nativeWords reports whether this host's int and float64 are the format's
// 8-byte little-endian words, so record bytes can be viewed in place.
var nativeWords = math.MaxInt == math.MaxInt64 && binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// words returns b's 8-byte little-endian words as a []T. On a native-word
// host with b 8-aligned the result is a view of b; otherwise — a misaligned
// buffer, a fuzz input, another host — it is a decoded copy, through conv.
// Both read the same values bit for bit. This is the package's one use of
// unsafe; T holds no pointers, so the view hides none from the garbage
// collector.
func words[T int | float64](b []byte, conv func(uint64) T) []T {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if p := unsafe.Pointer(unsafe.SliceData(b)); nativeWords && uintptr(p)%8 == 0 {
		return unsafe.Slice((*T)(p), n)
	}
	out := make([]T, n)
	for i := range out {
		out[i] = conv(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
