package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"pmjoin/internal/geom"
	"pmjoin/internal/join"
)

// sampleVectorPage exercises negative IDs and every special float class the
// format promises to round-trip bit-exactly.
func sampleVectorPage() *join.VectorPage {
	return join.VectorPageOf([]int{0, -7, 1 << 40}, []geom.Vector{
		{1.5, -2.25, 0},
		{math.NaN(), math.Inf(1), math.Inf(-1)},
		{math.Copysign(0, -1), 5e-324, math.MaxFloat64},
	})
}

func sampleSeriesPage() *join.SeriesPage {
	return join.SeriesPageOf([]int{3, 4}, []int{0, -128},
		[][]float64{{0.5, 1.5, 2.5}, {math.NaN(), math.Copysign(0, -1), -7}})
}

func sampleStringPage() *join.StringPage {
	return &join.StringPage{
		IDs:     []int{9, 10},
		Starts:  []int{2, 11},
		Windows: [][]byte{[]byte("abacus"), {}},
		Freqs:   [][]int{{3, 0, -1}, {}},
	}
}

func eqFloats(a, b []float64) bool {
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

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// roundTrip encodes payload and decodes it back, failing the test on error.
func roundTrip(t *testing.T, payload any) any {
	t.Helper()
	rec, err := EncodeRecord(payload)
	if err != nil {
		t.Fatalf("EncodeRecord(%T): %v", payload, err)
	}
	got, err := DecodeRecord(rec)
	if err != nil {
		t.Fatalf("DecodeRecord(%T record): %v", payload, err)
	}
	return got
}

func TestCodecRoundTripVectorPage(t *testing.T) {
	want := sampleVectorPage()
	got, ok := roundTrip(t, want).(*join.VectorPage)
	if !ok {
		t.Fatalf("decoded to %T, want *join.VectorPage", got)
	}
	if !eqInts(got.IDs, want.IDs) {
		t.Errorf("IDs = %v, want %v", got.IDs, want.IDs)
	}
	if len(got.Vecs) != len(want.Vecs) {
		t.Fatalf("len(Vecs) = %d, want %d", len(got.Vecs), len(want.Vecs))
	}
	for i := range want.Vecs {
		if !eqFloats(got.Vecs[i], want.Vecs[i]) {
			t.Errorf("Vecs[%d] = %v, want bit-identical %v", i, got.Vecs[i], want.Vecs[i])
		}
	}
}

func TestCodecRoundTripSeriesPage(t *testing.T) {
	want := sampleSeriesPage()
	got, ok := roundTrip(t, want).(*join.SeriesPage)
	if !ok {
		t.Fatalf("decoded to %T, want *join.SeriesPage", got)
	}
	if !eqInts(got.IDs, want.IDs) || !eqInts(got.Starts, want.Starts) {
		t.Errorf("IDs/Starts = %v/%v, want %v/%v", got.IDs, got.Starts, want.IDs, want.Starts)
	}
	if len(got.Windows) != len(want.Windows) {
		t.Fatalf("len(Windows) = %d, want %d", len(got.Windows), len(want.Windows))
	}
	for i := range want.Windows {
		if !eqFloats(got.Windows[i], want.Windows[i]) {
			t.Errorf("Windows[%d] = %v, want %v", i, got.Windows[i], want.Windows[i])
		}
	}
}

func TestCodecRoundTripStringPage(t *testing.T) {
	want := sampleStringPage()
	got, ok := roundTrip(t, want).(*join.StringPage)
	if !ok {
		t.Fatalf("decoded to %T, want *join.StringPage", got)
	}
	if !eqInts(got.IDs, want.IDs) || !eqInts(got.Starts, want.Starts) {
		t.Errorf("IDs/Starts = %v/%v, want %v/%v", got.IDs, got.Starts, want.IDs, want.Starts)
	}
	for i := range want.Windows {
		if string(got.Windows[i]) != string(want.Windows[i]) {
			t.Errorf("Windows[%d] = %q, want %q", i, got.Windows[i], want.Windows[i])
		}
		if !eqInts(got.Freqs[i], want.Freqs[i]) {
			t.Errorf("Freqs[%d] = %v, want %v", i, got.Freqs[i], want.Freqs[i])
		}
	}
}

func TestCodecRoundTripRawPayloads(t *testing.T) {
	if got := roundTrip(t, RawVectors{{1, 2}, {}, {-3.5}}).(RawVectors); len(got) != 3 || !eqFloats(got[0], []float64{1, 2}) || !eqFloats(got[2], []float64{-3.5}) {
		t.Errorf("RawVectors round-trip = %v", got)
	}
	if got := roundTrip(t, RawSeries{0.25, math.NaN(), -1}).(RawSeries); !eqFloats(got, []float64{0.25, math.NaN(), -1}) {
		t.Errorf("RawSeries round-trip = %v", got)
	}
	if got := roundTrip(t, RawString("hello\x00world")).(RawString); string(got) != "hello\x00world" {
		t.Errorf("RawString round-trip = %q", got)
	}
}

func TestCodecRoundTripEmptyPages(t *testing.T) {
	for _, payload := range []any{
		join.VectorPageOf(nil, nil), join.SeriesPageOf(nil, nil, nil), &join.StringPage{},
		RawVectors{}, RawSeries{}, RawString{},
	} {
		roundTrip(t, payload)
	}
}

func TestEncodeUnsupportedPayload(t *testing.T) {
	for _, payload := range []any{nil, 42, "scratch", []int{1}, join.VectorPage{}} {
		if _, err := EncodeRecord(payload); !errors.Is(err, ErrUnsupportedPayload) {
			t.Errorf("EncodeRecord(%T) err = %v, want ErrUnsupportedPayload", payload, err)
		}
	}
}

func TestEncodeMismatchedPageSlices(t *testing.T) {
	// Literals: the page constructors refuse these shapes.
	cases := []any{
		&join.VectorPage{IDs: []int{1, 2}, Vecs: []geom.Vector{{1}}},
		&join.SeriesPage{IDs: []int{1}, Starts: []int{0, 1}, Windows: [][]float64{{1}}},
		&join.StringPage{IDs: []int{1}, Starts: []int{0}, Windows: [][]byte{[]byte("a")}, Freqs: nil},
		// Ragged rows: the flat layout has one width per page.
		&join.VectorPage{IDs: []int{1, 2}, Vecs: []geom.Vector{{1, 2}, {3}}},
		&join.SeriesPage{IDs: []int{1, 2}, Starts: []int{0, 1}, Windows: [][]float64{{1}, {}}},
	}
	for _, payload := range cases {
		if _, err := EncodeRecord(payload); err == nil || errors.Is(err, ErrUnsupportedPayload) {
			t.Errorf("EncodeRecord(%T with mismatched slices) err = %v, want an encode error", payload, err)
		}
	}
}

// frame wraps body in a record header of the given kind with a valid length
// and CRC, so only the body's shape can be wrong.
func frame(kind pageKind, body []byte) []byte {
	rec := make([]byte, headerSize+len(body))
	copy(rec, magic[:])
	binary.LittleEndian.PutUint16(rec[4:6], formatVersion)
	binary.LittleEndian.PutUint16(rec[6:8], uint16(kind))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[12:16], crc32.ChecksumIEEE(body))
	copy(rec[headerSize:], body)
	return rec
}

// shape returns a flat-layout body head (u32 n, u32 width) followed by
// words zero words.
func shape(n, width uint32, words int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, n)
	b = binary.LittleEndian.AppendUint32(b, width)
	return append(b, make([]byte, 8*words)...)
}

// corrupt returns a copy of rec with the byte at i xor'd by mask.
func corrupt(rec []byte, i int, mask byte) []byte {
	out := append([]byte(nil), rec...)
	out[i] ^= mask
	return out
}

func TestDecodeRejectsCorruptRecords(t *testing.T) {
	rec, err := EncodeRecord(sampleVectorPage())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"truncated header":  rec[:headerSize-1],
		"bad magic":         corrupt(rec, 0, 0xff),
		"bad version":       corrupt(rec, 4, 0xff),
		"bad kind":          corrupt(rec, 6, 0xff),
		"length mismatch":   corrupt(rec, 8, 0x01),
		"crc mismatch":      corrupt(rec, headerSize, 0x01),
		"truncated payload": rec[:len(rec)-1],
		"trailing bytes":    append(append([]byte(nil), rec...), 0),
		// Shapes that disagree with their bodies, under a valid CRC.
		"n·width overflowing":       frame(kindVectorPage, shape(0xffffffff, 0xffffffff, 4)),
		"empty page with width":     frame(kindVectorPage, shape(0, 3, 0)),
		"empty series with width":   frame(kindSeriesPage, shape(0, 1, 0)),
		"body shorter than shape":   frame(kindVectorPage, shape(2, 3, 7)),
		"body longer than shape":    frame(kindVectorPage, shape(2, 3, 9)),
		"series missing its starts": frame(kindSeriesPage, shape(2, 3, 8)),
		"no shape":                  frame(kindSeriesPage, []byte{1, 0, 0, 0}),
		// The per-row page layouts, retired with no reader kept.
		"retired vector kind": frame(1, shape(1, 1, 2)),
		"retired series kind": frame(2, shape(1, 1, 3)),
	}
	for name, bad := range cases {
		if _, err := DecodeRecord(bad); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s: err = %v, want ErrCorruptRecord", name, err)
		}
	}
}

// TestDecodeRejectsAllocationBomb feeds a structurally valid record whose
// element count claims far more rows than the payload holds: the decoder must
// reject it before allocating, not OOM.
func TestDecodeRejectsAllocationBomb(t *testing.T) {
	for _, rec := range [][]byte{
		frame(kindStringPage, binary.LittleEndian.AppendUint32(nil, 0xffffffff)),
		frame(kindVectorPage, shape(0xffffffff, 0, 0)),
		frame(kindRawVectors, binary.LittleEndian.AppendUint32(nil, 0xffffffff)),
	} {
		if _, err := DecodeRecord(rec); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("err = %v, want ErrCorruptRecord", err)
		}
	}
}

// dataAddr returns the address of a slice's first element (0 when empty).
func dataAddr[T any](s []T) uintptr {
	if len(s) == 0 {
		return 0
	}
	return reflect.ValueOf(s).Pointer()
}

// within reports whether addr lies inside b's bytes.
func within(addr uintptr, b []byte) bool {
	lo := dataAddr(b)
	return addr >= lo && addr < lo+uintptr(len(b))
}

// TestDecodeMisalignedCopies decodes one series record placed at each of the
// eight offsets of a word: every decode reads the same values bit for bit,
// the aligned one viewing its input and the misaligned ones copying.
func TestDecodeMisalignedCopies(t *testing.T) {
	want := sampleSeriesPage()
	rec, err := EncodeRecord(want)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(rec)+16)
	base := int(-dataAddr(buf) & 7) // buf[base] is 8-aligned
	for k := 0; k < 8; k++ {
		in := buf[base+k : base+k+len(rec)]
		copy(in, rec)
		payload, err := DecodeRecord(in)
		if err != nil {
			t.Fatalf("offset %d: %v", k, err)
		}
		got := payload.(*join.SeriesPage)
		if !eqInts(got.IDs, want.IDs) || !eqInts(got.Starts, want.Starts) {
			t.Errorf("offset %d: IDs/Starts = %v/%v, want %v/%v", k, got.IDs, got.Starts, want.IDs, want.Starts)
		}
		for i := range want.Windows {
			if !eqFloats(got.Windows[i], want.Windows[i]) {
				t.Errorf("offset %d: Windows[%d] = %v, want bit-identical %v", k, i, got.Windows[i], want.Windows[i])
			}
		}
		f := got.Flat()
		if dataAddr(f.Data) != dataAddr(got.Windows[0]) {
			t.Errorf("offset %d: Windows are not rows of the page's flat block", k)
		}
		views := k == 0 && nativeWords
		for name, addr := range map[string]uintptr{
			"IDs": dataAddr(got.IDs), "Starts": dataAddr(got.Starts), "Data": dataAddr(f.Data),
		} {
			if within(addr, in) != views {
				t.Errorf("offset %d: %s aliases the record = %v, want %v", k, name, !views, views)
			}
		}
	}
}

// FuzzPageCodecRoundTrip is the codec's safety net: DecodeRecord must never
// panic on arbitrary input, and any input it accepts must re-encode to the
// identical bytes (the format is canonical: decode ∘ encode = id on valid
// records).
func FuzzPageCodecRoundTrip(f *testing.F) {
	for _, payload := range []any{
		sampleVectorPage(), sampleSeriesPage(), sampleStringPage(),
		RawVectors{{1, 2, 3}}, RawSeries{4, 5}, RawString("seed"),
		join.VectorPageOf(nil, nil), &join.StringPage{},
	} {
		rec, err := EncodeRecord(payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		f.Add(corrupt(rec, len(rec)/2, 0x80))
	}
	f.Add([]byte{})
	f.Add([]byte("PMJP"))
	for _, payload := range []any{
		join.SeriesPageOf(nil, nil, nil),
		join.VectorPageOf([]int{5, 6}, []geom.Vector{{}, {}}),
		join.SeriesPageOf([]int{1}, []int{9}, [][]float64{{-1, 2}}),
	} {
		rec, err := EncodeRecord(payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		f.Add(rec[:len(rec)-8])
	}
	f.Add(frame(kindVectorPage, shape(0xffffffff, 0xffffffff, 1)))
	f.Add(frame(1, shape(1, 1, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeRecord(data)
		// The same bytes at an odd offset decode through the copy path and
		// must agree with the (possibly viewing) decode above.
		odd := make([]byte, len(data)+1)
		copy(odd[1:], data)
		oddPayload, oddErr := DecodeRecord(odd[1:])
		if (err == nil) != (oddErr == nil) {
			t.Fatalf("decode at an odd offset disagrees: err %v, odd err %v", err, oddErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("decode error is not ErrCorruptRecord: %v", err)
			}
			return
		}
		for _, p := range []any{payload, oddPayload} {
			rec, err := EncodeRecord(p)
			if err != nil {
				t.Fatalf("accepted input failed to re-encode: %v", err)
			}
			if string(rec) != string(data) {
				t.Fatalf("re-encode is not canonical:\n in: %x\nout: %x", data, rec)
			}
		}
	})
}
