package store

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/kernel"
)

// vectorPage returns the vector page whose object ids[i] is vecs[i].
func vectorPage(ids []int, vecs []geom.Vector) *disk.Page {
	return &disk.Page{Kind: disk.Vectors, IDs: ids, Flat: kernel.FlatOf(vecs)}
}

// sampleVectorPage exercises negative IDs and every special float class the
// format promises to round-trip bit-exactly.
func sampleVectorPage() *disk.Page {
	return vectorPage([]int{0, -7, 1 << 40}, []geom.Vector{
		{1.5, -2.25, 0},
		{math.NaN(), math.Inf(1), math.Inf(-1)},
		{math.Copysign(0, -1), 5e-324, math.MaxFloat64},
	})
}

func sampleSeriesPage() *disk.Page {
	return &disk.Page{Kind: disk.Series, IDs: []int{3, 4}, Starts: []int{0, -128},
		Flat: kernel.FlatOf([][]float64{{0.5, 1.5, 2.5}, {math.NaN(), math.Copysign(0, -1), -7}})}
}

func sampleStringPage() *disk.Page {
	return &disk.Page{
		Kind:    disk.Strings,
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

// eqPage reports whether two pages hold the same objects, floats bit for
// bit; an empty block's width does not count.
func eqPage(a, b *disk.Page) bool {
	if a.Kind != b.Kind || !eqInts(a.IDs, b.IDs) || !eqInts(a.Starts, b.Starts) ||
		a.Flat.N != b.Flat.N || !eqFloats(a.Flat.Data, b.Flat.Data) || (a.Flat.N > 0 && a.Flat.Dim != b.Flat.Dim) ||
		len(a.Windows) != len(b.Windows) || len(a.Freqs) != len(b.Freqs) {
		return false
	}
	for i := range a.Windows {
		if string(a.Windows[i]) != string(b.Windows[i]) {
			return false
		}
	}
	for i := range a.Freqs {
		if !eqInts(a.Freqs[i], b.Freqs[i]) {
			return false
		}
	}
	return true
}

// roundTrip encodes pg and decodes it back, failing the test on error.
func roundTrip(t *testing.T, pg *disk.Page) *disk.Page {
	t.Helper()
	rec, err := EncodePage(pg)
	if err != nil {
		t.Fatalf("EncodePage(%v page): %v", pg.Kind, err)
	}
	got, err := DecodePage(rec)
	if err != nil {
		t.Fatalf("DecodePage(%v record): %v", pg.Kind, err)
	}
	return got
}

// roundTripData is roundTrip for a raw dataset.
func roundTripData(t *testing.T, data Data) Data {
	t.Helper()
	rec, err := encodeData(data)
	if err != nil {
		t.Fatalf("encodeData(%v): %v", data.Kind, err)
	}
	got, err := decodeData(rec)
	if err != nil {
		t.Fatalf("decodeData(%v record): %v", data.Kind, err)
	}
	return got
}

// eqData compares two datasets bit for bit (NaN equal to NaN, -0 not equal
// to 0).
func eqData(a, b Data) bool {
	if a.Kind != b.Kind || len(a.Vectors) != len(b.Vectors) || !eqFloats(a.Series, b.Series) || string(a.String) != string(b.String) {
		return false
	}
	for i := range a.Vectors {
		if !eqFloats(a.Vectors[i], b.Vectors[i]) {
			return false
		}
	}
	return true
}

func TestCodecRoundTripVectorPage(t *testing.T) {
	if want, got := sampleVectorPage(), roundTrip(t, sampleVectorPage()); !eqPage(got, want) {
		t.Errorf("round trip = %+v, want bit-identical %+v", got, want)
	}
}

func TestCodecRoundTripSeriesPage(t *testing.T) {
	if want, got := sampleSeriesPage(), roundTrip(t, sampleSeriesPage()); !eqPage(got, want) {
		t.Errorf("round trip = %+v, want bit-identical %+v", got, want)
	}
}

func TestCodecRoundTripStringPage(t *testing.T) {
	if want, got := sampleStringPage(), roundTrip(t, sampleStringPage()); !eqPage(got, want) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

// TestDecodeParentPageRecords decodes one vector, one series and one string
// page record as the encoder wrote them before pages had one type: the
// wire format is unchanged, so each decodes to the sample page it was
// written from, and today's encoder writes the same bytes.
func TestDecodeParentPageRecords(t *testing.T) {
	for _, tc := range []struct {
		hex  string
		want *disk.Page
	}{
		{
			"504d4a50010007006800000036eed74a03000000030000000000000000000000f9ffffffffffffff0000000000010000000000000000f83f00000000000002c00000000000000000010000000000f87f000000000000f07f000000000000f0ff00000000000000800100000000000000ffffffffffffef7f",
			sampleVectorPage(),
		},
		{
			"504d4a5001000800580000007295c857020000000300000003000000000000000400000000000000000000000000000080ffffffffffffff000000000000e03f000000000000f83f0000000000000440010000000000f87f00000000000000800000000000001cc0",
			sampleSeriesPage(),
		},
		{
			"504d4a5001000300520000006d5d96b30200000009000000000000000200000000000000060000006162616375730300000003000000000000000000000000000000ffffffffffffffff0a000000000000000b000000000000000000000000000000",
			sampleStringPage(),
		},
	} {
		rec, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePage(rec)
		if err != nil {
			t.Fatalf("DecodePage(%v record): %v", tc.want.Kind, err)
		}
		if !eqPage(got, tc.want) {
			t.Errorf("DecodePage(%v record) = %+v, want %+v", tc.want.Kind, got, tc.want)
		}
		if again, err := EncodePage(tc.want); err != nil || string(again) != string(rec) {
			t.Errorf("EncodePage(%v page) = %x (err %v), want the parent's bytes %x", tc.want.Kind, again, err, rec)
		}
	}
}

func TestCodecRoundTripRawPayloads(t *testing.T) {
	for _, want := range []Data{
		{Kind: disk.Vectors, Vectors: [][]float64{{1, 2}, {}, {-3.5}}},
		{Kind: disk.Series, Series: []float64{0.25, math.NaN(), -1}},
		{Kind: disk.Strings, String: []byte("hello\x00world")},
	} {
		if got := roundTripData(t, want); !eqData(got, want) {
			t.Errorf("%v round-trip = %+v, want %+v", want.Kind, got, want)
		}
	}
	// Saving writes the kind's field only.
	if got := roundTripData(t, Data{Kind: disk.Series, Series: []float64{1}, Vectors: [][]float64{{2}}, String: []byte("x")}); !eqData(got, Data{Kind: disk.Series, Series: []float64{1}}) {
		t.Errorf("series round-trip kept another kind's field: %+v", got)
	}
}

func TestCodecRoundTripEmptyPages(t *testing.T) {
	for _, pg := range []*disk.Page{
		{Kind: disk.Vectors}, {Kind: disk.Series}, {Kind: disk.Strings},
		// An empty block of nonzero width is written with width 0.
		{Kind: disk.Vectors, Flat: *kernel.NewFlatPage(3, 0)},
	} {
		if got := roundTrip(t, pg); !eqPage(got, pg) {
			t.Errorf("empty %v page round trip = %+v", pg.Kind, got)
		}
	}
	for _, kind := range []disk.Kind{disk.Vectors, disk.Series, disk.Strings} {
		roundTripData(t, Data{Kind: kind})
	}
}

func TestEncodeUnsupportedPayload(t *testing.T) {
	for _, pg := range []*disk.Page{{}, {Kind: 9, IDs: []int{1}}} {
		if _, err := EncodePage(pg); !errors.Is(err, ErrUnsupportedPayload) {
			t.Errorf("EncodePage(%v page) err = %v, want ErrUnsupportedPayload", pg.Kind, err)
		}
	}
	for _, data := range []Data{{}, {Kind: disk.Scratch, Series: []float64{1}}, {Kind: 9, String: []byte("x")}} {
		if _, err := encodeData(data); !errors.Is(err, ErrUnsupportedPayload) {
			t.Errorf("encodeData(%v) err = %v, want ErrUnsupportedPayload", data.Kind, err)
		}
	}
}

func TestEncodeMismatchedPageSlices(t *testing.T) {
	cases := []*disk.Page{
		{Kind: disk.Vectors, IDs: []int{1, 2}, Flat: kernel.FlatOf([]geom.Vector{{1}})},
		{Kind: disk.Series, IDs: []int{1}, Starts: []int{0, 1}, Flat: kernel.FlatOf([][]float64{{1}})},
		{Kind: disk.Strings, IDs: []int{1}, Starts: []int{0}, Windows: [][]byte{[]byte("a")}, Freqs: nil},
		// A block whose values are not its rows × its width.
		{Kind: disk.Vectors, IDs: []int{1, 2}, Flat: kernel.FlatPage{Dim: 2, N: 2, Data: []float64{1, 2, 3}}},
		{Kind: disk.Series, IDs: []int{1, 2}, Starts: []int{0, 1}, Flat: kernel.FlatPage{Dim: 1, N: 2, Data: []float64{1}}},
	}
	for _, pg := range cases {
		if _, err := EncodePage(pg); err == nil || errors.Is(err, ErrUnsupportedPayload) {
			t.Errorf("EncodePage(%v page with mismatched slices) err = %v, want an encode error", pg.Kind, err)
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
	rec, err := EncodePage(sampleVectorPage())
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
		// A dataset container is not a page.
		"raw dataset record": frame(kindRawString, []byte{0, 0, 0, 0}),
	}
	for name, bad := range cases {
		if _, err := DecodePage(bad); !errors.Is(err, ErrCorruptRecord) {
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
	} {
		if _, err := DecodePage(rec); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("err = %v, want ErrCorruptRecord", err)
		}
	}
	if _, err := decodeData(frame(kindRawVectors, binary.LittleEndian.AppendUint32(nil, 0xffffffff))); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("err = %v, want ErrCorruptRecord", err)
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
	rec, err := EncodePage(want)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(rec)+16)
	base := int(-dataAddr(buf) & 7) // buf[base] is 8-aligned
	for k := 0; k < 8; k++ {
		in := buf[base+k : base+k+len(rec)]
		copy(in, rec)
		got, err := DecodePage(in)
		if err != nil {
			t.Fatalf("offset %d: %v", k, err)
		}
		if !eqPage(got, want) {
			t.Errorf("offset %d: page = %+v, want bit-identical %+v", k, got, want)
		}
		views := k == 0 && nativeWords
		for name, addr := range map[string]uintptr{
			"IDs": dataAddr(got.IDs), "Starts": dataAddr(got.Starts), "Data": dataAddr(got.Flat.Data),
		} {
			if within(addr, in) != views {
				t.Errorf("offset %d: %s aliases the record = %v, want %v", k, name, !views, views)
			}
		}
	}
}

// FuzzPageCodecRoundTrip is the codec's safety net: DecodePage and
// decodeData must never panic on arbitrary input, and any input one of them
// accepts must re-encode to the identical bytes (the format is canonical:
// decode ∘ encode = id on valid records).
func FuzzPageCodecRoundTrip(f *testing.F) {
	seed := func(rec []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return rec
	}
	var recs [][]byte
	for _, pg := range []*disk.Page{
		sampleVectorPage(), sampleSeriesPage(), sampleStringPage(),
		{Kind: disk.Vectors}, {Kind: disk.Strings},
	} {
		recs = append(recs, seed(EncodePage(pg)))
	}
	for _, data := range []Data{
		{Kind: disk.Vectors, Vectors: [][]float64{{1, 2, 3}}},
		{Kind: disk.Series, Series: []float64{4, 5}},
		{Kind: disk.Strings, String: []byte("seed")},
	} {
		recs = append(recs, seed(encodeData(data)))
	}
	for _, rec := range recs {
		f.Add(rec)
		f.Add(corrupt(rec, len(rec)/2, 0x80))
	}
	f.Add([]byte{})
	f.Add([]byte("PMJP"))
	for _, pg := range []*disk.Page{
		{Kind: disk.Series},
		{Kind: disk.Vectors, IDs: []int{5, 6}, Flat: kernel.FlatOf([]geom.Vector{{}, {}})},
		{Kind: disk.Series, IDs: []int{1}, Starts: []int{9}, Flat: kernel.FlatOf([][]float64{{-1, 2}})},
	} {
		rec := seed(EncodePage(pg))
		f.Add(rec)
		f.Add(rec[:len(rec)-8])
	}
	f.Add(frame(kindVectorPage, shape(0xffffffff, 0xffffffff, 1)))
	f.Add(frame(1, shape(1, 1, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		pg, err := DecodePage(data)
		// The same bytes at an odd offset decode through the copy path and
		// must agree with the (possibly viewing) decode above.
		odd := make([]byte, len(data)+1)
		copy(odd[1:], data)
		oddPg, oddErr := DecodePage(odd[1:])
		if (err == nil) != (oddErr == nil) {
			t.Fatalf("decode at an odd offset disagrees: err %v, odd err %v", err, oddErr)
		}
		raw, rawErr := decodeData(data)
		for _, e := range []error{err, rawErr} {
			if e != nil && !errors.Is(e, ErrCorruptRecord) {
				t.Fatalf("decode error is not ErrCorruptRecord: %v", e)
			}
		}
		var again [][]byte
		switch {
		case err == nil && rawErr == nil:
			t.Fatal("one record decoded as both a page and a dataset")
		case err == nil:
			for _, p := range []*disk.Page{pg, oddPg} {
				rec, err := EncodePage(p)
				if err != nil {
					t.Fatalf("accepted page failed to re-encode: %v", err)
				}
				again = append(again, rec)
			}
		case rawErr == nil:
			rec, err := encodeData(raw)
			if err != nil {
				t.Fatalf("accepted dataset failed to re-encode: %v", err)
			}
			again = append(again, rec)
		}
		for _, rec := range again {
			if string(rec) != string(data) {
				t.Fatalf("re-encode is not canonical:\n in: %x\nout: %x", data, rec)
			}
		}
	})
}
