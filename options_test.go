package pmjoin

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"pmjoin/internal/predmat"
)

func TestOptionsValidateDefaults(t *testing.T) {
	o := Options{Method: SC, Epsilon: 0.1, BufferPages: 8}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.MaxPairs != 100000 {
		t.Errorf("MaxPairs = %d, want 100000", o.MaxPairs)
	}
	if o.Parallelism != runtime.GOMAXPROCS(0) {
		t.Errorf("Parallelism = %d, want GOMAXPROCS %d", o.Parallelism, runtime.GOMAXPROCS(0))
	}
	if o.ClusterRowFraction != 0.5 {
		t.Errorf("ClusterRowFraction = %g, want 0.5", o.ClusterRowFraction)
	}
	if o.HistogramBins != 100 {
		t.Errorf("HistogramBins = %d, want 100", o.HistogramBins)
	}
	if o.FilterDepth != predmat.DefaultFilterDepth {
		t.Errorf("FilterDepth = %d, want %d", o.FilterDepth, predmat.DefaultFilterDepth)
	}
	// A negative depth is kept: it means no filter, not the default.
	if off := (Options{Method: SC, Epsilon: 0.1, BufferPages: 8, FilterDepth: -1}); off.Validate() != nil || off.FilterDepth != -1 {
		t.Errorf("FilterDepth -1 validated to %d, want -1 kept", off.FilterDepth)
	}
	// Idempotent: a second Validate must not change anything.
	before := o
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o != before {
		t.Errorf("Validate not idempotent: %+v vs %+v", o, before)
	}
}

func TestOptionsValidateRejects(t *testing.T) {
	base := Options{Method: SC, Epsilon: 0.1, BufferPages: 8}
	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"unknown method", func(o *Options) { o.Method = Method(99) }},
		{"tiny buffer", func(o *Options) { o.BufferPages = 3 }},
		{"negative epsilon", func(o *Options) { o.Epsilon = -1 }},
		{"NaN epsilon", func(o *Options) { o.Epsilon = math.NaN() }},
		{"unknown policy", func(o *Options) { o.Policy = ReplacementPolicy(7) }},
		{"negative parallelism", func(o *Options) { o.Parallelism = -2 }},
		{"negative MaxPairs", func(o *Options) { o.MaxPairs = -1 }},
		{"row fraction 1", func(o *Options) { o.ClusterRowFraction = 1 }},
		{"negative histogram bins", func(o *Options) { o.HistogramBins = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			tc.mut(&o)
			if err := o.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", o)
			}
		})
	}
}

// TestJoinRejectsNegativeMaxPairs is the bugfix regression test: a negative
// MaxPairs used to silently collect nothing; it is now rejected up front.
func TestJoinRejectsNegativeMaxPairs(t *testing.T) {
	sys, da, db := smallVecSystem(t)
	_, err := sys.Join(da, db, Options{
		Method: NLJ, Epsilon: 0.1, BufferPages: 8, CollectPairs: true, MaxPairs: -1,
	})
	if err == nil {
		t.Fatal("negative MaxPairs accepted")
	}
}

func TestEnumTextRoundTrip(t *testing.T) {
	for m := NLJ; m <= BFRJ; m++ {
		text, err := m.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Method
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Errorf("method %v round-tripped to %v", m, back)
		}
	}
	for k := KindVector; k <= KindString; k++ {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	for p := LRU; p <= FIFO; p++ {
		text, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back ReplacementPolicy
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back != p {
			t.Errorf("policy %v round-tripped to %v", p, back)
		}
	}
	if _, err := Method(99).MarshalText(); err == nil {
		t.Error("unknown method marshaled")
	}
	if _, err := Kind(99).MarshalText(); err == nil {
		t.Error("unknown kind marshaled")
	}
	if _, err := ReplacementPolicy(99).MarshalText(); err == nil {
		t.Error("unknown policy marshaled")
	}
}

func TestParseEnumSpellings(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Method
	}{
		{"pm-NLJ", PMNLJ}, {"pmnlj", PMNLJ}, {"PM_NLJ", PMNLJ},
		{"random-SC", RandomSC}, {"randomsc", RandomSC}, {"Random_SC", RandomSC},
		{" sc ", SC}, {"CC", CC}, {"ego", EGO}, {"bfrj", BFRJ},
	} {
		got, err := ParseMethod(tc.in)
		if err != nil {
			t.Errorf("ParseMethod(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseMethod(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("unknown method parsed")
	}
	if k, err := ParseKind("Series"); err != nil || k != KindSeries {
		t.Errorf("ParseKind(Series) = %v, %v", k, err)
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("unknown kind parsed")
	}
	if p, err := ParseReplacementPolicy("fifo"); err != nil || p != FIFO {
		t.Errorf("ParseReplacementPolicy(fifo) = %v, %v", p, err)
	}
	if _, err := ParseReplacementPolicy("nope"); err == nil {
		t.Error("unknown policy parsed")
	}
}

// TestFlagTextVar exercises the integration the CLIs rely on: enum values
// bound with flag.TextVar parse flexible spellings and reject junk.
func TestFlagTextVar(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	m := SC
	k := KindVector
	p := LRU
	fs.TextVar(&m, "method", m, "")
	fs.TextVar(&k, "kind", k, "")
	fs.TextVar(&p, "policy", p, "")
	if err := fs.Parse([]string{"-method", "pm-nlj", "-kind", "STRING", "-policy", "Fifo"}); err != nil {
		t.Fatal(err)
	}
	if m != PMNLJ || k != KindString || p != FIFO {
		t.Fatalf("parsed %v/%v/%v", m, k, p)
	}
	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	fs2.SetOutput(discard{})
	m2 := SC
	fs2.TextVar(&m2, "method", m2, "")
	if err := fs2.Parse([]string{"-method", "bogus"}); err == nil {
		t.Fatal("bogus method accepted by flag parsing")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestEnumSpecTable pins every enum against its full canonical name table:
// String/MarshalText produce the canonical spelling for each value, Parse
// accepts case- and separator-insensitive variants, out-of-range values
// refuse to marshal (and String falls back to Type(n)), junk refuses to
// parse, and the empty string parses to the zero value exactly for the mode
// enums that treat "" as Default.
func TestEnumSpecTable(t *testing.T) {
	type enum struct {
		typeName   string
		names      []string
		allowEmpty bool
		str        func(int) string
		marshal    func(int) (string, error)
		parse      func(string) (int, error)
	}
	enums := []enum{
		{"Method", []string{"NLJ", "pm-NLJ", "random-SC", "SC", "CC", "EGO", "BFRJ"}, false,
			func(i int) string { return Method(i).String() },
			func(i int) (string, error) { b, err := Method(i).MarshalText(); return string(b), err },
			func(s string) (int, error) { v, err := ParseMethod(s); return int(v), err }},
		{"Kind", []string{"vector", "series", "string"}, false,
			func(i int) string { return Kind(i).String() },
			func(i int) (string, error) { b, err := Kind(i).MarshalText(); return string(b), err },
			func(s string) (int, error) { v, err := ParseKind(s); return int(v), err }},
		{"ReplacementPolicy", []string{"LRU", "FIFO"}, false,
			func(i int) string { return ReplacementPolicy(i).String() },
			func(i int) (string, error) { b, err := ReplacementPolicy(i).MarshalText(); return string(b), err },
			func(s string) (int, error) { v, err := ParseReplacementPolicy(s); return int(v), err }},
		{"StorageMode", []string{"default", "sim", "file"}, true,
			func(i int) string { return StorageMode(i).String() },
			func(i int) (string, error) { b, err := StorageMode(i).MarshalText(); return string(b), err },
			func(s string) (int, error) { v, err := ParseStorageMode(s); return int(v), err }},
	}
	for _, e := range enums {
		t.Run(e.typeName, func(t *testing.T) {
			for i, name := range e.names {
				if got := e.str(i); got != name {
					t.Errorf("String(%d) = %q, want %q", i, got, name)
				}
				got, err := e.marshal(i)
				if err != nil || got != name {
					t.Errorf("MarshalText(%d) = %q, %v, want %q", i, got, err, name)
				}
				for _, sp := range []string{
					name,
					strings.ToUpper(name),
					strings.ToLower(name),
					strings.ReplaceAll(name, "-", "_"),
					" " + name + " ",
				} {
					v, err := e.parse(sp)
					if err != nil || v != i {
						t.Errorf("parse(%q) = %d, %v, want %d", sp, v, err, i)
					}
				}
			}
			for _, bad := range []int{-1, len(e.names)} {
				if _, err := e.marshal(bad); err == nil {
					t.Errorf("MarshalText(%d) succeeded for out-of-range value", bad)
				}
			}
			if got, want := e.str(len(e.names)), fmt.Sprintf("%s(%d)", e.typeName, len(e.names)); got != want {
				t.Errorf("out-of-range String = %q, want %q", got, want)
			}
			if _, err := e.parse("bogus"); err == nil {
				t.Error("junk parsed")
			}
			v, err := e.parse("")
			if e.allowEmpty {
				if err != nil || v != 0 {
					t.Errorf("parse(\"\") = %d, %v, want zero value", v, err)
				}
			} else if err == nil {
				t.Error("empty string parsed for an enum without an empty form")
			}
		})
	}
}

// TestOptionsValidateGrouped covers the grouped sharding sub-struct: its
// field checks and the sharding worker default.
func TestOptionsValidateGrouped(t *testing.T) {
	base := Options{Method: SC, Epsilon: 0.1, BufferPages: 8}

	t.Run("sharding workers default", func(t *testing.T) {
		o := base
		o.Sharding.Shards = 3
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
		want := 3
		if g := runtime.GOMAXPROCS(0); g < want {
			want = g
		}
		if o.Sharding.Workers != want {
			t.Errorf("Sharding.Workers = %d, want %d", o.Sharding.Workers, want)
		}
		// Idempotent across the grouped fields too.
		before := o
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
		if o != before {
			t.Errorf("Validate not idempotent: %+v vs %+v", o, before)
		}
	})

	rejects := []struct {
		name string
		mut  func(*Options)
	}{
		{"negative shards", func(o *Options) { o.Sharding.Shards = -1 }},
		{"negative shard workers", func(o *Options) { o.Sharding.Shards = 2; o.Sharding.Workers = -3 }},
		{"workers without shards", func(o *Options) { o.Sharding.Workers = 2 }},
		{"sharding an unclustered method", func(o *Options) { o.Method = NLJ; o.Sharding.Shards = 2 }},
	}
	for _, tc := range rejects {
		t.Run(tc.name, func(t *testing.T) {
			o := base
			tc.mut(&o)
			if err := o.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", o)
			}
		})
	}
}
