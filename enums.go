package pmjoin

import (
	"fmt"
	"strings"
)

// enumSpec is the single table behind every exported enum's String /
// MarshalText / UnmarshalText / Parse quartet. Each enum used to hand-roll
// the four methods (~60 lines of switches apiece); the table keeps the
// canonical spellings in one slice per enum and derives everything — the
// round-trip forms, the normalized parse index, and the "(want ...)" hint in
// parse errors — from it, so a new value is one string in one list.
type enumSpec[T ~int] struct {
	typeName string // Go type name, for the out-of-range String form
	kind     string // error noun: "method", "kind", "replacement policy", ...
	names    []string
	hint     string // "NLJ, pm-NLJ, ... or BFRJ"
	// allowEmpty parses "" to the zero value — the mode enums treat an unset
	// flag as their Default value.
	allowEmpty bool
	byNorm     map[string]T
}

func newEnum[T ~int](typeName, kind string, names []string, allowEmpty bool) *enumSpec[T] {
	s := &enumSpec[T]{
		typeName:   typeName,
		kind:       kind,
		names:      names,
		allowEmpty: allowEmpty,
		byNorm:     make(map[string]T, len(names)),
	}
	for i, n := range names {
		s.byNorm[normalizeEnum(n)] = T(i)
	}
	s.hint = names[len(names)-1]
	if len(names) > 1 {
		s.hint = strings.Join(names[:len(names)-1], ", ") + " or " + s.hint
	}
	return s
}

// valid reports whether v is a declared value; Options.Validate's range
// checks route through this so they cannot drift from the tables.
func (s *enumSpec[T]) valid(v T) bool { return v >= 0 && int(v) < len(s.names) }

func (s *enumSpec[T]) string(v T) string {
	if !s.valid(v) {
		return fmt.Sprintf("%s(%d)", s.typeName, int(v))
	}
	return s.names[v]
}

func (s *enumSpec[T]) marshal(v T) ([]byte, error) {
	if !s.valid(v) {
		return nil, fmt.Errorf("pmjoin: unknown %s %d", s.kind, int(v))
	}
	return []byte(s.names[v]), nil
}

func (s *enumSpec[T]) parse(str string) (T, error) {
	n := normalizeEnum(str)
	if n == "" && s.allowEmpty {
		var zero T
		return zero, nil
	}
	if v, ok := s.byNorm[n]; ok {
		return v, nil
	}
	var zero T
	return zero, fmt.Errorf("pmjoin: unknown %s %q (want %s)", s.kind, str, s.hint)
}

func (s *enumSpec[T]) unmarshal(dst *T, text []byte) error {
	v, err := s.parse(string(text))
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// normalizeEnum lower-cases a name and strips the separators the canonical
// spellings use, so flag values round-trip however the user hyphenates.
func normalizeEnum(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	s = strings.ReplaceAll(s, "-", "")
	s = strings.ReplaceAll(s, "_", "")
	return s
}

// Method selects the join algorithm.
type Method int

const (
	// NLJ is block nested loop join (the no-information baseline, §2.1).
	NLJ Method = iota
	// PMNLJ restricts NLJ to the marked prediction-matrix entries (§6).
	PMNLJ
	// RandomSC is square clustering with clusters processed in random
	// order (isolates the scheduling optimization, §9.1).
	RandomSC
	// SC is square clustering with greedy sharing-graph scheduling — the
	// paper's primary technique (§7.1, §8).
	SC
	// CC is cost-based clustering with greedy scheduling, the approximate
	// I/O lower bound (§7.2).
	CC
	// EGO is the epsilon grid ordering join baseline (§9).
	EGO
	// BFRJ is the breadth-first R-tree join baseline (§9).
	BFRJ
)

var methodSpec = newEnum[Method]("Method", "method",
	[]string{"NLJ", "pm-NLJ", "random-SC", "SC", "CC", "EGO", "BFRJ"}, false)

func (m Method) String() string { return methodSpec.string(m) }

// MarshalText implements encoding.TextMarshaler; the text form is the
// canonical name ("SC", "pm-NLJ", ...).
func (m Method) MarshalText() ([]byte, error) { return methodSpec.marshal(m) }

// UnmarshalText implements encoding.TextUnmarshaler; see ParseMethod.
func (m *Method) UnmarshalText(text []byte) error { return methodSpec.unmarshal(m, text) }

// ParseMethod parses a method name. Matching is case-insensitive and
// ignores hyphens, so "pm-NLJ", "pmnlj" and "PM-nlj" all parse to PMNLJ.
func ParseMethod(s string) (Method, error) { return methodSpec.parse(s) }

var kindSpec = newEnum[Kind]("Kind", "kind",
	[]string{"vector", "series", "string"}, false)

func (k Kind) String() string { return kindSpec.string(k) }

// MarshalText implements encoding.TextMarshaler; the text form is the
// canonical name ("vector", "series", "string").
func (k Kind) MarshalText() ([]byte, error) { return kindSpec.marshal(k) }

// UnmarshalText implements encoding.TextUnmarshaler; see ParseKind.
func (k *Kind) UnmarshalText(text []byte) error { return kindSpec.unmarshal(k, text) }

// ParseKind parses a data-kind name (case-insensitive).
func ParseKind(s string) (Kind, error) { return kindSpec.parse(s) }

// ReplacementPolicy selects the buffer replacement policy.
type ReplacementPolicy int

const (
	// LRU is the paper's default policy.
	LRU ReplacementPolicy = iota
	// FIFO is provided for the replacement ablation.
	FIFO
)

var policySpec = newEnum[ReplacementPolicy]("ReplacementPolicy", "replacement policy",
	[]string{"LRU", "FIFO"}, false)

func (p ReplacementPolicy) String() string { return policySpec.string(p) }

// MarshalText implements encoding.TextMarshaler.
func (p ReplacementPolicy) MarshalText() ([]byte, error) { return policySpec.marshal(p) }

// UnmarshalText implements encoding.TextUnmarshaler; see
// ParseReplacementPolicy.
func (p *ReplacementPolicy) UnmarshalText(text []byte) error { return policySpec.unmarshal(p, text) }

// ParseReplacementPolicy parses a policy name (case-insensitive).
func ParseReplacementPolicy(s string) (ReplacementPolicy, error) { return policySpec.parse(s) }

// StorageMode selects the physical page source behind a join run: the
// in-memory simulator (reads cost nothing in wall time; only the linear disk
// model is charged) or the file-backed store attached to the System
// (System.UseFileStore), where page payloads are read from real files
// with measured latencies. The logical account is identical either way —
// Report, Pairs and Plan are bit-for-bit independent of this knob (pinned by
// TestBackendParity); only ExecStats' measured I/O fields differ.
type StorageMode int

const (
	// StorageDefault resolves to StorageSim in Validate.
	StorageDefault StorageMode = iota
	// StorageSim serves page payloads from memory (the seed behavior).
	StorageSim
	// StorageFile serves page payloads through the System's file-backed
	// store; Join fails if none is attached.
	StorageFile
)

var storageSpec = newEnum[StorageMode]("StorageMode", "storage mode",
	[]string{"default", "sim", "file"}, true)

func (s StorageMode) String() string { return storageSpec.string(s) }

// MarshalText implements encoding.TextMarshaler.
func (s StorageMode) MarshalText() ([]byte, error) { return storageSpec.marshal(s) }

// UnmarshalText implements encoding.TextUnmarshaler; see ParseStorageMode.
func (s *StorageMode) UnmarshalText(text []byte) error { return storageSpec.unmarshal(s, text) }

// ParseStorageMode parses a storage mode name (case-insensitive; "" parses
// to StorageDefault).
func ParseStorageMode(s string) (StorageMode, error) { return storageSpec.parse(s) }
