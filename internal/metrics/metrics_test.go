package metrics

import (
	"testing"

	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
)

func newRun(t *testing.T, pages, capacity int) (*disk.Disk, disk.FileID, *disk.Session, *buffer.Pool) {
	t.Helper()
	d := disk.New(disk.DefaultModel())
	f := d.CreateFile()
	for i := 0; i < pages; i++ {
		if _, err := d.AppendPage(f, disk.Page{IDs: []int{i}}); err != nil {
			t.Fatal(err)
		}
	}
	io := d.NewSession()
	pool, err := buffer.NewPool(io, capacity, buffer.LRU)
	if err != nil {
		t.Fatal(err)
	}
	return d, f, io, pool
}

// A nil collector must be a complete no-op on every method.
func TestNilCollectorNoOps(t *testing.T) {
	var c *Collector
	if c.Tracing() {
		t.Fatal("nil collector reports tracing")
	}
	c.Attach(nil, nil)
	c.PhaseStart(PhaseMatrix)
	c.PhaseEnd()
	c.ClusterStart(0)
	c.ClusterPinned(3)
	c.ClusterEnd()
	c.RecordQueueHighWater(7)
	if m := c.Finish(); m != nil {
		t.Fatalf("nil collector Finish = %+v", m)
	}
}

// Per-phase disk and buffer deltas must sum exactly to the run totals, with
// charges outside marked phases attributed to PhaseOther.
func TestPhaseDeltasSumToTotals(t *testing.T) {
	_, f, io, pool := newRun(t, 8, 4)
	c := New(Config{})
	c.Attach(io, pool)

	get := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := pool.Get(disk.PageAddr{File: f, Page: i}); err != nil {
				t.Fatal(err)
			}
		}
	}

	get(0, 2) // outside any phase: PhaseOther
	c.PhaseStart(PhaseMatrix)
	get(2, 4)
	c.PhaseEnd()
	c.PhaseStart(PhaseJoin)
	get(0, 4)                  // hits
	c.PhaseStart(PhaseCluster) // nested
	get(4, 8)                  // evicts
	c.PhaseEnd()
	get(0, 2) // back in join: misses again
	c.PhaseEnd()
	m := c.Finish()

	var sumDisk disk.Stats
	var sumBuf buffer.Stats
	for _, ps := range m.Phases {
		sumDisk = sumDisk.Add(ps.Disk)
		sumBuf = sumBuf.Add(ps.Buffer)
	}
	if sumDisk != io.Stats() {
		t.Fatalf("phase disk sum %+v != session stats %+v", sumDisk, io.Stats())
	}
	if sumBuf != pool.Stats() {
		t.Fatalf("phase buffer sum %+v != pool stats %+v", sumBuf, pool.Stats())
	}
	if m.Disk != io.Stats() || m.Buffer != pool.Stats() {
		t.Fatalf("totals %+v/%+v != %+v/%+v", m.Disk, m.Buffer, io.Stats(), pool.Stats())
	}

	// Exclusive attribution: the nested cluster window owns its 4 misses,
	// not the enclosing join phase.
	if got := m.Phases[PhaseCluster].Buffer.Misses; got != 4 {
		t.Fatalf("cluster-phase misses = %d, want 4", got)
	}
	if got := m.Phases[PhaseMatrix].Buffer.Misses; got != 2 {
		t.Fatalf("matrix-phase misses = %d, want 2", got)
	}
	if got := m.Phases[PhaseOther].Buffer.Misses; got != 2 {
		t.Fatalf("other-phase misses = %d, want 2", got)
	}
	if got := m.Phases[PhaseJoin].Buffer; got.Hits != 4 || got.Misses != 2 {
		t.Fatalf("join-phase buffer = %+v, want 4 hits / 2 misses", got)
	}
}

// Cluster windows must split pins into fetched (misses) and reused (hits).
func TestClusterTurnover(t *testing.T) {
	_, f, io, pool := newRun(t, 8, 6)
	c := New(Config{})
	c.Attach(io, pool)

	pin := func(idx int, pages ...int) {
		c.ClusterStart(idx)
		for _, p := range pages {
			if _, err := pool.GetPinned(disk.PageAddr{File: f, Page: p}); err != nil {
				t.Fatal(err)
			}
		}
		c.ClusterPinned(len(pages))
		pool.UnpinAll()
		c.ClusterEnd()
	}
	pin(3, 0, 1, 2)
	pin(7, 1, 2, 3) // shares pages 1,2 with the previous cluster

	m := c.Finish()
	if len(m.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(m.Clusters))
	}
	c0, c1 := m.Clusters[0], m.Clusters[1]
	if c0.Cluster != 3 || c0.Pinned != 3 || c0.Fetched != 3 || c0.Reused != 0 {
		t.Fatalf("cluster 0 = %+v", c0)
	}
	if c1.Cluster != 7 || c1.Pinned != 3 || c1.Fetched != 1 || c1.Reused != 2 {
		t.Fatalf("cluster 1 = %+v", c1)
	}
	if c1.Disk.Reads != 1 {
		t.Fatalf("cluster 1 disk delta = %+v, want 1 read", c1.Disk)
	}
}

// The trace ring must keep the newest events once full and count the drops,
// with an unbroken Seq numbering.
func TestTraceRingBounds(t *testing.T) {
	_, f, io, pool := newRun(t, 8, 2)
	c := New(Config{Trace: true})
	c.Attach(io, pool)
	// Cycling 8 pages through 2 frames misses every time: each access
	// evicts, so twice the ring's capacity in accesses overflows it.
	for i := 0; i < 2*DefaultTraceCapacity; i++ {
		if _, err := pool.Get(disk.PageAddr{File: f, Page: i % 8}); err != nil {
			t.Fatal(err)
		}
	}
	m := c.Finish()
	if len(m.Events) != DefaultTraceCapacity {
		t.Fatalf("events = %d, want ring capacity %d", len(m.Events), DefaultTraceCapacity)
	}
	if m.EventsDropped == 0 {
		t.Fatal("expected dropped events")
	}
	for i := 1; i < len(m.Events); i++ {
		if m.Events[i].Seq != m.Events[i-1].Seq+1 {
			t.Fatalf("non-contiguous ring: %v", m.Events)
		}
	}
	if last := m.Events[len(m.Events)-1]; last.Seq != m.EventsDropped+int64(len(m.Events))-1 {
		t.Fatalf("newest seq %d inconsistent with %d dropped", last.Seq, m.EventsDropped)
	}
}

// Tracing must record evictions and seeks with their addresses, and phase
// brackets in order.
func TestTraceEventContent(t *testing.T) {
	_, f, io, pool := newRun(t, 4, 2)
	c := New(Config{Trace: true})
	c.Attach(io, pool)
	c.PhaseStart(PhaseJoin)
	pool.Get(disk.PageAddr{File: f, Page: 0}) // miss: seek (first access)
	pool.Get(disk.PageAddr{File: f, Page: 1}) // miss: sequential
	pool.Get(disk.PageAddr{File: f, Page: 3}) // miss: gap within readahead -> sequential, evicts page 0
	c.PhaseEnd()
	m := c.Finish()

	var kinds []EventKind
	for _, ev := range m.Events {
		kinds = append(kinds, ev.Kind)
	}
	want := []EventKind{EvPhaseStart, EvSeek, EvEvict, EvPhaseEnd}
	if len(kinds) != len(want) {
		t.Fatalf("events %v, want kinds %v", m.Events, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events %v, want kinds %v", m.Events, want)
		}
	}
	if m.Events[1].Addr != (disk.PageAddr{File: f, Page: 0}) || m.Events[1].Write {
		t.Fatalf("seek event = %+v", m.Events[1])
	}
	if m.Events[2].Addr != (disk.PageAddr{File: f, Page: 0}) {
		t.Fatalf("evict event = %+v", m.Events[2])
	}
	if m.Events[0].Phase != PhaseJoin || m.Events[3].Phase != PhaseJoin {
		t.Fatalf("phase events = %v", m.Events)
	}
	// Observers detach at Finish: further pool traffic must not panic or
	// append.
	pool.Get(disk.PageAddr{File: f, Page: 2})
	if len(m.Events) != 4 {
		t.Fatal("events grew after Finish")
	}
}

// Without Trace, no ring is allocated and Events stays nil.
func TestNoTraceMeansNoEvents(t *testing.T) {
	_, f, io, pool := newRun(t, 4, 2)
	c := New(Config{})
	c.Attach(io, pool)
	pool.Get(disk.PageAddr{File: f, Page: 0})
	m := c.Finish()
	if m.Events != nil || m.EventsDropped != 0 {
		t.Fatalf("events = %v (%d dropped), want none", m.Events, m.EventsDropped)
	}
}

func TestQueueHighWaterKeepsMax(t *testing.T) {
	c := New(Config{})
	c.RecordQueueHighWater(3)
	c.RecordQueueHighWater(9)
	c.RecordQueueHighWater(5)
	if m := c.Finish(); m.QueueHighWater != 9 {
		t.Fatalf("high water = %d, want 9", m.QueueHighWater)
	}
}

func TestPhaseAndEventStrings(t *testing.T) {
	for p := PhaseOther; p < NumPhases; p++ {
		if p.String() == "" {
			t.Fatalf("empty name for phase %d", p)
		}
	}
	if Phase(99).String() == "" || EventKind(99).String() == "" {
		t.Fatal("unknown enum names empty")
	}
	for _, ev := range []Event{
		{Kind: EvPhaseStart, Phase: PhaseJoin},
		{Kind: EvClusterEnd, Cluster: 4},
		{Kind: EvSeek, Write: true},
		{Kind: EvEvict},
	} {
		if ev.String() == "" {
			t.Fatalf("empty string for %+v", ev)
		}
	}
}

// Fold must preserve the phases-sum-to-totals invariant, accumulate counters,
// and keep the unbounded per-run detail (clusters, traces, shards) out of the
// cumulative snapshot.
func TestFoldPreservesInvariant(t *testing.T) {
	snap := func(lo, hi int) *Metrics {
		_, f, io, pool := newRun(t, 8, 4)
		c := New(Config{Trace: true})
		c.Attach(io, pool)
		c.PhaseStart(PhaseJoin)
		c.ClusterStart(0)
		for i := lo; i < hi; i++ {
			if _, err := pool.Get(disk.PageAddr{File: f, Page: i}); err != nil {
				t.Fatal(err)
			}
		}
		c.ClusterEnd()
		c.PhaseEnd()
		c.RecordQueueHighWater(hi)
		return c.Finish()
	}

	a, b := snap(0, 3), snap(0, 6)
	var folded Metrics
	folded.Fold(a)
	folded.Fold(b)

	var sumDisk disk.Stats
	var sumBuf buffer.Stats
	for _, ps := range folded.Phases {
		sumDisk = sumDisk.Add(ps.Disk)
		sumBuf = sumBuf.Add(ps.Buffer)
	}
	if sumDisk != folded.Disk || sumBuf != folded.Buffer {
		t.Fatalf("fold broke phases-sum-to-totals: phases %+v/%+v totals %+v/%+v",
			sumDisk, sumBuf, folded.Disk, folded.Buffer)
	}
	if want := a.Disk.Add(b.Disk); folded.Disk != want {
		t.Fatalf("folded disk %+v, want %+v", folded.Disk, want)
	}
	if want := a.Buffer.Add(b.Buffer); folded.Buffer != want {
		t.Fatalf("folded buffer %+v, want %+v", folded.Buffer, want)
	}
	if folded.FoldedRuns != 2 {
		t.Fatalf("FoldedRuns = %d, want 2", folded.FoldedRuns)
	}
	if folded.QueueHighWater != 6 {
		t.Fatalf("QueueHighWater = %d, want max 6", folded.QueueHighWater)
	}
	if len(folded.Clusters) != 0 || len(folded.Events) != 0 || len(folded.Shards) != 0 {
		t.Fatalf("fold accumulated unbounded detail: %d clusters, %d events, %d shards",
			len(folded.Clusters), len(folded.Events), len(folded.Shards))
	}
	// Folding must not disturb the source snapshots.
	if len(a.Events) == 0 || a.FoldedRuns != 0 {
		t.Fatalf("source snapshot mutated: %+v", a)
	}
	// nil source / nil receiver are no-ops, not panics.
	folded.Fold(nil)
	if folded.FoldedRuns != 2 {
		t.Fatal("nil fold counted")
	}
	var nilm *Metrics
	nilm.Fold(a)
}
