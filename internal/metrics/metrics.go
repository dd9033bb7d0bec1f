// Package metrics is the join pipeline's phase-scoped observability layer:
// per-phase wall clock and I/O deltas, per-cluster pinned-set turnover, and
// an optional bounded ring-buffer trace of typed events.
//
// The paper's argument is an I/O-accounting argument — seeks vs. transfers
// per phase (matrix build, clustering, scheduled cluster execution) — so the
// layer attributes every disk and buffer counter delta to the phase that
// charged it. By construction the per-phase deltas of a snapshot sum to the
// run's totals: the collector flushes the delta since the previous boundary
// into the currently open phase at every boundary, so no charge can be
// counted twice or fall between phases (charges outside any marked phase
// land in PhaseOther).
//
// Everything in this package is explicitly OUTSIDE the determinism contract
// (like ExecStats): wall-clock fields vary run to run, and enabling or
// disabling collection must never change a Report, the collected Pairs, or
// a Plan. The package is zero-dependency (stdlib only) and allocation-light:
// a disabled collector is a nil pointer, every method is a nil-receiver
// no-op, and the trace ring is allocated once at its capacity.
//
// Concurrency: a Collector is confined to the coordinating goroutine. That
// is exactly the determinism contract's I/O rule — workers never touch the
// disk or the buffer pool, so every hook (phase boundaries, cluster
// boundaries, evict/seek observers) fires on the coordinator. The one
// cross-goroutine value, the worker pool's queue-depth high-water mark, is
// read through the pool's own lock and recorded at the end of the run.
package metrics

import (
	"fmt"
	"time"

	"pmjoin/internal/buffer"
	"pmjoin/internal/disk"
)

// Phase identifies one stage of a join run.
type Phase uint8

const (
	// PhaseOther absorbs work outside any marked phase (option validation,
	// result assembly). It exists so phase deltas always sum to the totals.
	PhaseOther Phase = iota
	// PhaseMatrix is prediction-matrix construction (§5).
	PhaseMatrix
	// PhaseCluster is clustering and schedule construction (§7-8).
	PhaseCluster
	// PhaseJoin is the join executor itself — for clustered methods, the
	// scheduled cluster execution (§8).
	PhaseJoin
	// NumPhases sizes per-phase arrays.
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseOther:
		return "other"
	case PhaseMatrix:
		return "matrix"
	case PhaseCluster:
		return "cluster"
	case PhaseJoin:
		return "join"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// EventKind types a trace event.
type EventKind uint8

const (
	// EvPhaseStart / EvPhaseEnd bracket a phase (Event.Phase).
	EvPhaseStart EventKind = iota
	EvPhaseEnd
	// EvClusterStart / EvClusterEnd bracket one scheduled cluster
	// (Event.Cluster is the cluster's creation index).
	EvClusterStart
	EvClusterEnd
	// EvEvict is one frame leaving the buffer pool (Event.Addr).
	EvEvict
	// EvSeek is one random-seek disk access (Event.Addr; Event.Write
	// reports the access direction).
	EvSeek
)

func (k EventKind) String() string {
	switch k {
	case EvPhaseStart:
		return "phase-start"
	case EvPhaseEnd:
		return "phase-end"
	case EvClusterStart:
		return "cluster-start"
	case EvClusterEnd:
		return "cluster-end"
	case EvEvict:
		return "evict"
	case EvSeek:
		return "seek"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one typed trace entry.
type Event struct {
	// Seq is the event's position in the run's full event sequence; gaps
	// never occur, so Seq exposes how much a bounded ring dropped.
	Seq int64
	// Wall is the time since collection started (not deterministic).
	Wall time.Duration
	Kind EventKind
	// Phase is set for phase events.
	Phase Phase
	// Cluster is the cluster's creation index for cluster events, -1
	// otherwise.
	Cluster int
	// Addr is set for Evict and Seek events.
	Addr disk.PageAddr
	// Write marks a write-path seek.
	Write bool
}

func (e Event) String() string {
	switch e.Kind {
	case EvPhaseStart, EvPhaseEnd:
		return fmt.Sprintf("#%d %v %s %s", e.Seq, e.Wall, e.Kind, e.Phase)
	case EvClusterStart, EvClusterEnd:
		return fmt.Sprintf("#%d %v %s c%d", e.Seq, e.Wall, e.Kind, e.Cluster)
	case EvSeek:
		dir := "read"
		if e.Write {
			dir = "write"
		}
		return fmt.Sprintf("#%d %v %s %v (%s)", e.Seq, e.Wall, e.Kind, e.Addr, dir)
	default:
		return fmt.Sprintf("#%d %v %s %v", e.Seq, e.Wall, e.Kind, e.Addr)
	}
}

// PhaseStats is the cost charged while one phase was open.
type PhaseStats struct {
	// Wall is real elapsed time (not simulated; not deterministic).
	Wall time.Duration
	// Disk is the simulated I/O delta charged through the run's disk
	// session while the phase was open.
	Disk disk.Stats
	// Buffer is the hit/miss/eviction delta of the run's buffer pool.
	Buffer buffer.Stats
}

// ClusterStats is the pinned-set turnover of one scheduled cluster.
type ClusterStats struct {
	// Cluster is the cluster's creation index (matches Plan.ClusterIO).
	Cluster int
	// Pinned is the number of pages the cluster pinned.
	Pinned int
	// Fetched is how many of those pins missed the buffer — the cluster's
	// pinned-set turnover, i.e. its actually-measured page reads.
	Fetched int64
	// Reused is how many pins hit pages still resident from earlier
	// clusters (the schedule's realized sharing, Lemma 4).
	Reused int64
	// Disk is the cluster's full simulated I/O delta (fetch + any
	// executor-side traffic until the next cluster starts).
	Disk disk.Stats
	// Measured is the physical backend read delta over the cluster's window
	// (zero under the simulator). Every read is issued by the cluster's own
	// pins, so Measured.Reads equals Fetched under the file store; its
	// Seconds are wall time and not deterministic.
	Measured disk.Measured
	// Wall is the coordinator's real elapsed time for the cluster (not
	// deterministic): its pin, its dispatch and the wait for the previous
	// cluster's comparison runs. The cluster's own runs execute after its
	// window closes, while the next cluster is pinned, so Wall is not its
	// kernel time.
	Wall time.Duration
	// BatchCells and BatchRows describe the cluster's batched kernel
	// dispatch (zero when the per-pair path ran): marked cells evaluated in
	// block tasks, and the rows of the pinned pages the kernel reads, both
	// sides together.
	BatchCells int
	BatchRows  int
}

// Metrics is the snapshot a run produces: per-phase and total deltas,
// per-cluster turnover, worker-queue pressure, and the trace (if enabled).
// All fields are outside the determinism contract.
type Metrics struct {
	// Phases holds one entry per Phase, indexed by the Phase constants.
	// Disk and Buffer deltas across Phases sum exactly to Disk and Buffer.
	Phases [NumPhases]PhaseStats
	// Disk is the run's total simulated I/O (the disk session's account).
	Disk disk.Stats
	// Measured is the run's total physical backend read activity (zero under
	// the simulator; see disk.Measured — outside the determinism contract).
	Measured disk.Measured
	// Buffer is the run's total buffer activity.
	Buffer buffer.Stats
	// Clusters holds per-cluster stats in schedule order (clustered
	// methods only).
	Clusters []ClusterStats
	// QueueHighWater is the worker pool's queue-depth high-water mark
	// (0 when the run was serial).
	QueueHighWater int
	// Events is the trace, oldest first (nil unless tracing was enabled).
	Events []Event
	// EventsDropped counts events the bounded ring overwrote.
	EventsDropped int64
	// Wall is the total collection window.
	Wall time.Duration
	// Shards holds the per-shard snapshots of a sharded run, in shard-index
	// order (nil when unsharded). Each shard runs its own collector over its
	// private session and pool; AddShard folds the shard's totals into this
	// snapshot and keeps the originals here.
	Shards []*Metrics
	// FoldedRuns counts the run snapshots accumulated into this one via Fold
	// (0 for a plain per-run snapshot). Per-cluster, trace, and per-shard
	// detail is dropped by Fold — this counter makes the drop visible.
	FoldedRuns int64
}

// AddShard folds one shard's snapshot into m, in shard-index order: the
// shard's disk and buffer totals are charged to m's join phase (keeping the
// phases-sum-to-totals invariant), its cluster stats are appended, and the
// full shard snapshot is kept under Shards. Wall clocks are NOT summed —
// shards run concurrently inside the window m already measures; the
// per-shard walls remain visible on the kept snapshots. A nil m or s no-ops.
func (m *Metrics) AddShard(s *Metrics) {
	if m == nil || s == nil {
		return
	}
	m.Shards = append(m.Shards, s)
	m.Phases[PhaseJoin].Disk = m.Phases[PhaseJoin].Disk.Add(s.Disk)
	m.Phases[PhaseJoin].Buffer = m.Phases[PhaseJoin].Buffer.Add(s.Buffer)
	m.Disk = m.Disk.Add(s.Disk)
	m.Buffer = m.Buffer.Add(s.Buffer)
	m.Measured = m.Measured.Add(s.Measured)
	m.Clusters = append(m.Clusters, s.Clusters...)
	if s.QueueHighWater > m.QueueHighWater {
		m.QueueHighWater = s.QueueHighWater
	}
}

// Fold accumulates another run's snapshot into m, for service-level
// aggregation across requests (the join service folds every finished
// request's snapshot into one cumulative snapshot exposed on /metrics).
// Per-phase wall/disk/buffer deltas and the totals are both summed, so the
// phases-sum-to-totals invariant is preserved by construction: if it held
// for m and for s, it holds for the fold. Wall clocks sum too — the fold is
// cumulative work, not a concurrent window. Bounded by design: per-cluster
// stats, traces, and per-shard snapshots stay on the per-run snapshots and
// are NOT accumulated (a service folding millions of requests must not grow
// without bound); their drop is visible as FoldedRuns versus the per-run
// detail. A nil m or s no-ops.
func (m *Metrics) Fold(s *Metrics) {
	if m == nil || s == nil {
		return
	}
	for p := range m.Phases {
		m.Phases[p].Wall += s.Phases[p].Wall
		m.Phases[p].Disk = m.Phases[p].Disk.Add(s.Phases[p].Disk)
		m.Phases[p].Buffer = m.Phases[p].Buffer.Add(s.Phases[p].Buffer)
	}
	m.Disk = m.Disk.Add(s.Disk)
	m.Buffer = m.Buffer.Add(s.Buffer)
	m.Measured = m.Measured.Add(s.Measured)
	if s.QueueHighWater > m.QueueHighWater {
		m.QueueHighWater = s.QueueHighWater
	}
	m.EventsDropped += s.EventsDropped
	m.Wall += s.Wall
	m.FoldedRuns++
}

// Config configures a Collector.
type Config struct {
	// Trace enables the typed event ring of DefaultTraceCapacity events.
	Trace bool
}

// DefaultTraceCapacity is the trace ring size: the ring keeps the newest
// events and counts the overwritten ones.
const DefaultTraceCapacity = 4096

// Collector accumulates one run's metrics. Every join collects; a nil
// *Collector, as engines built without one carry, is the disabled state:
// every method no-ops, so instrumented code calls unconditionally.
type Collector struct {
	start    time.Time
	lastWall time.Time

	io   *disk.Session
	pool *buffer.Pool
	// lastDisk / lastBuf are the counter snapshots at the previous phase
	// boundary; the delta since then belongs to the currently open phase.
	lastDisk disk.Stats
	lastBuf  buffer.Stats

	phases [NumPhases]PhaseStats
	stack  []Phase // open phases; empty means PhaseOther

	clusters        []ClusterStats
	cluster         int // creation index of the open cluster, -1 when none
	clusterDisk     disk.Stats
	clusterBuf      buffer.Stats
	clusterMeasured disk.Measured
	clusterStart    time.Time

	queueHighWater int

	trace    bool
	ring     []Event
	ringHead int // next overwrite slot once the ring is full
	dropped  int64
	seq      int64
}

// New creates an enabled collector.
func New(cfg Config) *Collector {
	c := &Collector{start: time.Now(), cluster: -1}
	c.lastWall = c.start
	if cfg.Trace {
		c.trace = true
		c.ring = make([]Event, 0, DefaultTraceCapacity)
	}
	return c
}

// Tracing reports whether the event ring is active.
func (c *Collector) Tracing() bool { return c != nil && c.trace }

// Attach points the collector at a run's disk session and buffer pool and,
// when tracing, installs the evict/seek observers. Call it once per
// execution scope, before the scope issues any I/O; deltas recorded before
// Attach have zero Disk/Buffer components (preprocessing does no page I/O).
func (c *Collector) Attach(io *disk.Session, pool *buffer.Pool) {
	if c == nil {
		return
	}
	c.flush() // close out any pre-attach window against the old sources
	c.io, c.pool = io, pool
	if io != nil {
		c.lastDisk = io.Stats()
		if c.trace {
			io.SetOnSeek(func(addr disk.PageAddr, write bool) {
				c.event(Event{Kind: EvSeek, Addr: addr, Write: write, Cluster: -1})
			})
		}
	}
	if pool != nil {
		c.lastBuf = pool.Stats()
		if c.trace {
			pool.SetOnEvict(func(addr disk.PageAddr) {
				c.event(Event{Kind: EvEvict, Addr: addr, Cluster: -1})
			})
		}
	}
}

// cur returns the currently open phase.
func (c *Collector) cur() Phase {
	if len(c.stack) == 0 {
		return PhaseOther
	}
	return c.stack[len(c.stack)-1]
}

// flush attributes the wall/disk/buffer delta since the previous boundary
// to the currently open phase and resets the snapshots. Every boundary
// (PhaseStart, PhaseEnd, Attach, Finish) flushes, which is what makes the
// per-phase deltas sum to the totals.
func (c *Collector) flush() {
	now := time.Now()
	p := c.cur()
	c.phases[p].Wall += now.Sub(c.lastWall)
	c.lastWall = now
	if c.io != nil {
		st := c.io.Stats()
		c.phases[p].Disk = c.phases[p].Disk.Add(st.Sub(c.lastDisk))
		c.lastDisk = st
	}
	if c.pool != nil {
		bs := c.pool.Stats()
		c.phases[p].Buffer = c.phases[p].Buffer.Add(bs.Sub(c.lastBuf))
		c.lastBuf = bs
	}
}

// PhaseStart opens p. Phases nest: work inside an inner phase is attributed
// to the inner phase only (exclusive attribution), and PhaseEnd returns to
// the enclosing one.
func (c *Collector) PhaseStart(p Phase) {
	if c == nil {
		return
	}
	c.flush()
	c.stack = append(c.stack, p)
	c.event(Event{Kind: EvPhaseStart, Phase: p, Cluster: -1})
}

// PhaseEnd closes the innermost open phase.
func (c *Collector) PhaseEnd() {
	if c == nil {
		return
	}
	c.flush()
	if n := len(c.stack); n > 0 {
		c.event(Event{Kind: EvPhaseEnd, Phase: c.stack[n-1], Cluster: -1})
		c.stack = c.stack[:n-1]
	}
}

// ClusterStart opens the per-cluster window for the cluster with the given
// creation index.
func (c *Collector) ClusterStart(index int) {
	if c == nil {
		return
	}
	c.cluster = index
	c.clusterStart = time.Now()
	if c.io != nil {
		c.clusterDisk = c.io.Stats()
		c.clusterMeasured = c.io.Measured()
	}
	if c.pool != nil {
		c.clusterBuf = c.pool.Stats()
	}
	c.event(Event{Kind: EvClusterStart, Cluster: index})
}

// ClusterPinned records, right after the cluster's pin loop, how many pages
// the cluster pinned; the hit/miss delta since ClusterStart splits them into
// reused (resident) and fetched (read) pages.
func (c *Collector) ClusterPinned(pages int) {
	if c == nil || c.cluster < 0 {
		return
	}
	cs := ClusterStats{Cluster: c.cluster, Pinned: pages}
	if c.pool != nil {
		bs := c.pool.Stats().Sub(c.clusterBuf)
		cs.Fetched, cs.Reused = bs.Misses, bs.Hits
	}
	c.clusters = append(c.clusters, cs)
}

// ClusterBatch records the open cluster's batched kernel dispatch: its
// marked cells and the rows of its pinned pages.
func (c *Collector) ClusterBatch(cells, rows int) {
	if c == nil {
		return
	}
	if n := len(c.clusters); n > 0 && c.cluster >= 0 && c.clusters[n-1].Cluster == c.cluster {
		cs := &c.clusters[n-1]
		cs.BatchCells += cells
		cs.BatchRows += rows
	}
}

// ClusterEnd closes the per-cluster window, completing the entry's disk
// delta and wall time.
func (c *Collector) ClusterEnd() {
	if c == nil || c.cluster < 0 {
		return
	}
	if n := len(c.clusters); n > 0 && c.clusters[n-1].Cluster == c.cluster {
		cs := &c.clusters[n-1]
		if c.io != nil {
			cs.Disk = c.io.Stats().Sub(c.clusterDisk)
			cs.Measured = c.io.Measured().Sub(c.clusterMeasured)
		}
		cs.Wall = time.Since(c.clusterStart)
	}
	c.event(Event{Kind: EvClusterEnd, Cluster: c.cluster})
	c.cluster = -1
}

// RecordQueueHighWater stores the worker pool's queue-depth high-water mark.
func (c *Collector) RecordQueueHighWater(n int) {
	if c == nil {
		return
	}
	if n > c.queueHighWater {
		c.queueHighWater = n
	}
}

// event appends to the trace ring, overwriting the oldest entry once full.
func (c *Collector) event(ev Event) {
	if c == nil || !c.trace {
		return
	}
	ev.Seq = c.seq
	c.seq++
	ev.Wall = time.Since(c.start)
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, ev)
		return
	}
	c.ring[c.ringHead] = ev
	c.ringHead = (c.ringHead + 1) % len(c.ring)
	c.dropped++
}

// Finish flushes the final window and returns the snapshot. The collector
// must not be used afterwards.
func (c *Collector) Finish() *Metrics {
	if c == nil {
		return nil
	}
	c.flush()
	m := &Metrics{
		Phases:         c.phases,
		Clusters:       c.clusters,
		QueueHighWater: c.queueHighWater,
		EventsDropped:  c.dropped,
		Wall:           time.Since(c.start),
	}
	// Totals are the sum of the per-phase deltas; since every charge was
	// flushed into some phase, these equal the session's and pool's final
	// counters (asserted by tests).
	for _, ps := range c.phases {
		m.Disk = m.Disk.Add(ps.Disk)
		m.Buffer = m.Buffer.Add(ps.Buffer)
	}
	// Measured has no per-phase split; the session's final account is the
	// total.
	if c.io != nil {
		m.Measured = c.io.Measured()
	}
	if c.trace {
		m.Events = make([]Event, 0, len(c.ring))
		m.Events = append(m.Events, c.ring[c.ringHead:]...)
		m.Events = append(m.Events, c.ring[:c.ringHead]...)
	}
	// Detach the observers so a pooled session/pool cannot outlive us.
	if c.io != nil {
		c.io.SetOnSeek(nil)
	}
	if c.pool != nil {
		c.pool.SetOnEvict(nil)
	}
	return m
}
