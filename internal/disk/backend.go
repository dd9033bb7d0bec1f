package disk

import "sort"

// Backend is the physical page source behind a Disk: where pages actually
// live and what it really costs to read them back. The Disk remains the
// logical catalog of files and page addresses, each Session keeps its own
// head positions and every *modeled* charge, and a Backend serves the
// catalog's bytes (a session's own files never reach it). Two
// implementations exist:
//
//   - the Disk's own in-memory pages (backend == nil everywhere): reads are
//     free in wall time and only the linear model is charged, the seed
//     behavior of this repository;
//   - internal/store.Store: pages are encoded to real files and served via
//     mmap/pread with *measured* per-read latencies; vector and series pages
//     are served as views of the mapped records.
//
// The determinism contract is deliberately split across that line: logical
// accounting (Stats, seek classification, and therefore every
// Report/Pairs/Plan field) is computed by the Session from the access
// sequence alone and is bit-identical regardless of the backend; only the
// Measured side (wall seconds per physical read) differs, and it is reported
// exclusively through the session's Measured account (summed once, in the
// run's metrics snapshot, and repeated by ExecStats.MeasuredIOWall), never
// through a Report. TestBackendParity pins this.
type Backend interface {
	// Fetch returns the page stored for addr and the measured wall seconds
	// the physical read took, checksum included. The page's slices may
	// alias the backend's storage (the file store's mapping): callers only
	// read them, and only while the backend is open. A page the backend
	// never received is an error.
	Fetch(addr PageAddr) (pg *Page, seconds float64, err error)
	// Put appends pg to its file: pg.Addr.Page must be the file's page
	// count. A stored page is never overwritten.
	Put(pg *Page) error
}

// Measured accumulates physical (wall-clock) read activity against a
// Backend. Unlike Stats it is NOT part of the determinism contract: it is
// zero under the simulator and host-dependent under a file backend.
type Measured struct {
	// Reads is the number of physical backend fetches served.
	Reads int64
	// Seconds is the summed wall time of those fetches (read + checksum +
	// page build).
	Seconds float64
}

// Add returns the field-wise sum m + o.
func (m Measured) Add(o Measured) Measured {
	return Measured{Reads: m.Reads + o.Reads, Seconds: m.Seconds + o.Seconds}
}

// Sub returns the field-wise difference m - o, for computing deltas between
// two snapshots.
func (m Measured) Sub(o Measured) Measured {
	return Measured{Reads: m.Reads - o.Reads, Seconds: m.Seconds - o.Seconds}
}

// SetMirror installs a write mirror: every page appended to the Disk from
// now on (AppendPage) is also handed to b.Put, keeping the backend's
// files in sync with the catalog. Pages appended before the mirror was set
// are the caller's responsibility (see EachPage). A nil b detaches.
func (d *Disk) SetMirror(b Backend) {
	d.mu.Lock()
	d.mirror = b
	d.mu.Unlock()
}

// EachPage calls fn for every page of every file in ascending (file, page)
// order, stopping at the first error, on a copy of each page taken under the
// disk lock. It exists so a freshly attached Backend can be seeded with the
// pages materialized before SetMirror.
func (d *Disk) EachPage(fn func(pg *Page) error) error {
	d.mu.Lock()
	ids := make([]FileID, 0, len(d.files))
	for id := range d.files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var all []Page
	for _, id := range ids {
		for _, pg := range d.files[id] {
			all = append(all, *pg)
		}
	}
	d.mu.Unlock()
	// fn runs outside the disk lock: a Backend.Put may be slow (real file
	// writes) and must not block concurrent readers of the catalog.
	for i := range all {
		if err := fn(&all[i]); err != nil {
			return err
		}
	}
	return nil
}
