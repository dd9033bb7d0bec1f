package buffer

import (
	"testing"
	"testing/quick"

	"pmjoin/internal/disk"
)

// TestQuickPoolInvariants drives a pool with arbitrary access sequences and
// checks the structural invariants: residency never exceeds capacity, every
// hit is on a resident page, and hits+misses equals the access count.
func TestQuickPoolInvariants(t *testing.T) {
	f := func(accesses []uint8, capSeed uint8) bool {
		capacity := int(capSeed%16) + 1
		d := disk.New(disk.DefaultModel())
		file := d.CreateFile()
		for i := 0; i < 64; i++ {
			if _, err := d.AppendPage(file, disk.Page{IDs: []int{i}}); err != nil {
				return false
			}
		}
		p, err := NewPool(d.NewSession(), capacity, LRU)
		if err != nil {
			return false
		}
		for _, a := range accesses {
			pg := int(a % 64)
			resident := p.Contains(disk.PageAddr{File: file, Page: pg})
			before := p.Stats()
			if _, err := p.Get(disk.PageAddr{File: file, Page: pg}); err != nil {
				return false
			}
			after := p.Stats()
			if resident && after.Hits != before.Hits+1 {
				return false
			}
			if !resident && after.Misses != before.Misses+1 {
				return false
			}
			if p.Len() > capacity {
				return false
			}
		}
		s := p.Stats()
		return s.Hits+s.Misses == int64(len(accesses))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFIFOSameMissCountAsReference checks FIFO against a ring-buffer
// reference model for arbitrary traces.
func TestQuickFIFOSameMissCountAsReference(t *testing.T) {
	f := func(accesses []uint8) bool {
		const capacity = 4
		d := disk.New(disk.DefaultModel())
		file := d.CreateFile()
		for i := 0; i < 32; i++ {
			d.AppendPage(file, disk.Page{IDs: []int{i}})
		}
		p, err := NewPool(d.NewSession(), capacity, FIFO)
		if err != nil {
			return false
		}
		var ring []int
		misses := 0
		for _, a := range accesses {
			pg := int(a % 32)
			if _, err := p.Get(disk.PageAddr{File: file, Page: pg}); err != nil {
				return false
			}
			found := false
			for _, v := range ring {
				if v == pg {
					found = true
					break
				}
			}
			if !found {
				misses++
				if len(ring) == capacity {
					ring = ring[1:]
				}
				ring = append(ring, pg)
			}
		}
		return p.Stats().Misses == int64(misses)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
