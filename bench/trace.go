package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one harness-side interval around a call into a layer. Spans are
// recorded from the benchmark's own files only (in-program spans are a later
// change), kept in memory, and written out when the workload ends.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Parent is the index of the enclosing span in the file's span list, -1
	// at top level. All spans of one request share its top-level ancestor.
	Parent int `json:"parent"`
}

// spanLog collects the traced pass's spans. It is off (every call runs f and
// records nothing) in the untraced pass, so end-to-end numbers never include
// it; the mutex is for serve_mix's two clients.
type spanLog struct {
	workload string
	on       bool
	mu       sync.Mutex
	origin   time.Time
	spans    []span
}

// do runs f inside a span and returns f's wall time in seconds. f receives
// the span's index to pass as the parent of nested spans.
func (l *spanLog) do(name string, iter, parent int, f func(id int)) float64 {
	if !l.on {
		start := time.Now()
		f(-1)
		return time.Since(start).Seconds()
	}
	l.mu.Lock()
	if l.origin.IsZero() {
		l.origin = time.Now()
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Workload: l.workload, Iter: iter, Parent: parent})
	l.mu.Unlock()

	start := time.Now()
	f(id)
	end := time.Now()

	l.mu.Lock()
	l.spans[id].StartNS = start.Sub(l.origin).Nanoseconds()
	l.spans[id].EndNS = end.Sub(l.origin).Nanoseconds()
	l.mu.Unlock()
	return end.Sub(start).Seconds()
}

// write stores the spans with each name's summed self time (a span's
// duration minus the part its children cover) as <dir>/<workload>.trace.json.
func (l *spanLog) write(dir, workload string) error {
	self := make(map[string]int64)
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i, s := range l.spans {
		self[s.Name] += s.EndNS - s.StartNS - child[i]
	}
	buf, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		SelfNS   map[string]int64 `json:"self_ns"`
		Spans    []span           `json:"spans"`
	}{workload, self, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), buf, 0o644)
}
