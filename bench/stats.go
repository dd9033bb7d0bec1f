package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// summary is how a timing is reported: sample count, median, quartiles and
// the highest percentile that still has at least ten samples beyond it (the
// 75th below 100 samples).
type summary struct {
	n             int
	p25, p50, p75 float64
	hiQ           int
	hi            float64
}

func summarize(samples []float64) summary {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	s := summary{n: len(xs), p25: quantile(xs, 0.25), p50: quantile(xs, 0.50), p75: quantile(xs, 0.75)}
	s.hiQ, s.hi = 75, s.p75
	for _, q := range []int{90, 95, 99} {
		if float64(len(xs))*float64(100-q)/100 >= 10 {
			s.hiQ, s.hi = q, quantile(xs, float64(q)/100)
		}
	}
	return s
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(samples []float64) float64 { return quantileOf(samples, 0.50) }

// quantileOf is quantile over unsorted samples.
func quantileOf(samples []float64, q float64) float64 {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return quantile(xs, q)
}

// ratio is a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// totalAllocMB is the cumulative bytes allocated by the process, in MB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident size, so the next peakRSSMB reads the peak of the work in
// between. It reports false where the kernel does not offer that (then the
// mark stays the process's lifetime peak).
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since the
// last resetPeakRSS, or since the process started. Each workload runs in its
// own process, so the peak is the workload's.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return heapSysMB()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return heapSysMB()
}

// heapSysMB stands in for VmHWM where /proc is unavailable: the memory the Go
// runtime has obtained from the OS, which only grows.
func heapSysMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
