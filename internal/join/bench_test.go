package join

import (
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/seqdist"
)

// BenchmarkStringJoinPages joins two pages at the dna_edit page shape —
// 113 windows of 500 at stride 32, a 4 KB page, each — under edit distance
// 5. The pages come from one isochore of the synthetic chromosome with a
// planted homology, so about 0.3 % of the pairs pass the frequency filter,
// as in the dna_edit workload, and a few of those are results.
func BenchmarkStringJoinPages(b *testing.B) {
	const w, stride, n, k = 500, 32, 113, 5
	span := (n-1)*stride + w
	seq := dataset.DNA(12*span, 2)
	sa := seq[:span]
	sb := append([]byte(nil), seq[11*span:12*span]...)
	dataset.PlantHomologiesAligned(sb, sa, 1, w+2*stride, 0.004, stride, 2)
	pa := stringPage(sa, seqdist.DNA, 0, n, w, stride)
	pb := stringPage(sb, seqdist.DNA, 0, n, w, stride)

	pass, results := 0, 0
	for i := range pa.IDs {
		for j := range pb.IDs {
			if seqdist.FreqDistance(pa.Freqs[i], pb.Freqs[j]) <= k {
				pass++
			}
		}
	}
	j := StringJoiner{MaxEdit: k}
	j.JoinPages(pa, pb, func(int, int) { results++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.JoinPages(pa, pb, func(int, int) {})
	}
	b.ReportMetric(float64(pass)/float64(n*n), "filter_pass")
	b.ReportMetric(float64(results), "results")
}
