//go:build !amd64

package kernel

// Non-amd64 builds have no vector row-sum kernels; the blocked scalar loops
// carry the batch path alone.
const hasSIMD = false

var useSIMD = false

func l2SumsAsm(probe []float64, data []float64, sums []float64, dim int, limit float64) int {
	panic("kernel: l2SumsAsm without SIMD support")
}

func l1SumsAsm(probe []float64, data []float64, sums []float64, dim int, limit float64) int {
	panic("kernel: l1SumsAsm without SIMD support")
}

func l2Sums4Asm(probes []float64, data []float64, sums []float64, dim int, limit float64) int {
	panic("kernel: l2Sums4Asm without SIMD support")
}

func l1Sums4Asm(probes []float64, data []float64, sums []float64, dim int, limit float64) int {
	panic("kernel: l1Sums4Asm without SIMD support")
}
