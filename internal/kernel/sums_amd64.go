//go:build amd64

package kernel

// l2SumsAsm fills sums[k] with the 4-lane re-associated sum of squared
// coordinate gaps between probe and row k of data (row-major, stride dim),
// for k in [0, len(sums)), and returns the number of rows whose sum is not
// > limit. A row whose partial sum after its first 8 coordinates is already
// > limit stops there, and sums[k] holds that partial sum: still > limit, and
// no larger than the full sum unless a NaN term follows. Every other row gets
// its full sum, the same bits for any limit. Requires hasSIMD; see
// sums_amd64.s for the checkpoint argument and the exactness caveat (callers
// must band-classify the result).
//
//go:noescape
func l2SumsAsm(probe []float64, data []float64, sums []float64, dim int, limit float64) int

// l1SumsAsm is l2SumsAsm for the L1 statistic (sum of absolute gaps).
//
//go:noescape
func l1SumsAsm(probe []float64, data []float64, sums []float64, dim int, limit float64) int

// l2Sums4Asm is l2SumsAsm for four contiguous probe rows at once (probes has
// len 4*dim): each data-chunk load is shared across four accumulator sets and
// the horizontal reduction is a single 4-way transpose. The four sums of data
// row k land interleaved at sums[4k .. 4k+3] (sums has len 4*rows). A data
// row stops at the checkpoint only when all four of its partial sums are
// > limit, and the count is of data rows with at least one sum not > limit.
// dim must be a multiple of 4; the block kernel falls back to the
// single-probe routine otherwise.
//
//go:noescape
func l2Sums4Asm(probes []float64, data []float64, sums []float64, dim int, limit float64) int

// l1Sums4Asm is l2Sums4Asm for the L1 statistic.
//
//go:noescape
func l1Sums4Asm(probes []float64, data []float64, sums []float64, dim int, limit float64) int

//go:noescape
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// hasSIMD reports whether the vector row-sum kernels are usable: AVX2 and
// FMA present, and the OS saves the YMM state (OSXSAVE + XCR0 bits 1-2).
var hasSIMD = detectAVX2FMA()

// useSIMD gates the vector path at each call; tests flip it to run the
// scalar and vector kernels differentially on the same hardware.
var useSIMD = hasSIMD

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	const fma = 1 << 12
	if c1&osxsave == 0 || c1&avx == 0 || c1&fma == 0 {
		return false
	}
	if eax, _ := xgetbv0(); eax&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}
