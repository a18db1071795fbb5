//go:build !amd64

package scan

// Off amd64 there are no occurrence-word kernels: blockMask and firstWord
// run their Go loops, and these two are never called.
const popcntKernels = false

func occMaskPOPCNT(sums []uint64, sq uint64, slack int) uint64 {
	return occMask(sums, sq, slack)
}

func occSurvivorsPOPCNT(run []uint64, surv []int32, off int32, sq uint64, slack int) int {
	return occSurvivors(run, surv, off, sq, slack)
}
