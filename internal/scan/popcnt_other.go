//go:build !amd64

package scan

// Off amd64 there are no occurrence-word kernels: blockMask and maskedWords
// run their Go loops, and these two are never called.
const popcntKernels = false

func occMaskPOPCNT(sums []uint64, sq uint64, slack int) uint64 {
	return occMask(sums, sq, slack)
}

func occGroupPOPCNT(words []uint64, mask uint64, from int, surv []int32, sq uint64, slack int) int {
	return occGroup(words, mask, from, surv, sq, slack)
}
