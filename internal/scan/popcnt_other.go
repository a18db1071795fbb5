//go:build !amd64

package scan

// Off amd64 there are no kernels: blockMask and maskedWords run their Go
// loops, and these four are never called.
const popcntKernels, vpopcntKernels = false, false

func occMaskPOPCNT(hi, lo []uint64, sq uint64, slack int) uint64 {
	return occMask(hi, lo, sq, slack)
}

func occGroupPOPCNT(words []uint64, mask uint64, from int, surv []int32, sq uint64, slack int) int {
	return occGroup(words, mask, from, surv, sq, slack)
}

func cntMaskAVX512(hi, lo []uint64, sq uint64, slack int) uint64 {
	return cntMask(hi, lo, sq, slack)
}

func cntGroupAVX512(words, grams []uint64, mask uint64, from int, surv []int32, sq uint64, gq *gramSet, slack, bound int) (n, passed int) {
	return cntGroup(words, grams, mask, from, surv, sq, gq, slack, bound)
}
