package edit

import "simsearch/internal/cpu"

// laneKernels is whether BoundedLanes runs the lane kernel, which needs
// AVX512F, AVX512BW, AVX512_VBMI and AVX512_VBMI2 (internal/cpu). Tests
// flip it to force the scalar path; nothing else does.
var laneKernels = cpu.X86.AVX512VBMI

// bandLanes is boundedBand over the candidates of c whose bits are set in
// live, eight lanes in lockstep, in assembly: it returns the mask of those
// within k and stores their distances in c.Dist. It checks nothing.
// Preconditions: m >= 1, 0 <= k <= MaxBandK, |m-c.Len[i]| <= k for every
// lane of live, bits is the pattern's word-major table with stride classes,
// buf holds every such lane's bytes at c.Off[i] and LanePad more, and
// c.head the first eight of them.
//
//go:noescape
func bandLanes(class *[256]uint8, bits *uint64, stride, m, k int, buf *byte, c *Lanes, live uint8) uint8
