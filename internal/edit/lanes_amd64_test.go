package edit

import (
	"testing"

	"simsearch/internal/cpu"
)

// eachLanePath runs f once with the lane kernel off and once on, which it
// skips where the CPU or the OS lacks what it needs; it restores laneKernels
// after each.
func eachLanePath(t *testing.T, f func(t *testing.T)) {
	for _, lanes := range []bool{false, true} {
		t.Run(map[bool]string{false: "scalar", true: "avx512"}[lanes], func(t *testing.T) {
			if lanes && !cpu.X86.AVX512VBMI {
				t.Skip("no AVX512F, AVX512BW, AVX512_VBMI and AVX512_VBMI2 on this CPU, or the OS does not save their state")
			}
			defer func(v bool) { laneKernels = v }(laneKernels)
			laneKernels = lanes
			f(t)
		})
	}
}
