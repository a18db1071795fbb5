//go:build !amd64

package edit

// Off amd64 there is no lane kernel: BoundedLanes runs the scalar kernels
// lane by lane, and bandLanes is never called.
const laneKernels = false

func bandLanes(class *[256]uint8, bits *uint64, stride, m, k int, buf *byte, c *Lanes, live uint8) uint8 {
	panic("edit: no lane kernel off amd64")
}
