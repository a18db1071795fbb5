package edit

import (
	"encoding/binary"
	"fmt"
)

// Batch verification: up to LaneCount candidates in one call. The candidates
// of a scan come from one packed buffer, so a batch names each by an offset
// and a length into it instead of by a slice. Where the CPU has AVX-512 and
// k <= MaxBandK, the band kernel runs them as the eight lanes of one vector
// in lockstep (bandLanes, lanes_amd64.s): every lane is at the same text
// column, so the word of the table the window starts in and the shift of
// the funnel are shared, and only the class of the lane's byte differs.
// Each lane has its own length, target bit and score budget (left); a lane
// leaves the batch when its budget is spent or its text ends, and the batch
// ends when no lane is left. A batch costs the columns of its slowest lane,
// one vector step each. Elsewhere, and for k > MaxBandK, the candidates go
// through the scalar kernels one by one.

// LaneCount is how many candidates one BoundedLanes call verifies.
const LaneCount = 8

// LanePad is how many bytes past a candidate's end BoundedLanes may read:
// the lane kernel loads a lane's text eight bytes at a time.
const LanePad = 7

// Lanes is one batch: candidate i is buf[Off[i]:Off[i]+Len[i]] of the
// buffer BoundedLanes is given, and Dist[i] is its distance once the call
// reports it within k.
type Lanes struct {
	Off, Len, Dist [LaneCount]int
	head           [LaneCount]uint64 // each candidate's first eight bytes, for the lane kernel
}

// BoundedLanes verifies the first n <= LaneCount candidates of c and returns
// a mask with bit i set when candidate i is within k of the pattern, leaving
// its distance in c.Dist[i]; the other Dist entries are unspecified. buf
// must extend LanePad bytes past every candidate. A scratch is read only for
// k > MaxBandK, by the blocked kernel.
func (p *MyersPattern) BoundedLanes(buf []byte, c *Lanes, n, k int, s *MyersScratch) uint8 {
	if n > LaneCount {
		panic(fmt.Sprintf("edit: %d candidates in one batch", n))
	}
	lanes := laneKernels && k <= MaxBandK && p.m > 0
	var live uint8 // the candidates the length filter lets through
	for i := 0; i < n; i++ {
		if c.Off[i] < 0 || c.Len[i] < 0 || c.Off[i]+c.Len[i]+LanePad > len(buf) {
			panic(fmt.Sprintf("edit: candidate %d at [%d:+%d] of a %d-byte buffer", i, c.Off[i], c.Len[i], len(buf)))
		}
		if lanes && c.Len[i] > 0 {
			// Read here, the eight lanes' first bytes are in flight together
			// and the kernel starts on a plain load instead of a gather.
			c.head[i] = binary.LittleEndian.Uint64(buf[c.Off[i]:])
		}
		if d := p.m - c.Len[i]; -k <= d && d <= k {
			live |= 1 << i
		}
	}
	if live == 0 {
		return 0
	}
	if lanes {
		return bandLanes(&p.class, &p.bits[0], p.stride, p.m, k, &buf[0], c, live)
	}
	var ok uint8
	for i := 0; i < n; i++ {
		if live>>i&1 != 0 {
			if d, within := boundedMyers(p, buf[c.Off[i]:c.Off[i]+c.Len[i]], k, s); within {
				c.Dist[i] = d
				ok |= 1 << i
			}
		}
	}
	return ok
}
