// Package lsm is a hotalloc fixture loaded under the import path
// simsearch/internal/lsm, where only kernel loops are in scope: the package's
// other innermost loops decode segment files and the log, and convert bytes
// to strings because that is their job.
package lsm

import (
	"context"

	"simsearch/internal/scan"
)

// decode is a serialization loop: no kernel call, so out of scope here.
func decode(rows [][]byte) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, string(r))
	}
	return out
}

// sweepEach holds every row against the probe on its own, through a sweep of
// loose strings: a kernel loop, so a conversion per row is a finding.
func sweepEach(ctx context.Context, pr *scan.Probe, rows [][]byte) int {
	n := 0
	for i, r := range rows {
		var l scan.Loose
		l.Add(int32(i), string(r)) // want "conversion inside an innermost kernel loop"
		ms, _ := l.Sweep(ctx, pr, nil)
		n += len(ms)
	}
	return n
}
