// Package lsm is a hotalloc fixture loaded under the import path
// simsearch/internal/lsm, where only kernel loops are in scope: the package's
// other innermost loops decode segment files and the log, and convert bytes
// to strings because that is their job.
package lsm

import "simsearch/internal/scan"

// decode is a serialization loop: no kernel call, so out of scope here.
func decode(rows [][]byte) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, string(r))
	}
	return out
}

// scanDelta queues entries on a probe: a kernel loop, so a conversion per
// entry is a finding.
func scanDelta(pr *scan.Probe, rows [][]byte) int {
	var ms []scan.Match
	for i, r := range rows {
		ms = pr.Queue(string(r), int32(i), ms) // want "conversion inside an innermost kernel loop"
	}
	return len(pr.Flush(ms))
}
