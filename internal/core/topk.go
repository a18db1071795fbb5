package core

import (
	"context"
	"sort"
)

// TopK returns up to k of the closest dataset strings to text, ordered by
// (distance, ID), considering only candidates within maxDist edits. It is
// implemented by iterative deepening on the threshold: thresholds 0, 1, 2, …
// are tried until enough matches accumulate, so the common case (a close
// match exists) never pays for a permissive search. Engines whose search
// cost grows with the threshold — all of the engines in this module — make
// this strictly cheaper than a single maxDist search when matches are near.
func TopK(s Searcher, text string, k, maxDist int) []Match {
	ms, _ := TopKContext(context.Background(), s, text, k, maxDist) // never cancelled, so never an error
	return ms
}

// TopKContext is TopK under a context: cancellation or deadline expiry makes
// it return promptly with ctx.Err(). The context is checked before the first
// radius search and, through SearchContext, in every one.
func TopKContext(ctx context.Context, s Searcher, text string, k, maxDist int) ([]Match, error) {
	if k <= 0 || maxDist < 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for dist := 0; ; dist++ {
		// Grow the radius geometrically after the first misses so a far
		// nearest neighbour doesn't cost maxDist searches.
		radius := dist
		if dist > 2 {
			radius = 2 << (dist - 2)
		}
		if radius > maxDist {
			radius = maxDist
		}
		ms, err := SearchContext(ctx, s, Query{Text: text, K: radius})
		if err != nil {
			return nil, err
		}
		if len(ms) >= k || radius == maxDist {
			sort.Slice(ms, func(i, j int) bool {
				if ms[i].Dist != ms[j].Dist {
					return ms[i].Dist < ms[j].Dist
				}
				return ms[i].ID < ms[j].ID
			})
			if len(ms) > k {
				ms = ms[:k]
			}
			return ms, nil
		}
	}
}

// Nearest returns the single closest dataset string within maxDist edits,
// or ok=false if none exists.
func Nearest(s Searcher, text string, maxDist int) (Match, bool) {
	ms := TopK(s, text, 1, maxDist)
	if len(ms) == 0 {
		return Match{}, false
	}
	return ms[0], true
}
