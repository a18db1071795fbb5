package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockOrder infers the partial order of sync.Mutex/RWMutex acquisitions
// across the call graph of the concurrent serving packages and reports two
// hazards: a cycle in the acquired-before relation (lock A held while taking
// B somewhere, B held while taking A elsewhere — a potential deadlock under
// concurrency), and a re-acquisition of a key already held (self-deadlock
// for a Mutex; for an RWMutex, an RLock-while-RLocked deadlocks as soon as a
// writer arrives between the two). Keys are field-sensitive but
// instance-insensitive ("pkg.Type.field"), so two different instances of the
// same type share a key — conservative for ordering, and exactly the
// granularity at which the lsm store / cache flight hierarchies are
// documented.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisition order must be acyclic across call chains, and no path may re-acquire a key it already holds",
	Run:  runLockOrder,
}

// servingScope is the package set the interprocedural concurrency analyzers
// cover: everything with locks or goroutines on (or under) the serving path.
func servingScope(path string) bool {
	return pathHasSuffix(path, "internal/lsm", "internal/distrib", "internal/cache",
		"internal/exec", "internal/pool")
}

// loEdge is one acquired-before observation: `from` was held when `to` was
// acquired at pos.
type loEdge struct {
	from, to lockKey
	pos      token.Pos
	inUnit   bool
	via      []string
}

func runLockOrder(pass *Pass) {
	if !servingScope(pass.Path) {
		return
	}
	g := pass.Graph()
	var edges []loEdge
	addEdge := func(e loEdge) {
		for _, old := range edges {
			if old.from == e.from && old.to == e.to {
				return // first observation wins
			}
		}
		edges = append(edges, e)
	}

	selfReported := map[token.Pos]bool{}
	reportSelf := func(pos token.Pos, witness []string, format string, args ...interface{}) {
		if selfReported[pos] {
			return
		}
		selfReported[pos] = true
		pass.ReportWitness(pos, witness, format, args...)
	}

	// Collect edges from every function of the unit and its module-internal
	// deps; self-re-acquisitions are reported only for unit code.
	for fn, node := range g.nodes {
		inUnit := node.info == pass.Info && !pass.InTestFile(node.decl.Pos())
		label := funcLabel(fn)
		walkFuncFlow(node.info, node.decl.Body, flowHooks{
			onAcquire: func(op lockOp, held lockState) {
				for k, h := range held {
					if k == op.key {
						if inUnit {
							reportSelf(op.pos, []string{
								fmt.Sprintf("%s acquired at %s", k.short(), g.posStr(h.op.pos)),
								fmt.Sprintf("%s re-acquired at %s", k.short(), g.posStr(op.pos)),
							}, "%s re-acquires %s while already holding it (acquired at %s): self-deadlock for a Mutex, deadlock under a pending writer for an RWMutex",
								label, k.short(), g.posStr(op.pos))
						}
						continue
					}
					addEdge(loEdge{from: k, to: op.key, pos: op.pos, inUnit: inUnit,
						via: []string{fmt.Sprintf("%s: holds %s (since %s), acquires %s at %s",
							label, k.short(), g.posStr(h.op.pos), op.key.short(), g.posStr(op.pos))}})
				}
			},
			onCall: func(call *ast.CallExpr, deferred bool, held lockState, _ int) {
				if deferred || len(held) == 0 {
					return
				}
				callee := g.staticCallee(node.info, call)
				if callee == nil || g.nodeFor(callee) == nil {
					return
				}
				acq := g.mayAcquire(callee)
				if len(acq) == 0 {
					return
				}
				for k2, ai := range acq {
					for k, h := range held {
						if k == k2 {
							if inUnit {
								reportSelf(call.Pos(), append([]string{
									fmt.Sprintf("%s: holds %s (since %s), calls %s at %s",
										label, k.short(), g.posStr(h.op.pos), funcLabel(callee), g.posStr(call.Pos())),
								}, ai.chain...),
									"%s calls %s while holding %s, and the callee re-acquires it: self-deadlock for a Mutex, deadlock under a pending writer for an RWMutex",
									label, funcLabel(callee), k.short())
							}
							continue
						}
						addEdge(loEdge{from: k, to: k2, pos: call.Pos(), inUnit: inUnit,
							via: append([]string{fmt.Sprintf("%s: holds %s (since %s), calls %s at %s",
								label, k.short(), g.posStr(h.op.pos), funcLabel(callee), g.posStr(call.Pos()))},
								ai.chain...)})
					}
				}
			},
		})
	}

	reportCycles(pass, g, edges)
}

// reportCycles finds cycles in the acquired-before relation and reports each
// one once, anchored at its lexically-first in-unit edge. Cycles whose every
// edge lies in dependency packages are skipped here: they are reported when
// that package itself is analyzed.
func reportCycles(pass *Pass, g *callGraph, edges []loEdge) {
	// Sort for determinism (map iteration fed addEdge in arbitrary order).
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].pos != edges[j].pos {
			return edges[i].pos < edges[j].pos
		}
		return edges[i].from < edges[j].from
	})
	adj := map[lockKey][]loEdge{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
	}
	// For each in-unit edge, look for a path to.from — a cycle through it.
	reported := map[string]bool{}
	for _, e := range edges {
		if !e.inUnit {
			continue
		}
		path := findPath(adj, e.to, e.from, map[lockKey]bool{e.from: true})
		if path == nil {
			continue
		}
		cycle := append([]loEdge{e}, path...)
		// Canonical signature so the same cycle is reported once regardless
		// of which edge anchored it.
		keys := make([]string, 0, len(cycle))
		for _, ce := range cycle {
			keys = append(keys, string(ce.from))
		}
		sort.Strings(keys)
		sig := strings.Join(keys, "→")
		if reported[sig] {
			continue
		}
		reported[sig] = true
		names := make([]string, 0, len(cycle)+1)
		var witness []string
		for _, ce := range cycle {
			names = append(names, ce.from.short())
			witness = append(witness, ce.via...)
		}
		names = append(names, cycle[0].from.short())
		pass.ReportWitness(e.pos, witness,
			"lock-order cycle %s: these acquisitions can deadlock when the paths interleave",
			strings.Join(names, " → "))
	}
}

// findPath DFSes from `from` to `target` over adj, avoiding revisits.
func findPath(adj map[lockKey][]loEdge, from, target lockKey, seen map[lockKey]bool) []loEdge {
	if from == target {
		return []loEdge{}
	}
	if seen[from] {
		return nil
	}
	seen[from] = true
	for _, e := range adj[from] {
		if sub := findPath(adj, e.to, target, seen); sub != nil {
			return append([]loEdge{e}, sub...)
		}
	}
	return nil
}
