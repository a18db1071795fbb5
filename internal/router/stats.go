package router

import (
	"math"
	"sort"
	"time"

	"simsearch/internal/metrics"
)

// EngineStat is one candidate engine's routing tally.
type EngineStat struct {
	Name   string
	Routes uint64
	Built  bool
}

// RegimeStat is one regime cell's feedback state: per-engine sample counts,
// the expected-latency EWMA, the decayed-minimum floor the routing decision
// compares (see floorDecay), and the engine the model now prefers there.
type RegimeStat struct {
	Regime    string // e.g. "len<=16 k=2 sel<25%"
	Preferred string
	Samples   map[string]uint64
	EwmaUS    map[string]float64 // microseconds, for human-readable stats
	FloorUS   map[string]float64 // decayed minimum, the routing estimate
}

// Stats is a snapshot of the router's state: route counts, the explore arm's
// bounded cost, and the regime table (cells with at least one sample).
type Stats struct {
	Engines      []EngineStat
	Queries      uint64
	Explores     uint64
	ExploreRatio float64
	ExploreBusy  time.Duration
	Busy         time.Duration
	Regimes      []RegimeStat
}

// regimeLabel renders regime index r as its human-readable bucket triple.
func regimeLabel(r int) string {
	sel := r % numSelBuckets
	kb := (r / numSelBuckets) % numKBuckets
	lb := r / (numSelBuckets * numKBuckets)
	return lenLabels[lb] + " " + kLabels[kb] + " " + selLabels[sel]
}

// Stats snapshots the router. Counters are read individually with atomic
// loads; under concurrent traffic the snapshot is consistent enough for
// observability (no cross-counter invariant is claimed).
func (e *Engine) Stats() Stats {
	st := Stats{Queries: e.counter.Load(), Explores: e.explores.Load()}
	st.Busy = time.Duration(e.busy.Load())
	st.ExploreBusy = time.Duration(e.exploreBusy.Load())
	if st.Queries > 0 {
		st.ExploreRatio = float64(st.Explores) / float64(st.Queries)
	}
	for id := engineID(0); id < numEngines; id++ {
		st.Engines = append(st.Engines, EngineStat{
			Name:   engineNames[id],
			Routes: e.routes[id].Load(),
			Built:  e.built[id].Load(),
		})
	}
	for r := 0; r < numRegimes; r++ {
		var rs *RegimeStat
		bestCost := 0.0
		for id := engineID(0); id < numEngines; id++ {
			cell := int(id)*numRegimes + r
			s := e.samples[cell].Load()
			if s == 0 {
				continue
			}
			if rs == nil {
				rs = &RegimeStat{
					Regime:  regimeLabel(r),
					Samples: map[string]uint64{},
					EwmaUS:  map[string]float64{},
					FloorUS: map[string]float64{},
				}
			}
			fl := math.Float64frombits(e.floor[cell].Load()) / 1e3
			rs.Samples[engineNames[id]] = s
			rs.EwmaUS[engineNames[id]] = math.Float64frombits(e.ewma[cell].Load()) / 1e3
			rs.FloorUS[engineNames[id]] = fl
			if rs.Preferred == "" || fl < bestCost {
				rs.Preferred, bestCost = engineNames[id], fl
			}
		}
		if rs != nil {
			st.Regimes = append(st.Regimes, *rs)
		}
	}
	return st
}

// Merge combines snapshots from several routers (the sharded path holds one
// per shard) into one aggregate: counters sum, regime cells merge by bucket
// label with sample-weighted EWMA averages and the minimum of the floors.
func Merge(sts ...Stats) Stats {
	if len(sts) == 1 {
		return sts[0]
	}
	out := Stats{}
	engines := map[string]*EngineStat{}
	var engineOrder []string
	type cellAcc struct {
		samples  uint64
		weighted float64
		floor    float64
	}
	regimes := map[string]map[string]*cellAcc{}
	var regimeOrder []string
	for _, st := range sts {
		out.Queries += st.Queries
		out.Explores += st.Explores
		out.Busy += st.Busy
		out.ExploreBusy += st.ExploreBusy
		for _, es := range st.Engines {
			cur := engines[es.Name]
			if cur == nil {
				cur = &EngineStat{Name: es.Name}
				engines[es.Name] = cur
				engineOrder = append(engineOrder, es.Name)
			}
			cur.Routes += es.Routes
			cur.Built = cur.Built || es.Built
		}
		for _, rs := range st.Regimes {
			cells := regimes[rs.Regime]
			if cells == nil {
				cells = map[string]*cellAcc{}
				regimes[rs.Regime] = cells
				regimeOrder = append(regimeOrder, rs.Regime)
			}
			for name, s := range rs.Samples {
				acc := cells[name]
				if acc == nil {
					acc = &cellAcc{floor: math.Inf(1)}
					cells[name] = acc
				}
				acc.samples += s
				acc.weighted += float64(s) * rs.EwmaUS[name]
				if fl := rs.FloorUS[name]; fl < acc.floor {
					acc.floor = fl
				}
			}
		}
	}
	if out.Queries > 0 {
		out.ExploreRatio = float64(out.Explores) / float64(out.Queries)
	}
	for _, name := range engineOrder {
		out.Engines = append(out.Engines, *engines[name])
	}
	sort.Strings(regimeOrder)
	for _, label := range regimeOrder {
		rs := RegimeStat{
			Regime:  label,
			Samples: map[string]uint64{},
			EwmaUS:  map[string]float64{},
			FloorUS: map[string]float64{},
		}
		bestCost := 0.0
		var names []string
		for name := range regimes[label] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			acc := regimes[label][name]
			rs.Samples[name] = acc.samples
			rs.EwmaUS[name] = acc.weighted / float64(acc.samples)
			rs.FloorUS[name] = acc.floor
			if rs.Preferred == "" || acc.floor < bestCost {
				rs.Preferred, bestCost = name, acc.floor
			}
		}
		out.Regimes = append(out.Regimes, rs)
	}
	return out
}

// RegisterMetrics exposes the router's counters on reg under
// simsearch_router_* names (picked up by the httpapi decorator-chain walk
// for directly served routers).
func (e *Engine) RegisterMetrics(reg *metrics.Registry) {
	RegisterMetrics(reg, e)
}

// RegisterMetrics exposes the summed counters of one or more routers (the
// sharded serving path holds one per shard) on reg. Values are read at
// scrape time, so registration order relative to traffic does not matter.
func RegisterMetrics(reg *metrics.Registry, routers ...*Engine) {
	for id := engineID(0); id < numEngines; id++ {
		id := id
		reg.CounterFunc("simsearch_router_routes_total",
			"Queries routed per candidate engine.",
			func() float64 {
				var v uint64
				for _, e := range routers {
					v += e.routes[id].Load()
				}
				return float64(v)
			}, metrics.L("engine", engineNames[id]))
	}
	reg.CounterFunc("simsearch_router_explore_total",
		"Queries sent through the explore arm to refresh stale estimates.",
		func() float64 {
			var v uint64
			for _, e := range routers {
				v += e.explores.Load()
			}
			return float64(v)
		})
	reg.CounterFunc("simsearch_router_busy_seconds_total",
		"Engine-seconds spent serving routed queries.",
		func() float64 {
			var ns int64
			for _, e := range routers {
				ns += e.busy.Load()
			}
			return float64(ns) / 1e9
		})
	reg.CounterFunc("simsearch_router_explore_busy_seconds_total",
		"Engine-seconds spent on the explore arm (its bounded cost).",
		func() float64 {
			var ns int64
			for _, e := range routers {
				ns += e.exploreBusy.Load()
			}
			return float64(ns) / 1e9
		})
	reg.GaugeFunc("simsearch_router_engines_built",
		"Candidate engines built so far (lazy construction).",
		func() float64 {
			var v int
			for _, e := range routers {
				for id := engineID(0); id < numEngines; id++ {
					if e.built[id].Load() {
						v++
					}
				}
			}
			return float64(v)
		})
	reg.GaugeFunc("simsearch_router_regimes_active",
		"Regime cells with at least one feedback sample.",
		func() float64 {
			var v int
			for _, e := range routers {
				for r := 0; r < numRegimes; r++ {
					for id := engineID(0); id < numEngines; id++ {
						if e.samples[int(id)*numRegimes+r].Load() > 0 {
							v++
							break
						}
					}
				}
			}
			return float64(v)
		})
}
