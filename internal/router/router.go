// Package router implements the cost-model adaptive query router: one exact
// Searcher that holds the repo's engine ladder behind a single facade and
// picks an engine **per query** instead of per dataset.
//
// The paper's core finding is that scan-vs-index dominance flips with string
// length, threshold k, and alphabet. core.Auto froze that finding into a
// build-time heuristic — one engine for the whole dataset, chosen before the
// first query arrives. The router's cold-start prior keeps core.Auto's two
// scan rules (a corpus too small to amortize a build, a threshold too
// permissive to prune) and departs from its third: where core.Auto chose the
// trie, the prior chooses the filter cascade through k = 8 and the trie past
// it, and the router refines either online. Its arms are the bit-parallel
// scan, the pruned trie and the filter cascade, on every corpus: the cascade
// packs the one arena, every length bucket ordered by its signature words,
// and the scan arm sweeps that arena bare (9 or 17 bytes per string between
// them beyond the corpus's own, not a second copy of it). The BK-tree was an arm until it had won no cell of
// Table XVII or of either benchmark corpus while costing most of the set-up;
// it stays in the tree as a fixed baseline (core.NewBKTree).
// Routing: every query is bucketed into a regime over
// (query-length bucket, k bucket, length-window selectivity bucket), routed
// to the engine with the lowest predicted cost for that regime, and the
// measured latency is fed back into a per-(engine, regime) EWMA plus a
// noise-robust decaying minimum that the routing comparison actually uses
// (see floorDecay). A
// deterministic epsilon-greedy explore arm occasionally routes a query to a
// non-preferred engine so estimates never go stale as the workload drifts;
// its cost is bounded by a backoff on engines already measured to be far
// slower and surfaced in Stats.
//
// Every candidate engine is exact, so routing is purely a speed decision:
// results are byte-identical regardless of the arm taken (enforced by
// FuzzRouterIdentical at the repo root).
package router

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"simsearch/internal/core"
	"simsearch/internal/trie"
)

// engineID indexes the candidate set. Order matters: it is the tie-break for
// equal predicted costs (earlier wins), so the scan — the paper's robust
// default — comes first.
type engineID int

const (
	engBitParallel engineID = iota
	engTrie
	engCascade
	numEngines
)

var engineNames = [numEngines]string{"bitparallel", "trie", "cascade"}

// Regime buckets. A regime is the cross product of a query-length bucket, a
// k bucket, and a selectivity bucket (fraction of the corpus inside the
// [len-k, len+k] length window, the same length-filter window the scan
// arena's slot ranges prune by). Buckets are coarse on purpose: each cell
// needs enough traffic to keep its EWMA meaningful.
const (
	numLenBuckets = 7
	numKBuckets   = 6
	numSelBuckets = 4
	numRegimes    = numLenBuckets * numKBuckets * numSelBuckets
)

var lenLabels = [numLenBuckets]string{
	"len<=4", "len<=8", "len<=16", "len<=32", "len<=64", "len<=128", "len>128",
}
var kLabels = [numKBuckets]string{"k=0", "k=1", "k=2", "k=3", "k=4..8", "k>8"}
var selLabels = [numSelBuckets]string{"sel<5%", "sel<25%", "sel<75%", "sel>=75%"}

func lenBucket(n int) int {
	switch {
	case n <= 4:
		return 0
	case n <= 8:
		return 1
	case n <= 16:
		return 2
	case n <= 32:
		return 3
	case n <= 64:
		return 4
	case n <= 128:
		return 5
	default:
		return 6
	}
}

func kBucket(k int) int {
	switch {
	case k <= 0:
		return 0
	case k == 1:
		return 1
	case k == 2:
		return 2
	case k == 3:
		return 3
	case k <= 8:
		return 4
	default:
		return 5
	}
}

func selBucket(sel float64) int {
	switch {
	case sel < 0.05:
		return 0
	case sel < 0.25:
		return 1
	case sel < 0.75:
		return 2
	default:
		return 3
	}
}

const (
	// defaultExploreEvery routes one query in 32 through the explore arm.
	defaultExploreEvery = 32
	// buildAmortization mirrors core.Auto: datasets below this size never
	// amortize an index build, so the prior keeps them on the scan.
	buildAmortization = core.BuildAmortization
	// ewmaAlpha is the feedback smoothing factor: each sample moves the
	// estimate 20% of the way to the new measurement.
	ewmaAlpha = 0.2
	// Explore backoff: once an engine has exploreBackoffSamples samples in a
	// regime and its EWMA sits above exploreBackoffRatio x the preferred
	// engine's prediction, ordinary explore slots skip it; only every
	// deepExploreEvery-th explore slot revisits it. This bounds the arm's
	// cost: a hopeless engine (the trie on long DNA reads) costs one probe per
	// exploreEvery*deepExploreEvery queries instead of a steady share.
	exploreBackoffRatio   = 4
	exploreBackoffSamples = 1
	deepExploreEvery      = 16
	// Explore budget: repeat exploration (including lazy builds it triggers)
	// may consume at most 1/exploreBudgetDiv of total engine time. The first
	// probe of an (engine, regime) cell is exempt — it is mandatory
	// information gathering, bounded to one probe per cell for the lifetime
	// of the router, and without the exemption one expensive first probe
	// would starve every other regime's first look. The backoff above limits
	// how often a known-slow arm is re-probed; the budget caps the rest.
	// Skipped when exploreEvery == 1 (the forced-exploration fuzz mode).
	exploreBudgetDiv = 20
	// Burst exploration: an isolated probe of a memory-bound engine measures
	// its cache-cold cost (every intervening query on another engine evicts
	// its working set), which can be an order of magnitude above the cost the
	// engine would have if it actually owned the regime. So an explore slot
	// commits the next exploreBurst same-regime queries to the target,
	// letting the feedback see its steady-state cost. The burst aborts as
	// soon as one sample exceeds exploreAbortRatio x the preferred engine's
	// prediction (floored at exploreAbortFloorNs so near-zero regimes don't
	// abort harmless probes), and expires after exploreBurstExpiry queries if
	// the regime stops recurring. One burst is in flight at a time; new
	// explore slots are skipped while one is pending.
	exploreBurst        = 8
	exploreAbortRatio   = 16
	exploreAbortFloorNs = 1e6
	exploreBurstExpiry  = 512
	// floorDecay governs the routing estimate. Latency noise is one-sided —
	// scheduler stalls, neighbor load and cache evictions only ever inflate a
	// sample, never deflate it — so the expected value (the EWMA) of a noisy
	// window overstates every engine, and overstates cache-sensitive engines
	// the most. Routing therefore uses a decaying minimum: each sample either
	// lowers the cell's floor or lets it drift up by floorDecay, so the floor
	// tracks the engine's achievable (quiet, cache-warm) cost and recovers
	// from genuine regressions at ~5%/sample instead of being pinned by one
	// lucky measurement forever. The EWMA is kept alongside as the expected-
	// latency estimate surfaced in Stats.
	floorDecay = 1.05
)

// Option configures a router.
type Option func(*Engine)

// WithExploreEvery sets the explore arm's period: every n-th query is a
// candidate for exploration. n == 1 explores on every query (used by the
// differential fuzz target to force all arms); n <= 0 disables exploration.
// The default is one query in 32.
func WithExploreEvery(n int) Option {
	return func(e *Engine) { e.SetExploreEvery(n) }
}

// SetExploreEvery adjusts the explore period at runtime with the same
// semantics as WithExploreEvery (n <= 0 disables the arm). Operators pause
// exploration during latency-critical windows and the benchmark pauses it
// for its timed pass; routing and feedback continue either way.
func (e *Engine) SetExploreEvery(n int) {
	if n <= 0 {
		e.exploreEvery.Store(0)
		e.burst.Store(nil) // cancel any in-flight explore burst too
	} else {
		e.exploreEvery.Store(uint64(n))
	}
}

// SetFrozen pins (true) or unpins (false) the fitted model. A frozen router
// keeps routing on its current estimates and keeps counting routes and busy
// time, but stops exploring and stops updating the per-regime estimates —
// the policy an operator validated is the policy that serves, and the
// benchmark's timed window measures the fitted policy rather than its
// drift.
func (e *Engine) SetFrozen(frozen bool) {
	e.frozen.Store(frozen)
	if frozen {
		e.burst.Store(nil)
	}
}

// Engine is the adaptive router. It implements core.Searcher and
// core.ContextSearcher; all state updates are lock-free atomics, so
// concurrent Search calls route and feed back independently.
type Engine struct {
	data []string
	n    int

	avgLen  float64
	maxLen  int
	lenPref []int32 // lenPref[l] = #strings with length < l (prefix counts)

	exploreEvery atomic.Uint64 // explore period; 0 disables the arm
	frozen       atomic.Bool   // pinned model: route, but learn nothing

	once    [numEngines]sync.Once
	engines [numEngines]core.Searcher
	built   [numEngines]atomic.Bool

	counter     atomic.Uint64 // routed queries; drives the explore schedule
	routes      [numEngines]atomic.Uint64
	explores    atomic.Uint64
	busy        atomic.Int64 // total engine-nanoseconds observed
	exploreBusy atomic.Int64
	// firstProbeBusy is the share of exploreBusy spent on each cell's first
	// probe; the budget gate charges only the remainder (see exploreBudgetDiv).
	firstProbeBusy atomic.Int64

	// burst is the in-flight explore burst, nil when idle. Updates go
	// through copy-on-write CAS; a lost race only over- or under-counts the
	// burst by a query, never corrupts it.
	burst atomic.Pointer[burstProbe]

	// Per-(engine, regime) feedback cells, float64 bits updated by CAS.
	// ewma is the expected latency (stats); floor is the decaying minimum the
	// routing decision uses (see floorDecay); samples counts observations
	// (0 means "use the prior").
	ewma    [numEngines * numRegimes]atomic.Uint64
	floor   [numEngines * numRegimes]atomic.Uint64
	samples [numEngines * numRegimes]atomic.Uint64
}

// burstProbe is one explore burst: route the next remaining queries of
// regime to engine id, aborting if a sample exceeds abortNs, giving up at
// query number expires if the regime stops recurring. firstLook records
// that the cell had no samples when the burst started (its cost is then
// exempt from the budget gate, like any first probe).
type burstProbe struct {
	regime    int
	id        engineID
	remaining int
	expires   uint64
	abortNs   float64
	firstLook bool
}

// New builds a router over data. Construction makes one cheap metadata pass
// (length histogram for the O(1) selectivity estimate); the engines
// themselves are built lazily on
// first route, so a router over a corpus that only ever sees scan-regime
// queries never pays for a trie build.
func New(data []string, opts ...Option) *Engine {
	e := &Engine{data: data, n: len(data)}
	e.exploreEvery.Store(defaultExploreEvery)
	for _, o := range opts {
		o(e)
	}
	maxLen, total := 0, 0
	for _, s := range data {
		if len(s) > maxLen {
			maxLen = len(s)
		}
		total += len(s)
	}
	e.maxLen = maxLen
	if e.n > 0 {
		e.avgLen = float64(total) / float64(e.n)
	}
	counts := make([]int32, maxLen+2)
	for _, s := range data {
		counts[len(s)+1]++
	}
	for l := 1; l < len(counts); l++ {
		counts[l] += counts[l-1]
	}
	e.lenPref = counts // lenPref[l] = #strings with length < l
	return e
}

// window returns the number of corpus strings with length in [lo, hi] — the
// candidate set after the length filter, read from the prefix counts in O(1).
func (e *Engine) window(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > e.maxLen {
		hi = e.maxLen
	}
	if lo > hi {
		return 0
	}
	return int(e.lenPref[hi+1] - e.lenPref[lo])
}

// regime maps a query to its bucket index.
func (e *Engine) regime(q core.Query) int {
	lb := lenBucket(len(q.Text))
	kb := kBucket(q.K)
	sel := 0.0
	if e.n > 0 {
		sel = float64(e.window(len(q.Text)-q.K, len(q.Text)+q.K)) / float64(e.n)
	}
	return (lb*numKBuckets+kb)*numSelBuckets + selBucket(sel)
}

// predicted returns the cost estimate (nanoseconds) for routing q's regime
// to id: the cell's decayed-minimum floor once it has feedback (robust to
// one-sided latency noise — see floorDecay), the cold-start prior before.
func (e *Engine) predicted(id engineID, r int, q core.Query) float64 {
	cell := int(id)*numRegimes + r
	if e.samples[cell].Load() > 0 {
		return math.Float64frombits(e.floor[cell].Load())
	}
	return e.prior(id, q)
}

// prior is the cold-start cost model: per-engine estimates anchored on the
// scan's cost (a fixed per-query overhead plus linear work over the
// length-window candidates). The multipliers keep core.Auto's rules where no
// filter applies — tiny datasets and permissive thresholds prefer the scan,
// an amortized dataset past the cascade's window prefers the modern trie —
// and inside the window (k <= 8, k at most half the average length) put the
// cascade first at every k: the measured wins over the bit-parallel rung
// are 10-15x at k = 1..3 and 3-10x at k = 4..6 on city names and on reads
// alike, 1.7x at k = 8 (EXPERIMENTS.md "Figure 7 revisited (2)"), and over
// the trie 2x or more from k = 0 up ("Figure 7 revisited (4)").
// Absolute values only matter relative to each other; feedback replaces
// them after the first real sample per cell.
func (e *Engine) prior(id engineID, q core.Query) float64 {
	w := float64(e.window(len(q.Text)-q.K, len(q.Text)+q.K))
	scanNs := 2000 + 60*w
	switch id {
	case engTrie:
		switch {
		case e.n < buildAmortization:
			return 2 * scanNs
		case float64(q.K) > 0.5*e.avgLen:
			// Permissive thresholds defeat index pruning (core.Auto's
			// "nearly everything matches" rule).
			return 4 * scanNs
		}
		// The pruned trie's advantage over the scan shrinks as the edit
		// band widens; the coefficients follow the trie-vs-scan speedups
		// measured across this repo's k ladders (large at k <= 1, modest by
		// k = 3). Still strictly below the scan, matching core.Auto's
		// amortized-dataset rule.
		switch q.K {
		case 0:
			return scanNs / 16
		case 1:
			return scanNs / 8
		case 2:
			return scanNs / 3
		default:
			return scanNs / 2
		}
	case engCascade:
		// The signature word beats the scan through k = 8 on both kinds of
		// corpus and is slack by k = 12 (0.9x on city names), so the window
		// ends with the k = 4..8 bucket. Inside it the prior sits below the
		// trie's at every k: over buckets ordered by their words the sweep
		// skips most of a window at k <= 1 (1.5 and 7 us against the trie's
		// 7 and 39 on 100,000 city names; 5 against 52 on reads at k = 0), so
		// the cold start is the sweep, and feedback moves a regime to the
		// trie where the trie measures faster instead of having to find its
		// way off it.
		if q.K <= 8 && e.n >= buildAmortization && float64(q.K) <= 0.5*e.avgLen {
			return scanNs / 32
		}
		return scanNs
	}
	return scanNs
}

// preferred returns the engine with the lowest predicted cost.
func (e *Engine) preferred(r int, q core.Query) engineID {
	best, bestCost := engBitParallel, math.Inf(1)
	for id := engineID(0); id < numEngines; id++ {
		if c := e.predicted(id, r, q); c < bestCost {
			best, bestCost = id, c
		}
	}
	return best
}

// decision is one routing outcome. ramp marks the cold leading samples of
// an explore burst: they are charged like any explore traffic but do not
// update the estimates — the burst exists to measure the engine's
// steady-state (cache-warm) cost, and the ramp is not that. firstLook marks
// burst traffic exempt from the budget gate (see burstProbe).
type decision struct {
	id        engineID
	regime    int
	explore   bool
	ramp      bool
	firstLook bool
}

// route picks the engine for q: the predicted-cheapest engine, except on
// explore slots (every exploreEvery-th query, deterministic — a counter, not
// randomness) where the stalest non-preferred estimate is refreshed instead.
func (e *Engine) route(q core.Query) decision {
	r := e.regime(q)
	pref := e.preferred(r, q)
	d := decision{id: pref, regime: r}
	n := e.counter.Add(1)
	every := e.exploreEvery.Load()
	if every == 0 || e.frozen.Load() {
		return d
	}
	if b := e.burst.Load(); b != nil && every > 1 {
		switch {
		case n > b.expires || b.id == pref:
			// Expired, or the burst arm has become (or was demoted from
			// being comparable to) the preferred engine — the burst did its
			// job or lost its point either way.
			e.burst.CompareAndSwap(b, nil)
		case b.regime == r:
			next := *b
			next.remaining--
			if next.remaining <= 0 {
				e.burst.CompareAndSwap(b, nil)
			} else {
				e.burst.CompareAndSwap(b, &next)
			}
			d.id, d.explore = b.id, true
			d.ramp = b.remaining > exploreBurst/2
			d.firstLook = b.firstLook
			return d
		}
		// Another regime's query while a burst is pending: route normally,
		// and start no new burst.
		return d
	}
	if n%every != 0 {
		return d
	}
	// Budget gate (skipped in the forced every-query mode): repeat
	// exploration may cost at most 1/exploreBudgetDiv of total engine time;
	// an expensive surprise closes the arm until preferred-path work
	// amortizes it. First probes are exempt — see exploreBudgetDiv.
	if every > 1 &&
		(e.exploreBusy.Load()-e.firstProbeBusy.Load())*exploreBudgetDiv > e.busy.Load() {
		return d
	}
	if alt, ok := e.explorePick(r, q, pref, n/every); ok {
		d.id, d.explore = alt, true
		if every > 1 { // forced fuzz mode stays per-query, no bursts
			abort := exploreAbortRatio * e.predicted(pref, r, q)
			if abort < exploreAbortFloorNs {
				abort = exploreAbortFloorNs
			}
			first := e.samples[int(alt)*numRegimes+r].Load() == 0
			d.ramp, d.firstLook = true, first // burst opener: coldest sample
			e.burst.Store(&burstProbe{
				regime:    r,
				id:        alt,
				remaining: exploreBurst - 1,
				expires:   n + exploreBurstExpiry,
				abortNs:   abort,
				firstLook: first,
			})
		}
	}
	return d
}

// Prime builds every engine now instead of on first route. Serving
// operators call it before taking traffic so no query pays a build; the
// benchmark calls it so builds stay excluded from timing, matching how the
// fixed rungs are built before measurement.
func (e *Engine) Prime() {
	for id := engineID(0); id < numEngines; id++ {
		e.engine(id)
	}
}

// explorePick selects the explore arm's target: the non-preferred
// engine with the fewest samples in this regime (sample counts rotate the
// choice naturally), ties broken by the lower predicted cost so the most
// promising unsampled arm is probed before expensive long shots. Engines
// already measured far slower than the preferred prediction are skipped
// except on deep slots — see the backoff constants.
func (e *Engine) explorePick(r int, q core.Query, pref engineID, tick uint64) (engineID, bool) {
	deep := tick%deepExploreEvery == 0
	prefCost := e.predicted(pref, r, q)
	best := engineID(-1)
	bestSamples := uint64(math.MaxUint64)
	bestCost := 0.0
	for id := engineID(0); id < numEngines; id++ {
		if id == pref {
			continue
		}
		cell := int(id)*numRegimes + r
		s := e.samples[cell].Load()
		if !deep && s >= exploreBackoffSamples &&
			math.Float64frombits(e.floor[cell].Load()) > exploreBackoffRatio*prefCost {
			continue
		}
		c := e.predicted(id, r, q)
		if s < bestSamples || (s == bestSamples && c < bestCost) {
			best, bestSamples, bestCost = id, s, c
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// engine returns the backend for id, building it on first use.
func (e *Engine) engine(id engineID) core.Searcher {
	e.once[id].Do(func() {
		switch id {
		case engBitParallel:
			// Sweep the cascade arm's arena bare instead of packing the corpus
			// again: the cascade packs, because the order inside a length
			// bucket is its words' and an arena is never reordered once built.
			// Serial on purpose: parallelism comes from the sharded executor
			// or the caller's batch runner, same as the exec factories.
			casc := e.engine(engCascade).(*core.Cascade)
			e.engines[id] = core.NewSequentialOver(casc.CascadeEngine().Arena(), e.data)
		case engTrie:
			e.engines[id] = core.NewTrie(e.data, true, trie.WithModernPruning())
		case engCascade:
			e.engines[id] = core.NewCascade(e.data)
		}
		e.built[id].Store(true)
	})
	return e.engines[id]
}

// observe feeds a completed search back into the cost model.
func (e *Engine) observe(d decision, took time.Duration) {
	if e.frozen.Load() {
		e.routes[d.id].Add(1)
		e.busy.Add(took.Nanoseconds())
		return
	}
	if d.ramp {
		// Cache-ramp burst sample: full explore accounting, no learning.
		e.routes[d.id].Add(1)
		e.busy.Add(took.Nanoseconds())
		e.explores.Add(1)
		e.exploreBusy.Add(took.Nanoseconds())
		if d.firstLook {
			e.firstProbeBusy.Add(took.Nanoseconds())
		}
		if b := e.burst.Load(); b != nil && b.regime == d.regime && b.id == d.id &&
			float64(took.Nanoseconds()) > b.abortNs {
			e.burst.CompareAndSwap(b, nil)
		}
		return
	}
	ns := float64(took.Nanoseconds())
	cell := int(d.id)*numRegimes + d.regime
	for {
		old := e.ewma[cell].Load()
		next := ns
		if s := e.samples[cell].Load(); s > 0 {
			// Bias-corrected: act as a cumulative mean until 1/alpha samples
			// accrue, then as a fixed-alpha EWMA. A pure EWMA seeds from the
			// first sample alone, and one noisy first measurement would
			// misroute the regime for dozens of queries before decaying.
			a := ewmaAlpha
			if inv := 1 / float64(s+1); inv > a {
				a = inv
			}
			next = (1-a)*math.Float64frombits(old) + a*ns
		}
		if e.ewma[cell].CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
	for {
		old := e.floor[cell].Load()
		next := ns
		if e.samples[cell].Load() > 0 {
			if drift := math.Float64frombits(old) * floorDecay; drift < next {
				next = drift
			}
		}
		if e.floor[cell].CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
	s := e.samples[cell].Add(1)
	e.routes[d.id].Add(1)
	e.busy.Add(took.Nanoseconds())
	if d.explore {
		e.explores.Add(1)
		e.exploreBusy.Add(took.Nanoseconds())
		if s == 1 || d.firstLook {
			e.firstProbeBusy.Add(took.Nanoseconds())
		}
		// Abort a pending burst whose arm just proved catastrophic; the one
		// sample on record is enough to back it off.
		if b := e.burst.Load(); b != nil && b.regime == d.regime && b.id == d.id &&
			float64(took.Nanoseconds()) > b.abortNs {
			e.burst.CompareAndSwap(b, nil)
		}
	}
}

// chargeBuild accounts a lazy build triggered by routing decision d: it
// counts toward the busy totals (and the explore budget, when an explore
// triggered it) but not toward the per-regime EWMA — a build is a one-time
// cost, not a per-query one.
func (e *Engine) chargeBuild(d decision, buildNs int64) {
	if buildNs <= 0 {
		return
	}
	e.busy.Add(buildNs)
	if d.explore {
		// A lazy build happens once per engine, so like a cell's first probe
		// it is charged to the surfaced totals but not to the budget gate.
		e.exploreBusy.Add(buildNs)
		e.firstProbeBusy.Add(buildNs)
	}
}

// Search implements core.Searcher: route, delegate, feed back.
func (e *Engine) Search(q core.Query) []core.Match {
	d := e.route(q)
	buildStart := time.Now()
	eng := e.engine(d.id)
	e.chargeBuild(d, time.Since(buildStart).Nanoseconds())
	start := time.Now()
	ms := eng.Search(q)
	e.observe(d, time.Since(start))
	return ms
}

// SearchContext implements core.ContextSearcher by delegating ctx to the
// routed engine (core.SearchContext runs engines lacking native support
// interruptibly). A cancelled query measures the caller's deadline, not the
// engine, so it is not fed back into the estimator.
func (e *Engine) SearchContext(ctx context.Context, q core.Query) ([]core.Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := e.route(q)
	buildStart := time.Now()
	eng := e.engine(d.id)
	e.chargeBuild(d, time.Since(buildStart).Nanoseconds())
	start := time.Now()
	ms, err := core.SearchContext(ctx, eng, q)
	if err != nil {
		return nil, err
	}
	e.observe(d, time.Since(start))
	return ms, nil
}

// Name implements core.Searcher.
func (e *Engine) Name() string { return "router" }

// Len implements core.Searcher.
func (e *Engine) Len() int { return e.n }

// Preferred returns the engine name the cost model would route q to right
// now, without routing anything: no counter bump, no explore slot, no lazy
// build. Before any feedback this is exactly the cold-start prior (facade
// tests pin it: core.Auto's scan rules, the cascade through k = 8, the trie
// past it).
func (e *Engine) Preferred(q core.Query) string {
	return engineNames[e.preferred(e.regime(q), q)]
}

// Eligible lists the engines this router can route to: all three, on every
// corpus.
func (e *Engine) Eligible() []string { return append([]string(nil), engineNames[:]...) }
