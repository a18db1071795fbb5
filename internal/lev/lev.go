// Package lev implements a Levenshtein automaton: a deterministic automaton
// that accepts exactly the strings within edit distance k of a fixed query.
// Mature search engines use this construction for fuzzy term matching. No
// engine, paper table or benchmark workload runs it any more: the scan it
// once drove lost to the words sweep on every Table XI cell (EXPERIMENTS.md),
// and the package stands alone, checked against the DP by its own tests,
// until it is deleted.
//
// The implementation is the lazy-DFA form: the nondeterministic automaton's
// state — the set of (position, errors) pairs, which after subsumption is
// exactly a clamped banded DP row — is normalized relative to its leftmost
// live position, and transitions are memoized keyed on (normalized state,
// characteristic vector of the input byte over the state's window). After
// warm-up, stepping one byte is a single map lookup regardless of query
// length.
package lev

// Automaton recognizes strings within distance k of the query. It is safe
// for concurrent use only after all states it will visit have been cached;
// for concurrent matching give each goroutine its own Automaton.
type Automaton struct {
	q string
	k int

	// states interns normalized states; state 0 is the dead state.
	states []stateData
	intern map[string]int
	// trans memoizes transitions and the base shift each one causes.
	trans  map[transKey]int
	shifts map[transKey]int
	start  State
}

// State is a handle into the automaton's interned state table, paired with
// the absolute base position the normalized values are relative to.
type State struct {
	id   int
	base int
}

type stateData struct {
	vals []uint8 // clamped row values for positions base..base+len-1
}

type transKey struct {
	id    int
	class uint64
	// end is the distance from the state's base to the end of the query,
	// capped at the window size. Successor rows are truncated at the query
	// end, so states at different distances from the end can have different
	// successors even when their value vectors and character classes agree;
	// end in the key keeps the memoization sound.
	end int
}

// windowSize is the number of query positions a transition can inspect:
// the live band is at most 2k+1 wide and a step can extend it by one.
func (a *Automaton) windowSize() int { return 2*a.k + 2 }

// New builds the automaton for query and threshold k (k >= 0).
func New(query string, k int) *Automaton {
	if k < 0 {
		k = 0
	}
	a := &Automaton{
		q:      query,
		k:      k,
		intern: make(map[string]int),
		trans:  make(map[transKey]int),
		shifts: make(map[transKey]int),
	}
	a.states = append(a.states, stateData{}) // id 0 = dead
	// Initial state: row value j at position j for j <= k.
	n := k + 1
	if n > len(query)+1 {
		n = len(query) + 1
	}
	vals := make([]uint8, n)
	for j := 0; j < n; j++ {
		vals[j] = uint8(j)
	}
	a.start = State{id: a.internState(vals), base: 0}
	return a
}

// Start returns the initial state.
func (a *Automaton) Start() State { return a.start }

// Dead reports whether no extension of the consumed input can ever match.
func (a *Automaton) Dead(s State) bool { return s.id == 0 }

// internState normalizes (trims positions with value > k at both ends) and
// interns the value vector, returning its id. An empty trimmed vector is the
// dead state. The base adjustment from leading trims is returned via the
// second result.
func (a *Automaton) internState(vals []uint8) int {
	id, _ := a.internStateShift(vals)
	return id
}

func (a *Automaton) internStateShift(vals []uint8) (int, int) {
	lo := 0
	cap8 := uint8(a.k + 1)
	for lo < len(vals) && vals[lo] >= cap8 {
		lo++
	}
	hi := len(vals)
	for hi > lo && vals[hi-1] >= cap8 {
		hi--
	}
	trimmed := vals[lo:hi]
	if len(trimmed) == 0 {
		return 0, lo
	}
	key := string(trimmed)
	if id, ok := a.intern[key]; ok {
		return id, lo
	}
	id := len(a.states)
	a.states = append(a.states, stateData{vals: append([]uint8(nil), trimmed...)})
	a.intern[key] = id
	return id, lo
}

// classOf computes the characteristic vector of c over the query window
// starting at base: bit j is set iff q[base+j] == c.
func (a *Automaton) classOf(c byte, base int) uint64 {
	var bits uint64
	w := a.windowSize()
	for j := 0; j < w; j++ {
		p := base + j
		if p >= len(a.q) {
			break
		}
		if a.q[p] == c {
			bits |= 1 << uint(j)
		}
	}
	return bits
}

// Step consumes one byte.
func (a *Automaton) Step(s State, c byte) State {
	if s.id == 0 {
		return s
	}
	class := a.classOf(c, s.base)
	end := len(a.q) - s.base
	if w := a.windowSize(); end > w {
		end = w
	}
	key := transKey{id: s.id, class: class, end: end}
	if nextID, ok := a.trans[key]; ok {
		return State{id: nextID, base: s.base + a.shifts[key]}
	}
	// Compute the successor row. Current state covers positions
	// [base, base+len); the successor can cover [base, base+len+1).
	cur := a.states[s.id].vals
	cap8 := uint8(a.k + 1)
	out := make([]uint8, len(cur)+1)
	for j := range out {
		out[j] = cap8
	}
	// out[j] corresponds to absolute position base+j.
	for j := 0; j < len(out); j++ {
		best := cap8
		// Insertion (consume c without advancing the query): cur[j]+1.
		if j < len(cur) {
			if v := cur[j] + 1; v < best {
				best = v
			}
		}
		if j > 0 {
			// Match or substitution from cur[j-1].
			v := cur[j-1]
			if class&(1<<uint(j-1)) == 0 {
				v++
			}
			if v < best {
				best = v
			}
			// Deletion (advance the query without consuming): out[j-1]+1.
			if v := out[j-1] + 1; v < best {
				best = v
			}
		}
		if best > cap8 {
			best = cap8
		}
		out[j] = best
	}
	// Trim positions beyond the query.
	maxLen := len(a.q) - s.base + 1
	if len(out) > maxLen {
		out = out[:maxLen]
	}
	nextID, shift := a.internStateShift(out)
	a.trans[key] = nextID
	a.shifts[key] = shift
	return State{id: nextID, base: s.base + shift}
}

// IsMatch reports whether the input consumed so far is within distance k of
// the whole query.
func (a *Automaton) IsMatch(s State) bool {
	d, ok := a.Distance(s)
	return ok && d <= a.k
}

// Distance returns the edit distance between the consumed input and the
// query, if it is within k.
func (a *Automaton) Distance(s State) (int, bool) {
	if s.id == 0 {
		return 0, false
	}
	vals := a.states[s.id].vals
	// The distance is the row value at the final query position; positions
	// short of the end would still need len(q)-p deletions.
	p := len(a.q) - s.base
	if p < 0 || p >= len(vals) {
		return 0, false
	}
	if int(vals[p]) > a.k {
		return 0, false
	}
	return int(vals[p]), true
}

// MatchString runs the automaton over input from the start state.
func (a *Automaton) MatchString(input string) bool {
	s := a.Start()
	for i := 0; i < len(input); i++ {
		s = a.Step(s, input[i])
		if a.Dead(s) {
			return false
		}
	}
	return a.IsMatch(s)
}

// MatchDistance runs the automaton and returns the distance if within k.
func (a *Automaton) MatchDistance(input string) (int, bool) {
	s := a.Start()
	for i := 0; i < len(input); i++ {
		s = a.Step(s, input[i])
		if a.Dead(s) {
			return 0, false
		}
	}
	return a.Distance(s)
}

// StateCount reports how many distinct normalized states have been interned
// (including the dead state) — a measure of the lazy DFA's size.
func (a *Automaton) StateCount() int { return len(a.states) }
