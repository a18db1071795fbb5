package edit

import (
	"math/rand"
	"slices"
	"testing"
)

func TestInitialRow(t *testing.T) {
	row := InitialRow("abc")
	want := []int{0, 1, 2, 3}
	if len(row) != len(want) {
		t.Fatalf("len = %d, want %d", len(row), len(want))
	}
	for i := range want {
		if row[i] != want[i] {
			t.Errorf("row[%d] = %d, want %d", i, row[i], want[i])
		}
	}
}

func TestStepRowMatchesMatrix(t *testing.T) {
	q := "AGAGT"
	data := "AGGCGT"
	m := matrix(data, q)
	row := InitialRow(q)
	for i := 0; i < len(data); i++ {
		row = StepRow(q, row, data[i], nil)
		for j := 0; j <= len(q); j++ {
			if row[j] != m[i+1][j] {
				t.Fatalf("row %d cell %d = %d, want %d", i+1, j, row[j], m[i+1][j])
			}
		}
	}
	if RowDistance(row) != 2 {
		t.Errorf("RowDistance = %d, want 2", RowDistance(row))
	}
}

func TestStepRowSiblingIndependence(t *testing.T) {
	// Two children stepping from the same parent row must not interfere.
	q := "berlin"
	parent := InitialRow(q)
	parent = StepRow(q, parent, 'b', nil)
	c1 := StepRow(q, parent, 'e', nil)
	c2 := StepRow(q, parent, 'x', nil)
	if RowDistance(c1) != Distance("be", q) {
		t.Errorf("c1 distance = %d, want %d", RowDistance(c1), Distance("be", q))
	}
	if RowDistance(c2) != Distance("bx", q) {
		t.Errorf("c2 distance = %d, want %d", RowDistance(c2), Distance("bx", q))
	}
}

func TestRowMinIsLowerBound(t *testing.T) {
	// The minimum of a prefix row lower-bounds the distance from the query to
	// any extension of the prefix: the bound the trie's descent prunes on.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		q := randomString(r, "abcAB", 12)
		prefix := randomString(r, "abcAB", 6)
		suffix := randomString(r, "abcAB", 6)
		row := InitialRow(q)
		for j := 0; j < len(prefix); j++ {
			row = StepRow(q, row, prefix[j], nil)
		}
		lb := slices.Min(row)
		full := Distance(prefix+suffix, q)
		if lb > full {
			t.Fatalf("row minimum %d > Distance(%q, %q) = %d", lb, prefix+suffix, q, full)
		}
	}
}

func TestStepRowReusesBuffer(t *testing.T) {
	q := "abcd"
	row := InitialRow(q)
	buf := make([]int, len(q)+1)
	out := StepRow(q, row, 'a', buf)
	if &out[0] != &buf[0] {
		t.Error("StepRow did not reuse the provided buffer")
	}
	small := make([]int, 1)
	out2 := StepRow(q, row, 'a', small)
	if len(out2) != len(q)+1 {
		t.Errorf("len = %d, want %d", len(out2), len(q)+1)
	}
}
