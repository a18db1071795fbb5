package edit

import (
	"strings"
	"testing"
)

// Fuzz targets: run as plain unit tests over the seed corpus during
// `go test`, and explore further under `go test -fuzz=Fuzz...`.

func FuzzKernelsAgree(f *testing.F) {
	f.Add("AGGCGT", "AGAGT", uint8(2))
	f.Add("", "", uint8(0))
	f.Add("kitten", "sitting", uint8(3))
	f.Add("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "a", uint8(16))
	// Seeds on both sides of every dispatch edge of the compiled kernels:
	// k = 31 is the band kernel's last threshold and 32 the blocked kernel's
	// first, m = 64/65 and 128/129 cross a word of the pattern bitset, |m-n| = k
	// puts the target diagonal on the band's edge, n = 1 is one column.
	acgt := func(n int) string { return strings.Repeat("ACGT", n/4+1)[:n] }
	for _, m := range []int{64, 65, 128, 129} {
		for _, k := range []uint8{31, 32} {
			f.Add(acgt(m), acgt(m)[:m-int(k)], k)     // |m-n| = k, a pure prefix
			f.Add(acgt(m), acgt(m + 3)[3:], k)        // same length, shifted by 3
			f.Add(acgt(m), strings.Repeat("T", m), k) // 3m/4 mismatches
			f.Add(acgt(m), acgt(m)[:m/2]+"N"+acgt(m)[m/2:], k)
		}
	}
	f.Add(acgt(32), "A", uint8(31))
	f.Add(acgt(33), "G", uint8(32))
	f.Add("A", acgt(32), uint8(31))
	f.Add("\x80\xff", "\xff\x80\xff", uint8(1))
	f.Fuzz(func(t *testing.T, a, b string, kRaw uint8) {
		if len(a) > 256 || len(b) > 256 {
			return
		}
		k := int(kRaw % 40)
		want := Distance(a, b)
		if got := DistanceFullMatrix(a, b); got != want {
			t.Fatalf("full matrix %d != two-row %d", got, want)
		}
		if got := MyersDistance(a, b); got != want {
			t.Fatalf("myers %d != %d for %q/%q", got, want, a, b)
		}
		d, ok := BoundedDistance(a, b, k)
		pd, pok := PaperBoundedDistance(a, b, k)
		if ok != (want <= k) {
			t.Fatalf("banded ok=%v but distance %d, k %d", ok, want, k)
		}
		if ok && d != want {
			t.Fatalf("banded %d != %d", d, want)
		}
		if pok != ok || (ok && pd != d) {
			t.Fatalf("paper kernel (%d,%v) != banded (%d,%v)", pd, pok, d, ok)
		}
		// The query-compiled bounded kernel must agree in both operand
		// orders (it is not symmetric in pattern/text like the others).
		var scratch MyersScratch
		for _, pair := range [2][2]string{{a, b}, {b, a}} {
			p := CompileMyers(pair[0])
			cd, cok := p.BoundedDistance(pair[1], k, &scratch)
			if cok != (want <= k) {
				t.Fatalf("compiled ok=%v but distance %d, k %d (%q vs %q)", cok, want, k, pair[0], pair[1])
			}
			if cok && cd != want {
				t.Fatalf("compiled %d != %d (%q vs %q)", cd, want, pair[0], pair[1])
			}
			if bd, bok := p.BoundedDistanceBytes([]byte(pair[1]), k, &scratch); bok != cok || bd != cd {
				t.Fatalf("bytes kernel (%d,%v) != string kernel (%d,%v)", bd, bok, cd, cok)
			}
			if got := p.Distance(pair[1], &scratch); got != want {
				t.Fatalf("compiled Distance %d != %d", got, want)
			}
		}
		if got := MyersWithinK(a, b, k); got != (want <= k) {
			t.Fatalf("MyersWithinK=%v, distance %d, k %d", got, want, k)
		}
	})
}

func FuzzOpsRoundTrip(f *testing.F) {
	f.Add("AGGCGT", "AGAGT")
	f.Add("", "abc")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 128 || len(b) > 128 {
			return
		}
		ops := Ops(a, b)
		if got := Apply(a, ops); got != b {
			t.Fatalf("Apply(%q, Ops) = %q, want %q", a, got, b)
		}
		if Cost(ops) != Distance(a, b) {
			t.Fatalf("Cost %d != Distance %d", Cost(ops), Distance(a, b))
		}
	})
}
