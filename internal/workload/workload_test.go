package workload

import (
	"math"
	"testing"
)

func TestMixValidity(t *testing.T) {
	for _, m := range []Mix{MixI5D5F90, MixI50D50, MixI15D15F70, MixI10D10R80} {
		if !m.Valid() {
			t.Errorf("paper mix %v invalid", m)
		}
	}
	if (Mix{InsertPct: 50, DeletePct: 49}).Valid() {
		t.Error("mix summing to 99 should be invalid")
	}
	if (Mix{InsertPct: -5, DeletePct: 105}).Valid() {
		t.Error("negative percentage should be invalid")
	}
}

func TestMixString(t *testing.T) {
	if got := MixI5D5F90.String(); got != "i5-d5-f90" {
		t.Errorf("got %q", got)
	}
	if got := MixI10D10R80.String(); got != "i10-d10-r80" {
		t.Errorf("got %q", got)
	}
}

func TestGeneratorRatios(t *testing.T) {
	g := NewGenerator(MixI5D5F90, 1000, 42)
	const n = 200000
	var counts [4]int
	for i := 0; i < n; i++ {
		op := g.Next()
		counts[op.Kind]++
		if op.Key >= 1000 {
			t.Fatalf("key %d out of range", op.Key)
		}
	}
	check := func(kind OpKind, wantPct float64) {
		got := 100 * float64(counts[kind]) / n
		if math.Abs(got-wantPct) > 1.0 {
			t.Errorf("%v: %.2f%%, want ~%.0f%%", kind, got, wantPct)
		}
	}
	check(OpInsert, 5)
	check(OpDelete, 5)
	check(OpFind, 90)
	check(OpReplace, 0)
}

func TestGeneratorReplaceMix(t *testing.T) {
	g := NewGenerator(MixI10D10R80, 100, 7)
	const n = 100000
	replaces := 0
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.Kind == OpReplace {
			replaces++
			if op.Key2 >= 100 {
				t.Fatalf("replace key2 %d out of range", op.Key2)
			}
		}
	}
	if pct := 100 * float64(replaces) / n; math.Abs(pct-80) > 1.0 {
		t.Errorf("replace fraction %.2f%%, want ~80%%", pct)
	}
}

func TestSequenceGeneratorRuns(t *testing.T) {
	// The non-uniform generator must emit runs of consecutive keys.
	g := NewSequenceGenerator(MixI50D50, 1<<20, 50, 3)
	prev := g.Next().Key
	consecutive := 0
	total := 0
	for i := 0; i < 5000; i++ {
		k := g.Next().Key
		if k == prev+1 {
			consecutive++
		}
		total++
		prev = k
	}
	// Within a run of 50, 49 of 50 steps are +1; run switches break it.
	if frac := float64(consecutive) / float64(total); frac < 0.9 {
		t.Errorf("consecutive-step fraction %.2f, want > 0.9", frac)
	}
}

func TestSequenceGeneratorWrapsRange(t *testing.T) {
	g := NewSequenceGenerator(MixI50D50, 64, 50, 99)
	for i := 0; i < 10000; i++ {
		if k := g.Next().Key; k >= 64 {
			t.Fatalf("key %d escaped range", k)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(MixI50D50, 1000, 5)
	b := NewGenerator(MixI50D50, 1000, 5)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewGenerator(MixI50D50, 1000, 6)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 100 {
		t.Errorf("different seeds produced %d/1000 identical ops", same)
	}
}

// mapSet is the smallest set Prefill can fill.
type mapSet map[uint64]bool

func (s mapSet) Insert(k uint64) bool {
	if s[k] {
		return false
	}
	s[k] = true
	return true
}

func TestPrefillRoughlyHalf(t *testing.T) {
	s := mapSet{}
	Prefill(s, 10000, 1)
	n := 0
	for k := range s {
		if k >= 10000 {
			t.Fatalf("prefill inserted %d, outside the key range", k)
		}
		n++
	}
	if n < 4500 || n > 5500 {
		t.Errorf("prefill left %d/10000 keys, want ~5000", n)
	}
}

func TestOpKindString(t *testing.T) {
	if OpInsert.String() != "insert" || OpReplace.String() != "replace" {
		t.Error("OpKind.String broken")
	}
	if OpKind(9).String() == "" {
		t.Error("unknown OpKind should render")
	}
}
