package kv

import (
	"math/rand"
	"sort"
	"testing"
)

func TestOrderedQueriesBasic(t *testing.T) {
	tr := mustNew(t, 8)
	if _, ok := tr.Min(); ok {
		t.Error("Min on empty trie should report absent")
	}
	if _, ok := tr.Max(); ok {
		t.Error("Max on empty trie should report absent")
	}
	for _, k := range []uint64{10, 200, 55} {
		tr.Insert(k)
	}
	if k, ok := tr.Min(); !ok || k != 10 {
		t.Errorf("Min = %d,%v want 10", k, ok)
	}
	if k, ok := tr.Max(); !ok || k != 200 {
		t.Errorf("Max = %d,%v want 200", k, ok)
	}
	if k, ok := tr.Ceiling(11); !ok || k != 55 {
		t.Errorf("Ceiling(11) = %d,%v want 55", k, ok)
	}
	if k, ok := tr.Ceiling(55); !ok || k != 55 {
		t.Errorf("Ceiling(55) = %d,%v want 55", k, ok)
	}
	if _, ok := tr.Ceiling(201); ok {
		t.Error("Ceiling(201) should be absent")
	}
	if k, ok := tr.Floor(54); !ok || k != 10 {
		t.Errorf("Floor(54) = %d,%v want 10", k, ok)
	}
	if k, ok := tr.Floor(255); !ok || k != 200 {
		t.Errorf("Floor(255) = %d,%v want 200", k, ok)
	}
	if _, ok := tr.Floor(9); ok {
		t.Error("Floor(9) should be absent")
	}
}

func TestOrderedQueriesBoundaryWidths(t *testing.T) {
	// Extreme widths: 1-bit space {0,1} and the full 63-bit space.
	tr1 := mustNew(t, 1)
	tr1.Insert(0)
	tr1.Insert(1)
	if k, ok := tr1.Min(); !ok || k != 0 {
		t.Errorf("width1 Min = %d,%v", k, ok)
	}
	if k, ok := tr1.Max(); !ok || k != 1 {
		t.Errorf("width1 Max = %d,%v", k, ok)
	}

	tr63 := mustNew(t, 63)
	big := uint64(1)<<63 - 1
	tr63.Insert(0)
	tr63.Insert(big)
	if k, ok := tr63.Max(); !ok || k != big {
		t.Errorf("width63 Max = %d,%v", k, ok)
	}
	if k, ok := tr63.Ceiling(1); !ok || k != big {
		t.Errorf("width63 Ceiling(1) = %d,%v", k, ok)
	}
}

func TestOrderedQueriesOracle(t *testing.T) {
	tr := mustNew(t, 10)
	rng := rand.New(rand.NewSource(5))
	present := make(map[uint64]bool)
	for i := 0; i < 300; i++ {
		k := rng.Uint64() % 1024
		if rng.Intn(3) == 0 {
			tr.Delete(k)
			delete(present, k)
		} else {
			tr.Insert(k)
			present[k] = true
		}
	}
	sorted := make([]uint64, 0, len(present))
	for k := range present {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	for probe := uint64(0); probe < 1024; probe += 7 {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= probe })
		gotK, gotOK := tr.Ceiling(probe)
		if wantOK := i < len(sorted); gotOK != wantOK || (gotOK && gotK != sorted[i]) {
			t.Fatalf("Ceiling(%d) = %d,%v; oracle %v", probe, gotK, gotOK, sorted[i:min(i+1, len(sorted))])
		}
		j := sort.Search(len(sorted), func(i int) bool { return sorted[i] > probe }) - 1
		gotK, gotOK = tr.Floor(probe)
		if wantOK := j >= 0; gotOK != wantOK || (gotOK && gotK != sorted[j]) {
			t.Fatalf("Floor(%d) = %d,%v; oracle j=%d", probe, gotK, gotOK, j)
		}
	}
}

// (TestOrderedSkipsLogicallyRemoved, which fabricates a replace
// descriptor by hand, lives in internal/engine with the rest of the
// white-box protocol tests.)
