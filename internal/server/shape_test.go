package server

import (
	"math"
	"strconv"
	"testing"

	"nbtrie/internal/engine"
	"nbtrie/internal/keys"
)

// TestKeyspaceShape holds the server's keyspace to the Patricia analysis.
// It builds the trie that Map builds for the keyspace (U64Codec at the
// keyer's width, span 1) from the wire keys the srv-* benchmark workloads
// prefill, the decimal spellings of every other key in [0, 100000), and
// requires the mean leaf depth that engine.UniformShape predicts for as
// many uniform keys, within the band of the engine's own oracle
// (TestCensusMatchesTheory). Packed ASCII without the mix shares most of
// its bits: the same keys unmixed build a trie 20.64 levels deep where
// 16.94 are predicted.
func TestKeyspaceShape(t *testing.T) {
	c := keys.U64Codec{Width: BytesKeyer{}.Width()}
	lo, hi := c.Bounds()
	tr := engine.New[keys.Uint64Key, struct{}](lo, hi)
	n := 0
	for k := 0; k < 100_000; k += 2 {
		e, ok := c.Encode(mustEncode(t, strconv.Itoa(k)))
		if !ok || !tr.Insert(e) {
			t.Fatalf("key %d: encoded %v, inserted false", k, ok)
		}
		n++
	}
	f := tr.Footprint()
	depth, _ := engine.UniformShape(n, 1)
	band := 4 * math.Sqrt(1/float64(n))
	t.Logf("%d wire keys: mean leaf depth %.4f, predicted %.4f ± %.4f", n, f.MeanLeafDepth(), depth, band)
	if math.Abs(f.MeanLeafDepth()-depth) > band {
		t.Errorf("mean leaf depth %.4f, want %.4f ± %.4f", f.MeanLeafDepth(), depth, band)
	}
	if f.Internal != n+1 {
		t.Errorf("%d internal nodes, want %d", f.Internal, n+1)
	}
}
