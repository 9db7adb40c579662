package engine

import (
	"math"
	"math/rand"
	"testing"

	"nbtrie/internal/keys"
)

// TestCensusMatchesTheory holds the trie's shape to the Patricia analysis.
// It inserts 2n keys drawn uniformly from a 63-bit U64Codec space and
// deletes a random n of them, at span 1 and span 4; the n left are
// uniform again, and a Patricia trie's shape depends only on its keys,
// so the census must give the mean leaf depth and the internal-node
// count that UniformShape predicts for n keys, the U64Codec root level
// included. Both are additive functionals of the trie, asymptotically
// normal with variance linear in n (Ischebeck, PAPERS.md), so the band
// is a CLT band: four standard deviations at n·Var(mean depth) = 1 and
// Var(internal)/n = 1/4. Measured over spans 1, 2 and 4 and n from 8 to
// 2^14, 200 to 50,000 tries each, the first read 0.30–0.45 and the second
// 0.06–0.08, and every mean was within 1.3 standard errors of its
// prediction once the lower dummy's node was counted. At span 1 the
// count is exact: n + 1 internal nodes over n + 2 leaves. A delete that
// leaves a one-child node behind adds a level above every key under it
// (all three checks fail: mean depth 18.33 at span 1).
func TestCensusMatchesTheory(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(51))
	c := keys.U64Codec{Width: 63}
	ks := make([]keys.Uint64Key, 0, 2*n)
	seen := make(map[uint64]bool, 2*n)
	for len(ks) < 2*n {
		if k := rng.Uint64() >> 1; !seen[k] {
			seen[k] = true
			e, _ := c.Encode(k)
			ks = append(ks, e)
		}
	}
	for _, span := range []uint32{1, 4} {
		lo, hi := c.Bounds()
		tr := New[keys.Uint64Key, struct{}](lo, hi, WithSpan[keys.Uint64Key, struct{}](span))
		for _, k := range ks {
			tr.Insert(k)
		}
		for _, i := range rng.Perm(2 * n)[:n] {
			tr.Delete(ks[i])
		}
		f := tr.Footprint()
		depth, internal := UniformShape(n, span)
		t.Logf("span %d, %d keys: mean leaf depth %.4f (predicted %.4f), %d internal nodes (predicted %.1f)",
			span, n, f.MeanLeafDepth(), depth, f.Internal, internal)
		if f.Leaves != n+2 {
			t.Fatalf("span %d: %d leaves, want %d", span, f.Leaves, n+2)
		}
		if band := 4 * math.Sqrt(1.0/n); math.Abs(f.MeanLeafDepth()-depth) > band {
			t.Errorf("span %d: mean leaf depth %.4f, want %.4f ± %.4f", span, f.MeanLeafDepth(), depth, band)
		}
		if band := 4 * math.Sqrt(0.25*n); math.Abs(float64(f.Internal)-internal) > band {
			t.Errorf("span %d: %d internal nodes, want %.1f ± %.1f", span, f.Internal, internal, band)
		}
		if span == 1 && f.Internal != n+1 {
			t.Errorf("span 1: %d internal nodes, want exactly %d", f.Internal, n+1)
		}
	}
	// At span 1 the prediction is the Patricia asymptotic log2 n + 0.33
	// plus the root level.
	if d, _ := UniformShape(n, 1); math.Abs(d-(math.Log2(n)+0.3327+1)) > 0.001 {
		t.Errorf("UniformShape(%d, 1) = %.4f, want log2 n + 1.3327", n, d)
	}
}
