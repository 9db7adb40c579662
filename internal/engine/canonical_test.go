package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nbtrie/internal/keys"
)

// The canonical-shape oracle. A Patricia trie's shape is a function of
// its key set alone: whatever history of inserts, deletes, overwrites,
// replaces, helped updates and snapshot renewals produced it, the
// quiescent structure must be, label for label, the trie a single
// thread builds by inserting the surviving keys. Validate checks local
// invariants; this checks the global one, and it knows nothing of how
// nodes and descriptors are laid out — so it is the licence for layout
// changes: any of them must leave every Dump below unchanged.

// canonTrie is a key space the oracle runs over.
type canonTrie[K keys.Key[K]] struct {
	name     string
	new      func() *Trie[K, uint64]
	universe []K // the keys histories draw from
}

func dumpShape[K keys.Key[K], V any](t *Trie[K, V]) string {
	return t.Dump(func(label K, leaf bool) string { return fmt.Sprintf("%v leaf=%t", label, leaf) })
}

// checkCanonical compares tr, at quiescence, against a trie built
// sequentially from tr's own surviving keys (and, when want is non-nil,
// checks that those are exactly the keys the history's oracle holds).
func checkCanonical[K keys.Key[K]](t *testing.T, c canonTrie[K], tr *Trie[K, uint64], want map[int]bool) {
	t.Helper()
	if err := tr.Validate(nil); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var zero K
	var survivors []K
	tr.AscendKV(zero, func(k K, _ uint64) bool {
		survivors = append(survivors, k)
		return true
	})
	if want != nil {
		n := 0
		for i, k := range c.universe {
			if want[i] {
				n++
				if !tr.Contains(k) {
					t.Fatalf("%s: key %v of the oracle is missing", c.name, k)
				}
			}
		}
		if n != len(survivors) {
			t.Fatalf("%s: %d surviving keys, oracle holds %d", c.name, len(survivors), n)
		}
	}
	ref := c.new()
	// Insertion order must not matter either; descending is as unlike the
	// history as any.
	for i := len(survivors) - 1; i >= 0; i-- {
		if !ref.Insert(survivors[i]) {
			t.Fatalf("%s: duplicate survivor %v", c.name, survivors[i])
		}
	}
	if got, wantShape := dumpShape(tr), dumpShape(ref); got != wantShape {
		t.Errorf("%s: quiescent shape differs from the sequentially built trie over the same %d keys\n--- got\n%s--- want\n%s",
			c.name, len(survivors), got, wantShape)
	}
}

// canonSequential runs one fuzzed single-threaded history with Snapshot
// renewals interleaved.
func canonSequential[K keys.Key[K]](t *testing.T, c canonTrie[K], seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tr := c.new()
	present := make(map[int]bool)
	for step := 0; step < 4000; step++ {
		i, j := rng.Intn(len(c.universe)), rng.Intn(len(c.universe))
		k := c.universe[i]
		switch op := rng.Intn(100); {
		case op < 35:
			if tr.Insert(k) == present[i] {
				t.Fatalf("%s step %d: Insert disagreed with oracle", c.name, step)
			}
			present[i] = true
		case op < 60:
			if tr.Delete(k) != present[i] {
				t.Fatalf("%s step %d: Delete disagreed with oracle", c.name, step)
			}
			delete(present, i)
		case op < 70:
			tr.Store(k, uint64(step))
			present[i] = true
		case op < 98:
			want := present[i] && !present[j]
			if tr.Replace(k, c.universe[j]) != want {
				t.Fatalf("%s step %d: Replace disagreed with oracle", c.name, step)
			}
			if want {
				delete(present, i)
				present[j] = true
			}
		default:
			tr.Snapshot() // the next updates renew the paths they touch
		}
	}
	checkCanonical(t, c, tr, present)
}

// canonConcurrent runs a concurrent insert/delete/overwrite/Replace
// history with a Snapshot taker beside it, then checks the shape once
// everyone has returned.
func canonConcurrent[K keys.Key[K]](t *testing.T, c canonTrie[K], seed int64) {
	const workers, steps = 4, 3000
	tr := c.new()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot()
				for spin := 0; spin < 2000; spin++ {
					_ = tr.Contains(c.universe[spin%len(c.universe)])
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for step := 0; step < steps; step++ {
				k := c.universe[rng.Intn(len(c.universe))]
				switch op := rng.Intn(100); {
				case op < 30:
					tr.Insert(k)
				case op < 55:
					tr.Delete(k)
				case op < 65:
					tr.Store(k, uint64(step))
				default:
					tr.Replace(k, c.universe[rng.Intn(len(c.universe))])
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-snapDone
	checkCanonical(t, c, tr, nil)
}

func runCanonical[K keys.Key[K]](t *testing.T, c canonTrie[K]) {
	t.Run(c.name, func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			canonSequential(t, c, seed)
		}
		canonConcurrent(t, c, 100)
	})
}

func TestCanonicalShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))

	// Uint64Key: a dense cluster (deep shared prefixes, slot fills and
	// clears at every span) plus keys spread over the whole width.
	const width = 20
	u64c := keys.U64Codec{Width: width}
	enc := func(k uint64) keys.Uint64Key { e, _ := u64c.Encode(k); return e }
	var u64 []keys.Uint64Key
	for k := uint64(0); k < 96; k++ {
		u64 = append(u64, enc(k))
	}
	for len(u64) < 160 {
		u64 = append(u64, enc(uint64(rng.Intn(1<<width-96))+96))
	}
	u64 = dedup(u64)
	for _, span := range []uint32{1, 2, 4, 6} {
		runCanonical(t, canonTrie[keys.Uint64Key]{
			name: fmt.Sprintf("uint64/span%d", span),
			new: func() *Trie[keys.Uint64Key, uint64] {
				lo, hi := u64c.Bounds()
				return New(lo, hi, WithSpan[keys.Uint64Key, uint64](span))
			},
			universe: u64,
		})
	}

	// Bitstring: variable-length keys, many of them prefixes of others
	// before encoding. (The empty string is outside the key space: its
	// encoding "11" is a prefix of the upper dummy.)
	var strs []keys.Bitstring
	for _, s := range []string{"a", "ab", "abc", "abd", "b", "ba", "bab", "z"} {
		strs = append(strs, keys.EncodeString([]byte(s)))
	}
	for len(strs) < 120 {
		b := make([]byte, 1+rng.Intn(4))
		for i := range b {
			b[i] = "abcx"[rng.Intn(4)]
		}
		strs = append(strs, keys.EncodeString(b))
	}
	runCanonical(t, canonTrie[keys.Bitstring]{
		name: "bitstring/span1",
		new: func() *Trie[keys.Bitstring, uint64] {
			lo, hi := keys.StringCodec{}.Bounds()
			return New[keys.Bitstring, uint64](lo, hi)
		},
		universe: dedup(strs),
	})

	// MortonKey: 65-bit keys, neighbouring cells and far corners.
	morton := func(m uint64) keys.MortonKey { e, _ := keys.MortonCodec{}.Encode(m); return e }
	var cells []keys.MortonKey
	for x := uint32(0); x < 10; x++ {
		for y := uint32(0); y < 10; y++ {
			cells = append(cells, morton(keys.Interleave2(x, y)))
		}
	}
	for len(cells) < 150 {
		cells = append(cells, morton(rng.Uint64()))
	}
	runCanonical(t, canonTrie[keys.MortonKey]{
		name: "morton/span1",
		new: func() *Trie[keys.MortonKey, uint64] {
			lo, hi := keys.MortonCodec{}.Bounds()
			return New[keys.MortonKey, uint64](lo, hi)
		},
		universe: dedup(cells),
	})
}

// dedup drops repeated keys, keeping first occurrences: the sequential
// oracle indexes presence by universe position.
func dedup[K keys.Key[K]](ks []K) []K {
	out := ks[:0]
	for _, k := range ks {
		dup := false
		for _, o := range out {
			if o.Equal(k) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}
