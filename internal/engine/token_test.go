package engine

import (
	"math/rand"
	"sync"
	"testing"
)

// The no-repeat premise behind unflagging to a token: a child CAS
// installs X under P only at the start of X's one stay under P, so the
// pair (P, X) — and with it token(X) in P's info — is unflagged at most
// once. The oracle records every successful unflag CAS through
// testHookUnflagged and holds both nodes for the whole run, so no address
// is reused and a repeated pair is a real repeat.

// unflagLog is the set of (target, installed child) pairs seen so far.
type unflagLog struct {
	mu      sync.Mutex
	seen    map[[2]any]bool
	repeats [][2]any
}

// recordUnflags installs the hook for the rest of the test; call it at
// quiescence.
func recordUnflags(t *testing.T) *unflagLog {
	lg := &unflagLog{seen: make(map[[2]any]bool)}
	testHookUnflagged = func(p, c any) {
		k := [2]any{p, c}
		lg.mu.Lock()
		defer lg.mu.Unlock()
		if lg.seen[k] {
			lg.repeats = append(lg.repeats, k)
		}
		lg.seen[k] = true
	}
	t.Cleanup(func() { testHookUnflagged = nil })
	return lg
}

// check reports every repeated pair, and fails when fewer than min
// unflags were seen: an oracle that saw nothing proves nothing.
func (lg *unflagLog) check(t *testing.T, min int) {
	t.Helper()
	lg.mu.Lock()
	defer lg.mu.Unlock()
	for _, k := range lg.repeats {
		p, c := k[0].(*unode), k[1].(*unode)
		t.Errorf("node %v was unflagged to the token of %v twice", p.label, c.label)
	}
	if len(lg.seen) < min {
		t.Errorf("the oracle saw %d unflags, want at least %d", len(lg.seen), min)
	}
}

// tokenPool returns the encodings a battery draws its keys from: at span
// 1 every 8-bit encoding from 0x20 to 0x7f, where the shape cases' keys
// live; at span 4 the 15-bit encodings 0xabc0 with a in {3, 5}, b in
// {0, 1, 2, 5} and c in {0, 1, 2}, which put leaves beside internal nodes
// at every level, so a Replace meets every Figure 6 case, the fills and
// clears, and case 3's push-down.
func tokenPool(span uint32) []uint64 {
	var pool []uint64
	if span == 1 {
		for e := uint64(0x20); e < 0x80; e++ {
			pool = append(pool, e)
		}
		return pool
	}
	for _, a := range []uint64{3, 5} {
		for _, b := range []uint64{0, 1, 2, 5} {
			for _, c := range []uint64{0, 1, 2} {
				pool = append(pool, a<<12|b<<8|c<<4)
			}
		}
	}
	return pool
}

// TestHelpUnflagTokensNeverRepeat runs the oracle over every shape case
// (each Figure 6 case at spans 1 and 4, wide case 3 included, fills,
// clears, contractions and renewals) and then over a concurrent battery
// at spans 1 and 4: four writers Insert, Delete, Store and Replace over a
// small key pool while a fifth takes and releases snapshots. The pool is
// prefilled and one snapshot taken before the writers start is held
// until they finish, so every writer meets stale nodes and renews them
// whatever the schedule. No (target, child) pair may be unflagged twice,
// and the trie must validate afterwards, the token check included.
func TestHelpUnflagTokensNeverRepeat(t *testing.T) {
	shapes := recordUnflags(t)
	for _, c := range shapeCases {
		c.run(t)
	}
	shapes.check(t, len(shapeCases))

	for _, span := range []uint32{1, 4} {
		lg := recordUnflags(t)
		width := map[uint32]uint32{1: 7, 4: 15}[span]
		tr := karyNew(t, width, span)
		pool := tokenPool(span)
		for _, e := range pool {
			tr.Insert(u(e))
		}
		held := tr.Trie.Snapshot()
		const writers, ops = 4, 1500
		var wg sync.WaitGroup
		stop := make(chan struct{})
		snaps := make(chan int, 1)
		go func() {
			n := 0
			defer func() { snaps <- n }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := tr.Trie.Snapshot()
				s.Contains(tr.enc(u(pool[n%len(pool)])))
				s.Release()
				n++
			}
		}()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				key := func() uint64 { return u(pool[rng.Intn(len(pool))]) }
				for i := 0; i < ops; i++ {
					switch r := rng.Intn(20); {
					case r < 4:
						tr.Insert(key())
					case r < 8:
						tr.Delete(key())
					case r < 11:
						tr.Store(key(), i)
					default:
						tr.Replace(key(), key())
					}
				}
			}(int64(span)*100 + int64(w))
		}
		wg.Wait()
		held.Release()
		close(stop)
		if n := <-snaps; n == 0 {
			t.Errorf("span %d: no snapshot was taken during the battery", span)
		}
		lg.check(t, writers*ops/4)
		if err := tr.Validate(); err != nil {
			t.Errorf("span %d: %v", span, err)
		}
		if st := tr.StatsSnapshot(); st.SnapshotRenewals == 0 {
			t.Errorf("span %d: the battery renewed no node", span)
		}
	}
}
