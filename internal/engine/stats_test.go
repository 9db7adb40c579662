package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsIdleZero: a trie that has only ever seen uncontended, single-
// goroutine operations must show zero on every contention counter. Help is
// nonzero (every update IS a help invocation) but the conflict-only
// counters stay at zero — the property the /metrics "zero on idle" check
// relies on.
func TestStatsIdleZero(t *testing.T) {
	tr := mustNew(t, 16)
	for k := uint64(0); k < 200; k++ {
		tr.Insert(k)
	}
	for k := uint64(0); k < 100; k++ {
		tr.Delete(k)
	}
	s := tr.StatsSnapshot()
	if s.Help == 0 {
		t.Fatal("Help must count initiator invocations")
	}
	if s.HelpAssist != 0 || s.ChildCASFail != 0 || s.FlagBacktrack != 0 ||
		s.OpRetries != 0 || s.SnapshotRenewals != 0 {
		t.Fatalf("contention counters must be zero single-threaded: %+v", s)
	}
	if s.Depth.Count == 0 {
		t.Fatal("Depth must have recorded mutator descents")
	}
}

// TestStatsHelperCounted: stall an insert after flagging; the operation
// that completes it must be counted as an assist (HelpAssist >= 1) — the
// deterministic version of "nonzero under contention".
func TestStatsHelperCounted(t *testing.T) {
	tr := mustNew(t, 8)
	tr.Insert(100)
	before := tr.StatsSnapshot()
	if before.HelpAssist != 0 {
		t.Fatalf("HelpAssist before = %d, want 0", before.HelpAssist)
	}
	stalled, release := stallFirst(t)

	done := make(chan bool)
	go func() { done <- tr.Insert(101) }()
	<-stalled

	if !tr.Insert(102) {
		t.Fatal("helper insert failed")
	}
	close(release)
	<-done

	s := tr.StatsSnapshot()
	if s.HelpAssist == 0 {
		t.Fatal("completing a stalled update must bump HelpAssist")
	}
	if s.OpRetries == 0 {
		t.Fatal("the helping insert retried after assisting; OpRetries must show it")
	}
}

// TestStatsSnapshotRenewals: after Snapshot bumps the generation, the
// first mutation down a stale path renews nodes and the counter must say
// so.
func TestStatsSnapshotRenewals(t *testing.T) {
	tr := mustNew(t, 16)
	for k := uint64(0); k < 64; k++ {
		tr.Insert(k)
	}
	if got := tr.StatsSnapshot().SnapshotRenewals; got != 0 {
		t.Fatalf("SnapshotRenewals before snapshot = %d, want 0", got)
	}
	_ = tr.Snapshot()
	tr.Insert(1000)
	if got := tr.StatsSnapshot().SnapshotRenewals; got == 0 {
		t.Fatal("post-snapshot mutation must renew at least one stale node")
	}
}

// TestStatsMerge exercises the per-shard → aggregate path.
func TestStatsMerge(t *testing.T) {
	a := mustNew(t, 16)
	b := mustNew(t, 16)
	a.Insert(1)
	a.Insert(2)
	b.Insert(3)
	sa, sb := a.StatsSnapshot(), b.StatsSnapshot()
	want := sa.Help + sb.Help
	sa.Merge(sb)
	if sa.Help != want {
		t.Fatalf("merged Help = %d, want %d", sa.Help, want)
	}
	if sa.Depth.Count != a.StatsSnapshot().Depth.Count+b.StatsSnapshot().Depth.Count {
		t.Fatal("merged Depth count mismatch")
	}
}

// TestStatsUnderContention: four writers hammer one small key range with
// inserts, deletes and replaces. Which contention counters light up is
// racy; what is checked once the writers quiesce is not, and holds at
// every -cpu (CI runs it at 1,2,4): no updater is left counted in flight
// on the gate's lanes, every successful update ran help() at least once,
// and every mutating call recorded at least one descent.
func TestStatsUnderContention(t *testing.T) {
	tr := mustNew(t, 8)
	const writers, calls = 4, 5000
	var wg sync.WaitGroup
	var updates atomic.Int64
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				k := uint64(i % 16)
				var ok bool
				switch (g + i) % 3 {
				case 0:
					ok = tr.Insert(k)
				case 1:
					ok = tr.Delete(k)
				default:
					ok = tr.Replace(k, k+16)
				}
				if ok {
					updates.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	s := tr.StatsSnapshot()
	t.Logf("%d successful updates; stats: %+v", updates.Load(), s)
	if n := tr.gate.inflight(); n != 0 {
		t.Errorf("the lanes count %d updaters in flight after all writers returned", n)
	}
	if s.Help < updates.Load() {
		t.Errorf("Help = %d < %d successful updates", s.Help, updates.Load())
	}
	if s.Depth.Count < writers*calls {
		t.Errorf("Depth.Count = %d < %d mutating calls", s.Depth.Count, writers*calls)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsDepthBuckets: the lanes' depth histogram is log2 like
// obs.Hist up to bucket 11, and its last bucket saturates — depth 5000,
// which obs.Hist would put in bucket 13, lands in bucket 12 — while Count
// and Sum stay exact.
func TestStatsDepthBuckets(t *testing.T) {
	tr := mustNew(t, 8)
	want := map[int]int64{0: 1, 1: 1, 11: 1, depthBuckets - 1: 2}
	for i, d := range []uint64{0, 1, 2047, 2048, 5000} {
		tr.gate.lanes[i%gateLanes].recordDepth(d)
	}
	s := tr.StatsSnapshot().Depth
	for b, n := range s.Buckets {
		if n != want[b] {
			t.Errorf("Buckets[%d] = %d, want %d", b, n, want[b])
		}
	}
	if s.Count != 5 || s.Sum != 0+1+2047+2048+5000 {
		t.Errorf("Count, Sum = %d, %d, want 5, %d", s.Count, s.Sum, 0+1+2047+2048+5000)
	}
}
