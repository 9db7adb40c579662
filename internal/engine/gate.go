package engine

import (
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// The snapshot gate keeps every update out of a Snapshot's root swap
// without giving two updaters a word to share.
//
// An updater announces itself on one of gateLanes lanes, drawn at random
// from math/rand/v2's per-M generator (no shared state, no allocation),
// and each lane is two cache lines of its own: concurrent updaters RMW the
// same line only when they happen to draw the same lane. A Snapshot raises
// pending under the mutex and waits until no lane counts an updater in
// flight; an updater that finds pending raised steps back off its lane and
// waits on that mutex. The blocking is exactly that of the RWMutex the
// gate replaced: updaters never wait on each other, an updater waits only
// for a Snapshot in progress, and a Snapshot waits for the updaters in
// flight — Snapshot is the one blocking operation of the engine. Reads
// never touch the gate.
//
// Why no updater slips past a Snapshot. enter increments its lane and then
// loads pending; drain stores pending and then loads the lanes. Go's
// sync/atomic operations are sequentially consistent, so in their one
// total order either the increment precedes drain's load of that lane —
// drain sees the updater and waits for it — or drain's store precedes the
// updater's load, and the updater sees pending and backs off: Dekker's
// handshake, in which neither side can miss the other. A lane counts only
// the updaters between their own increment and decrement, so it is never
// negative and a zero sum means none of them is still inside.
//
// The lanes also carry the two statistics every update records, Help and
// Depth: with them on shared words the stripes would buy a fraction of
// what they do. An update records both on the lane it entered on, which
// every mutator hands down to searchMut, help and the calls between, so
// it draws once per operation.

const (
	// gateLanes is the number of lanes, a power of two. Eight were no
	// faster than four on lib-replace-hot and cost 512 B more per trie.
	gateLanes = 4

	// depthBuckets is the number of log2 depth buckets on a lane: bucket
	// b < depthBuckets-1 counts depths d with bits.Len64(d) == b, and the
	// last bucket saturates, counting every depth >= 2^(depthBuckets-2).
	// A key of n bits cannot descend deeper than n levels, so only
	// Bitstring keys of 128 bytes or more (16n+2 bits) can reach it.
	depthBuckets = 13
)

// lane is one stripe of the gate, exactly two cache lines (pinned by
// layout_test.go). The gate sits first in a Trie and a Trie's size class
// is a multiple of 64 bytes, so the lanes are line-aligned and no two
// share a line.
type lane struct {
	inflight atomic.Int64 // updaters that entered on this lane and have not exited
	help     atomic.Int64 // help() invocations
	depthSum atomic.Int64 // sum of the depths in depth
	depth    [depthBuckets]atomic.Int64
}

// recordDepth adds one mutator descent of depth d to the lane's histogram.
func (l *lane) recordDepth(d uint64) {
	l.depth[min(bits.Len64(d), depthBuckets-1)].Add(1)
	l.depthSum.Add(int64(d))
}

// gate is the snapshot barrier: the lanes, and the mutex and flag a
// Snapshot holds them with.
type gate struct {
	lanes   [gateLanes]lane
	mu      sync.Mutex  // held by a Snapshot from drain to reopen
	pending atomic.Bool // a Snapshot holds mu and is draining or swapping
}

// enter admits one mutating operation, waiting only while a Snapshot is
// in progress, and returns the lane to hand down to searchMut and help
// and back to exit.
func (g *gate) enter() *lane {
	for {
		l := &g.lanes[rand.Uint32()%gateLanes]
		l.inflight.Add(1)
		if !g.pending.Load() {
			return l
		}
		l.inflight.Add(-1)
		g.mu.Lock() // wait the Snapshot out
		g.mu.Unlock()
	}
}

// exit ends the operation enter admitted on l.
func (g *gate) exit(l *lane) { l.inflight.Add(-1) }

// drain shuts the gate and waits until no updater is inside it.
func (g *gate) drain() {
	g.mu.Lock()
	g.pending.Store(true)
	for g.inflight() != 0 {
		runtime.Gosched()
	}
}

// reopen lets updaters in again after drain.
func (g *gate) reopen() {
	g.pending.Store(false)
	g.mu.Unlock()
}

// inflight returns the number of updaters inside the gate.
func (g *gate) inflight() int64 {
	var n int64
	for i := range g.lanes {
		n += g.lanes[i].inflight.Load()
	}
	return n
}
