// Package avl implements a lock-based concurrent relaxed-balance AVL
// tree in the style of Bronson, Casper, Chafi and Olukotun, "A Practical
// Concurrent Binary Search Tree" (PPoPP 2010) — the paper's AVL baseline.
//
// The tree is partially external: removing a key whose node has two
// children merely clears its presence flag, leaving a routing node, so
// structural changes always touch nodes with at most one child. Readers
// descend optimistically without locks, validating per-node version
// stamps in the hand-over-hand fashion of the original: a rotation marks
// the node whose subtree range shrinks with a "shrinking" version bit,
// forcing concurrent readers crossing it to wait and revalidate. Writers
// take per-node mutexes only around the structural change itself, then
// repair heights and balance bottom-up with best-effort (relaxed)
// rotations. Lock chains are acquired top-down with TryLock and released
// on failure, so the locking protocol cannot deadlock.
package avl

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Version-stamp bits. A node's version changes whenever its subtree range
// may have changed; the shrinking bit is held (briefly) during rotations.
const (
	verUnlinked  = int64(1) << 0
	verShrinking = int64(1) << 1
	verChanging  = verUnlinked | verShrinking
	verStep      = int64(1) << 2
)

type node struct {
	key     uint64
	mu      sync.Mutex
	version atomic.Int64
	present atomic.Bool
	height  atomic.Int32
	parent  atomic.Pointer[node]
	left    atomic.Pointer[node]
	right   atomic.Pointer[node]
}

func (n *node) childPtr(right bool) *atomic.Pointer[node] {
	if right {
		return &n.right
	}
	return &n.left
}

func height(n *node) int32 {
	if n == nil {
		return 0
	}
	return n.height.Load()
}

// Tree is the concurrent AVL tree. The rootHolder is a sentinel whose
// right child is the true root; it is never rotated or unlinked, so its
// version is permanently zero.
type Tree struct {
	rootHolder *node
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{rootHolder: &node{}}
}

type result uint8

const (
	resRetry result = iota
	resFound
	resAbsent
)

// Contains reports whether k is in the set, using optimistic
// version-validated descent (no locks, no writes).
func (t *Tree) Contains(k uint64) bool {
	for {
		if r := t.attemptGet(k, t.rootHolder, true, 0); r != resRetry {
			return r == resFound
		}
	}
}

func (t *Tree) attemptGet(k uint64, n *node, dirRight bool, nOVL int64) result {
	for {
		child := n.childPtr(dirRight).Load()
		if child == nil {
			if n.version.Load() != nOVL {
				return resRetry
			}
			return resAbsent
		}
		if child.key == k {
			// The presence flag is the logical membership bit; reading it
			// through a validated link linearizes the lookup.
			if child.present.Load() {
				return resFound
			}
			return resAbsent
		}
		childOVL := child.version.Load()
		if childOVL&verChanging != 0 {
			waitNotChanging(child)
			if n.version.Load() != nOVL {
				return resRetry
			}
			continue
		}
		if child != n.childPtr(dirRight).Load() {
			if n.version.Load() != nOVL {
				return resRetry
			}
			continue
		}
		if n.version.Load() != nOVL {
			return resRetry
		}
		if r := t.attemptGet(k, child, k > child.key, childOVL); r != resRetry {
			return r
		}
	}
}

func waitNotChanging(n *node) {
	for i := 0; n.version.Load()&verShrinking != 0; i++ {
		if i > 32 {
			runtime.Gosched()
		}
	}
}

// Insert adds k, returning false if already present.
func (t *Tree) Insert(k uint64) bool {
	for {
		if r := t.attemptInsert(k, t.rootHolder, true, 0); r != resRetry {
			return r == resFound // resFound here means "newly inserted"
		}
	}
}

func (t *Tree) attemptInsert(k uint64, n *node, dirRight bool, nOVL int64) result {
	for {
		child := n.childPtr(dirRight).Load()
		if child == nil {
			// Attach a new leaf under n, guarded by n's lock.
			if !n.mu.TryLock() {
				runtime.Gosched()
				if n.version.Load() != nOVL {
					return resRetry
				}
				continue
			}
			ok := n.version.Load() == nOVL && n.childPtr(dirRight).Load() == nil
			if ok {
				nn := &node{key: k}
				nn.present.Store(true)
				nn.height.Store(1)
				nn.parent.Store(n)
				n.childPtr(dirRight).Store(nn)
			}
			n.mu.Unlock()
			if !ok {
				return resRetry
			}
			t.fixUp(n)
			return resFound
		}
		if child.key == k {
			// Resurrect a routing node or report a duplicate.
			child.mu.Lock()
			if child.version.Load()&verUnlinked != 0 {
				child.mu.Unlock()
				return resRetry
			}
			was := child.present.Load()
			if !was {
				child.present.Store(true)
			}
			child.mu.Unlock()
			if was {
				return resAbsent // already present
			}
			return resFound
		}
		childOVL := child.version.Load()
		if childOVL&verChanging != 0 {
			waitNotChanging(child)
			if n.version.Load() != nOVL {
				return resRetry
			}
			continue
		}
		if child != n.childPtr(dirRight).Load() {
			if n.version.Load() != nOVL {
				return resRetry
			}
			continue
		}
		if n.version.Load() != nOVL {
			return resRetry
		}
		if r := t.attemptInsert(k, child, k > child.key, childOVL); r != resRetry {
			return r
		}
	}
}

// Delete removes k, returning false if absent. Nodes with two children
// become routing nodes (presence cleared); nodes with fewer are unlinked
// under the locks of parent and node.
func (t *Tree) Delete(k uint64) bool {
	for {
		if r := t.attemptDelete(k, t.rootHolder, true, 0); r != resRetry {
			return r == resFound
		}
	}
}

func (t *Tree) attemptDelete(k uint64, n *node, dirRight bool, nOVL int64) result {
	for {
		child := n.childPtr(dirRight).Load()
		if child == nil {
			if n.version.Load() != nOVL {
				return resRetry
			}
			return resAbsent
		}
		if child.key == k {
			return t.removeNode(n, child)
		}
		childOVL := child.version.Load()
		if childOVL&verChanging != 0 {
			waitNotChanging(child)
			if n.version.Load() != nOVL {
				return resRetry
			}
			continue
		}
		if child != n.childPtr(dirRight).Load() {
			if n.version.Load() != nOVL {
				return resRetry
			}
			continue
		}
		if n.version.Load() != nOVL {
			return resRetry
		}
		if r := t.attemptDelete(k, child, k > child.key, childOVL); r != resRetry {
			return r
		}
	}
}

// removeNode clears victim's presence and, when it has at most one child,
// splices it out under the locks of its parent and itself, repairing
// heights once the locks are released.
func (t *Tree) removeNode(parent, victim *node) result {
	res, fix := t.removeNodeLocked(parent, victim)
	if fix != nil {
		t.fixUp(fix)
	}
	return res
}

// removeNodeLocked does the locked portion of removeNode and returns the
// node from which height repair should start (nil if none); the caller
// runs fixUp after every lock is dropped, since fixUp takes locks itself.
func (t *Tree) removeNodeLocked(parent, victim *node) (result, *node) {
	if victim.left.Load() != nil && victim.right.Load() != nil {
		// Two children: logical delete only (partially external tree).
		victim.mu.Lock()
		defer victim.mu.Unlock()
		if victim.version.Load()&verUnlinked != 0 {
			return resRetry, nil
		}
		// Re-check under lock: a child may have vanished, but clearing
		// the flag is correct regardless of the current child count.
		if !victim.present.Load() {
			return resAbsent, nil
		}
		victim.present.Store(false)
		return resFound, nil
	}
	if !parent.mu.TryLock() {
		runtime.Gosched()
		return resRetry, nil
	}
	if !victim.mu.TryLock() {
		parent.mu.Unlock()
		runtime.Gosched()
		return resRetry, nil
	}
	defer victim.mu.Unlock()
	defer parent.mu.Unlock()

	if parent.version.Load()&verUnlinked != 0 || victim.parent.Load() != parent ||
		victim.version.Load()&verUnlinked != 0 {
		return resRetry, nil
	}
	if !victim.present.Load() {
		return resAbsent, nil
	}
	left, right := victim.left.Load(), victim.right.Load()
	if left != nil && right != nil {
		// Grew a second child while we were locking: logical delete.
		victim.present.Store(false)
		return resFound, nil
	}
	splice := left
	if splice == nil {
		splice = right
	}
	var vp *atomic.Pointer[node]
	switch {
	case parent.left.Load() == victim:
		vp = &parent.left
	case parent.right.Load() == victim:
		vp = &parent.right
	default:
		return resRetry, nil
	}
	victim.present.Store(false)
	victim.version.Store(victim.version.Load() | verUnlinked)
	vp.Store(splice)
	if splice != nil {
		splice.parent.Store(parent)
	}
	return resFound, parent
}

// fixUp walks from n toward the root repairing heights and applying
// best-effort single/double rotations (relaxed AVL: balance is restored
// eventually, not instantaneously).
func (t *Tree) fixUp(n *node) {
	for n != nil && n != t.rootHolder {
		if n.version.Load()&verUnlinked != 0 {
			n = n.parent.Load()
			continue
		}
		hl, hr := height(n.left.Load()), height(n.right.Load())
		bal := hl - hr
		switch {
		case bal > 1:
			t.rotate(n, false)
		case bal < -1:
			t.rotate(n, true)
		default:
			want := 1 + max32(hl, hr)
			if n.height.Load() != want {
				n.mu.Lock()
				hl, hr = height(n.left.Load()), height(n.right.Load())
				n.height.Store(1 + max32(hl, hr))
				n.mu.Unlock()
			}
		}
		n = n.parent.Load()
	}
}

// rotate applies one rotation step at n (left if leftward is true,
// meaning the right subtree is too tall). It locks parent, n and the
// pivot child top-down with TryLock, giving up (the next fixUp will
// retry) if anything moved. Double-rotation cases are handled by first
// rotating the child in the opposite direction.
func (t *Tree) rotate(n *node, leftward bool) {
	parent := n.parent.Load()
	if parent == nil {
		return
	}
	if !parent.mu.TryLock() {
		runtime.Gosched()
		return
	}
	defer parent.mu.Unlock()
	if !n.mu.TryLock() {
		return
	}
	defer n.mu.Unlock()

	if parent.version.Load()&verUnlinked != 0 || n.version.Load()&verUnlinked != 0 ||
		n.parent.Load() != parent {
		return
	}
	if parent.left.Load() != n && parent.right.Load() != n {
		return
	}
	pivot := n.childPtr(leftward).Load() // tall child
	if pivot == nil {
		return
	}
	if !pivot.mu.TryLock() {
		return
	}
	defer pivot.mu.Unlock()
	if pivot.parent.Load() != n || pivot.version.Load()&verUnlinked != 0 {
		return
	}

	// Zig-zag: rotate the pivot first so the outer rotation balances.
	inner := pivot.childPtr(!leftward).Load()
	outer := pivot.childPtr(leftward).Load()
	if height(inner) > height(outer) {
		if inner == nil || !inner.mu.TryLock() {
			return
		}
		if inner.parent.Load() != pivot || inner.version.Load()&verUnlinked != 0 {
			inner.mu.Unlock()
			return
		}
		rotateLocked(n, pivot, inner, !leftward)
		inner.mu.Unlock()
		return // next fixUp pass performs the outer rotation
	}

	rotateLocked(parent, n, pivot, leftward)
}

// rotateLocked performs the rotation with all three nodes locked:
// pivot replaces n as parent's child; n becomes pivot's (!dir) child;
// pivot's former (!dir) subtree moves under n. dir=true is a left
// rotation. n's range shrinks, so n carries the shrinking bit while
// links are inconsistent.
func rotateLocked(parent, n, pivot *node, leftward bool) {
	n.version.Store(n.version.Load() | verShrinking)

	moved := pivot.childPtr(!leftward).Load()
	n.childPtr(leftward).Store(moved)
	if moved != nil {
		moved.parent.Store(n)
	}
	pivot.childPtr(!leftward).Store(n)
	n.parent.Store(pivot)
	if parent.left.Load() == n {
		parent.left.Store(pivot)
	} else if parent.right.Load() == n {
		parent.right.Store(pivot)
	}
	pivot.parent.Store(parent)

	n.height.Store(1 + max32(height(n.left.Load()), height(n.right.Load())))
	pivot.height.Store(1 + max32(height(pivot.left.Load()), height(pivot.right.Load())))

	// Clear the shrinking bit with a version bump so optimistic readers
	// that crossed n revalidate.
	n.version.Store((n.version.Load() + verStep) &^ verShrinking)
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// Size counts present keys; quiescent use only.
func (t *Tree) Size() int { return sizeOf(t.rootHolder.right.Load()) }

func sizeOf(n *node) int {
	if n == nil {
		return 0
	}
	total := sizeOf(n.left.Load()) + sizeOf(n.right.Load())
	if n.present.Load() {
		total++
	}
	return total
}

// HeightOf returns the root height, exposed for balance sanity tests.
func (t *Tree) HeightOf() int {
	return int(height(t.rootHolder.right.Load()))
}
