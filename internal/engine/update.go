package engine

import "nbtrie/internal/keys"

// The update protocol. help carries out a descriptor and newDesc builds
// one; every descriptor is built from at most two halves. insertHalf and
// deleteHalf are the paper's insert and delete (a join or a slot fill, a
// contraction or a slot clear); tryInsert and tryDelete commit one each,
// and Replace's general case joins one of each (replace.go).

// testHookAfterFlagging, when non-nil, runs inside help after all flag
// CASes succeeded and before the child CASes. It receives the *desc[K, V]
// of the stalled update as an any (a package-level hook cannot be
// generic). It exists only for failure-injection tests (stalling an
// operation at its most delicate point); it is nil in production and must
// only be set at quiescence. Because the engine is instantiated by every
// trie in the repository, the helping tests driven through this hook run
// once, here, rather than per instantiation.
var testHookAfterFlagging func(any)

// testHookUnflagged, when non-nil, runs inside help after each unflag CAS
// that succeeded, with its target and the child whose token it installed
// (both *node[K, V], as any). Like testHookAfterFlagging it is nil in
// production and only set at quiescence; the no-repeat oracle records the
// pairs it sees.
var testHookUnflagged func(p, c any)

// help carries out the real work of the update described by the Flag
// descriptor I (lines 86-106). It may be called by the update's own
// process or by any process that encounters I while flagging; all calls
// perform the same CAS sequence, and the algorithm guarantees each step
// succeeds exactly once regardless of how many helpers race. l is the
// gate lane the calling operation entered on; the call is counted there.
//
// The steps, in order: flag every node in I's flag entries (label order);
// if all succeeded, publish flagDone, flag the removed leaf (general-case
// replace only), and perform the child CASes; finally unflag the CAS
// targets (success) or backtrack the flags (failure). The update is
// linearized at its first successful child CAS.
func (t *Trie[K, V]) help(l *lane, i *desc[K, V]) bool {
	l.help.Add(1)
	fl := i.word() // what a node flagged by I holds
	flag, cas, rmvLeaf := i.parts()
	doChildCAS := true
	for j := 0; j < len(flag) && doChildCAS; j++ {
		n := flag[j].n
		n.info.CompareAndSwap(flag[j].oldInfo, fl) // flag CAS (line 90)
		doChildCAS = n.info.Load() == fl
	}

	if doChildCAS {
		if h := testHookAfterFlagging; h != nil {
			// Failure-injection point for tests: a process can be stalled
			// here, "crashed" with its flags planted, to prove that other
			// processes finish its update for it.
			h(i)
		}
		i.flagDone.Store(true)
		if rmvLeaf != nil {
			// Flag the leaf to be removed (line 95). A plain store
			// suffices in the paper because only helpers of I reach here
			// and they all write the same value; Lemma 40 shows no other
			// Flag can land on this leaf first. It is the only write a
			// leaf's info ever sees: nil → Flag, never back.
			rmvLeaf.info.Store(fl)
		}
		for j, c := range cas {
			p := i.target(flag, j)
			if p == nil {
				// Root-CAS sentinel: the update replaces the root node
				// itself (a slot fill or clear on a root with no parent
				// to re-point). Safe against Snapshot's root swap because
				// every mutation, helpers included, runs inside the gate,
				// which Snapshot drains before it swaps.
				if !t.root.CompareAndSwap(c.oldChild, c.newChild) {
					t.stats.childCASFail.Add(1)
				}
				continue
			}
			// The slot is computed from the new child's label: every new
			// child extends p's label, and it routes through the same slot
			// as the old child it replaces (copies keep the old label;
			// fresh joins and leaves share the old child's digit, or the
			// search would not have reached it).
			k := t.slotOf(c.newChild.label, p.label.Len())
			if !p.inner().kid(k).CompareAndSwap(c.oldChild, c.newChild) { // child CAS (line 98)
				// A failed child CAS here means a racing helper of this
				// same descriptor already swung the pointer — a pure
				// contention signal, never a correctness event.
				t.stats.childCASFail.Add(1)
			}
		}
	}

	if i.flagDone.Load() {
		// Unflag the survivors (line 101): the CAS targets, each once —
		// both CASes of a general-case replace can target one node — to
		// the token of the child I's CAS installed there, a value that
		// node's info never held before (see the info field).
		for j, c := range cas {
			if p := i.target(flag, j); p != nil && (j == 0 || i.tgt[j] != i.tgt[0]) {
				if p.info.CompareAndSwap(fl, token(c.newChild)) && testHookUnflagged != nil {
					testHookUnflagged(p, c.newChild)
				}
			}
		}
		return true
	}
	t.stats.flagBacktrack.Add(1)
	for j := len(flag) - 1; j >= 0; j-- {
		// Only a node that holds I's Flag needs a fresh Unflag; on any
		// other the CAS would fail, so it is skipped and allocates nothing.
		if n := flag[j].n; n.info.Load() == fl {
			n.info.CompareAndSwap(fl, newUnflag()) // backtrack CAS (line 105)
		}
	}
	return false
}

// newDesc builds the Flag descriptor for an update (the paper's newFlag,
// lines 107-116). It returns nil — after helping the conflicting update,
// if any — when some node to be flagged is already owned by another
// operation, or when the same node was captured twice with different info
// values (its children may have changed between the two reads). Otherwise
// it drops the entries with a nil node (a half's absent grandparent: the
// root pointer is never flagged), deduplicates and sorts the rest by
// label in place, points each CAS at its target's index among them
// (pNode[j], which must be flagged, or nil for the root pointer), and
// packs the smallest shape that holds the result. Its two callers are
// oneCAS and replaceGeneral.
//
// The parameters are fixed-size arrays with explicit occupancy counts,
// passed by value: they live on the caller's stack, are mutated locally
// (dedup and sort happen in place on the parameter copies), and the only
// heap allocation on any path is the descriptor itself on success. The
// earlier slice-based signature allocated up to nine slices per attempt —
// including every retry of a contended update.
func (t *Trie[K, V]) newDesc(l *lane,
	flag [4]flagEntry[K, V], nFlag int,
	pNode [2]*node[K, V], cas [2]casEntry[K, V], nCAS int,
	rmvLeaf *node[K, V],
) *desc[K, V] {
	// Lines 108-111: if any captured info value is a Flag, that update is
	// incomplete; help it and make the caller retry from scratch.
	for j := 0; j < nFlag; j++ {
		if flagged(flag[j].oldInfo) {
			t.stats.helpAssist.Add(1)
			t.help(l, flagOf[K, V](flag[j].oldInfo))
			return nil
		}
	}

	// Lines 112-114: deduplicate in place, keeping first occurrences.
	// Duplicates with disagreeing old values mean the node changed
	// between our two reads of it; retry.
	m := 0
	for a := 0; a < nFlag; a++ {
		if flag[a].n == nil {
			continue
		}
		dup := false
		for b := 0; b < m; b++ {
			if flag[b].n == flag[a].n {
				if flag[b].oldInfo != flag[a].oldInfo {
					return nil
				}
				dup = true
				break
			}
		}
		if !dup {
			flag[m] = flag[a]
			m++
		}
	}
	nFlag = m

	// Line 115: sort the flag entries by label so every operation flags
	// nodes in the same global order. Reachable nodes have distinct
	// labels (Lemma 9), and K's Compare orders distinct labels totally,
	// which is what the progress proof's "blaming" argument needs.
	for a := 1; a < nFlag; a++ {
		for b := a; b > 0 && flag[b].n.label.Compare(flag[b-1].n.label) < 0; b-- {
			flag[b], flag[b-1] = flag[b-1], flag[b]
		}
	}

	var tgt [2]uint8
	for j := 0; j < nCAS; j++ {
		tgt[j] = rootTgt
		if pNode[j] == nil {
			continue
		}
		k := 0
		for k < nFlag && flag[k].n != pNode[j] {
			k++
		}
		if k == nFlag {
			panic("engine: a CAS target must be flagged")
		}
		tgt[j] = uint8(k)
	}
	return newFlag(&flag, nFlag, &cas, nCAS, tgt, rmvLeaf)
}

// half is one update's share of a descriptor: its one child CAS, which
// swings the pointer tgt holds (nil: the root pointer) from old to new,
// and the nodes it flags, each with the info captured for it. Entries
// with a nil node are unused (newDesc drops them), so an absent
// grandparent needs no count. An insert, a delete, an overwrite, a
// renewal and every fused Figure 6 case is one half, committed through
// oneCAS; the general-case replace is a delete half and an insert half
// in one descriptor (replaceGeneral). Insert and delete halves flag at
// most two nodes, which is what lets two of them share the four flag
// entries of the general shape.
type half[K keys.Key[K], V any] struct {
	tgt, old, new *node[K, V]
	flag          [3]flagEntry[K, V]
}

// oneCAS builds the descriptor of a single half: one child CAS, with the
// target the only flagged node that stays in the trie, so it alone is
// unflagged.
func (t *Trie[K, V]) oneCAS(l *lane, h half[K, V]) *desc[K, V] {
	return t.newDesc(l,
		[4]flagEntry[K, V]{h.flag[0], h.flag[1], h.flag[2]}, 3,
		[2]*node[K, V]{h.tgt}, [2]casEntry[K, V]{{h.old, h.new}}, 1,
		nil)
}

// commit runs a single half to completion: false means re-search and
// retry (conflicting update helped, or a flag CAS lost).
func (t *Trie[K, V]) commit(l *lane, h half[K, V]) bool {
	i := t.oneCAS(l, h)
	return i != nil && t.help(l, i)
}

// swing is the half that replaces r.p wholesale by np under r.gp, or
// under the root pointer when r.p is the root, flagging both: a wide
// node's slot fill or clear, or a contraction into the sibling. r.p
// leaves the trie and stays flagged.
func swing[K keys.Key[K], V any](r searchResult[K, V], np *node[K, V]) half[K, V] {
	return half[K, V]{r.gp, r.p, np, [3]flagEntry[K, V]{{r.p, r.pInfo}, {r.gp, r.gpInfo}}}
}

// helpConflict helps the first flagged descriptor among the captured info
// values, reporting whether one was found. Update attempts call it before
// building any speculative nodes: a flagged capture dooms the attempt
// (newDesc would reject it), so helping-then-retrying here avoids
// constructing leaves and copies that would be thrown away. nil entries
// (unused arguments, and the info of a live leaf or a never-flagged
// internal node) are skipped.
func (t *Trie[K, V]) helpConflict(l *lane, i1, i2, i3 *byte) bool {
	for _, i := range [...]*byte{i1, i2, i3} {
		if flagged(i) {
			t.stats.helpAssist.Add(1)
			t.help(l, flagOf[K, V](i))
			return true
		}
	}
	return false
}

// makeInternal is the paper's createNode (lines 117-121): it returns a new
// internal node whose label is the longest common prefix of the two
// labels floored to a digit boundary (digitFloor) and whose children sit in their
// digit slots (the two digits differ: the floored prefix's next digit
// contains the first differing bit, and same-length digits that share a
// prefix up to a differing bit differ as integers). If either label is a
// prefix of the other no such node exists; in that case the captured
// info value is helped if it is a Flag (the usual cause: n1 is a stale
// copy of a node another update is replacing) and nil is returned so the
// caller retries.
func (t *Trie[K, V]) makeInternal(l *lane, n1, n2 *node[K, V], i *byte) *node[K, V] {
	if n1.label.IsPrefixOf(n2.label) || n2.label.IsPrefixOf(n1.label) {
		if flagged(i) {
			t.stats.helpAssist.Add(1)
			t.help(l, flagOf[K, V](i))
		}
		return nil
	}
	cp := n1.label.CommonPrefix(n2.label) // shorter than both labels
	if t.span > 1 {
		// Binary tries skip the floor: every length is a digit boundary.
		if n := t.digitFloor(cp.Len()); n < cp.Len() {
			cp = cp.Prefix(n)
		}
	}
	nn := t.newNode(cp, t.curGen())
	nn.kid(t.slotOf(n1.label, cp.Len())).Store(n1)
	nn.kid(t.slotOf(n2.label, cp.Len())).Store(n2)
	return &nn.node
}

// Insert adds the encoded key v to the set, returning false if it was
// already present (lines 20-32). The leaf (or internal node) at the
// insertion point is replaced by a new internal node whose children are a
// fresh leaf for v and a fresh copy of the displaced node; copying avoids
// ABA on child pointers. When the displaced node is internal it is
// flagged permanently, since it leaves the trie.
func (t *Trie[K, V]) Insert(v K) bool {
	var zero V
	_, loaded, _ := t.update(v, zero, true, keep, nil)
	return !loaded
}

// tryInsert attempts one round of the insert protocol for the encoded
// key v at the position located by r; it returns false when the caller
// must re-search and retry (conflicting update helped, or CAS lost).
func (t *Trie[K, V]) tryInsert(l *lane, v K, val V, r searchResult[K, V]) bool {
	h, ok := t.insertHalf(l, v, val, r)
	return ok && t.commit(l, h)
}

// insertHalf builds the insert of v, bound to val, at the position r.
// At an occupied position r.node it joins a fresh leaf with a copy of
// r.node under r.p (lines 25-27); a displaced internal node leaves the
// trie, so it is flagged too. At an empty slot of a wide r.p — never
// CASed from nil in place, since nil repeats as an expected value (ABA)
// — it swings in a copy of r.p with the slot filled. ok is false when
// the caller must re-search: a conflicting update was helped, or the
// position was stale. Deferred speculative construction: the captured
// infos are checked for a Flag, which would doom the attempt, before
// any node is built.
func (t *Trie[K, V]) insertHalf(l *lane, v K, val V, r searchResult[K, V]) (h half[K, V], ok bool) {
	if r.node == nil {
		if t.helpConflict(l, r.gpInfo, r.pInfo, nil) {
			return h, false
		}
		si := t.slotOf(v, r.p.label.Len())
		return swing(r, t.copyNodeSet(r.p, t.curGen(), si, newLeafVal(v, val), -1, nil)), true
	}
	nodeInfo := r.node.info.Load() // line 25: info before children; nil if never flagged
	if t.helpConflict(l, r.pInfo, nodeInfo, nil) {
		return h, false
	}
	nn := t.makeInternal(l, t.copyNode(r.node, t.curGen()), newLeafVal(v, val), nodeInfo)
	if nn == nil {
		return h, false
	}
	h = half[K, V]{r.p, r.node, nn, [3]flagEntry[K, V]{{r.p, r.pInfo}}}
	if !r.node.isLeaf() {
		h.flag[1] = flagEntry[K, V]{r.node, nodeInfo}
	}
	return h, true
}

// Delete removes the encoded key v from the set, returning false if it
// was absent (lines 33-41). The parent of v's leaf is replaced by the
// leaf's sibling; both the grandparent and the parent are flagged, and
// the parent — which leaves the trie — stays flagged forever. The retry
// loop is update's (map.go).
func (t *Trie[K, V]) Delete(v K) bool {
	_, ok := t.LoadAndDelete(v)
	return ok
}

// tryDelete attempts one round of the delete protocol for the encoded
// key v located by r; false means re-search and retry.
func (t *Trie[K, V]) tryDelete(l *lane, v K, r searchResult[K, V]) bool {
	h, ok := t.deleteHalf(l, v, r)
	return ok && t.commit(l, h)
}

// deleteHalf builds the delete of v's leaf r.node: r.p is swung out
// under r.gp (or the root pointer when r.p is the root) for what
// afterDelete leaves — the sibling when r.p had two children, as in the
// paper, or a copy of r.p with v's slot cleared. ok is false when the
// caller must re-search.
func (t *Trie[K, V]) deleteHalf(l *lane, v K, r searchResult[K, V]) (h half[K, V], ok bool) {
	if t.helpConflict(l, r.gpInfo, r.pInfo, nil) {
		return h, false
	}
	res, contracted := t.afterDelete(r.p, t.slotOf(v, r.p.label.Len()), t.curGen())
	if contracted && r.gp == nil {
		// The root never contracts: a binary root's two children are the
		// dummy subtrees, and a wide root with a user leaf directly under
		// it has at least three (the leaf's digit is shared with no other
		// key, and each dummy anchors its own slot). A two-child census
		// here is torn, or the search result malformed; fail closed.
		return h, false
	}
	return swing(r, res), true
}
