package engine

// testHookAfterFlagging, when non-nil, runs inside help after all flag
// CASes succeeded and before the child CASes. It receives the *desc[K, V]
// of the stalled update as an any (a package-level hook cannot be
// generic). It exists only for failure-injection tests (stalling an
// operation at its most delicate point); it is nil in production and must
// only be set at quiescence. Because the engine is instantiated by every
// trie in the repository, the helping tests driven through this hook run
// once, here, rather than per instantiation.
var testHookAfterFlagging func(any)

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
	fl := &i.hdr // what a node flagged by I holds
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
		// both CASes of a general-case replace can target one node.
		for j := range cas {
			if p := i.target(flag, j); p != nil && (j == 0 || i.tgt[j] != i.tgt[0]) {
				// The fresh Unflag per CAS is required for no-ABA; see
				// newUnflag.
				p.info.CompareAndSwap(fl, newUnflag[K, V]())
			}
		}
		return true
	}
	t.stats.flagBacktrack.Add(1)
	for j := len(flag) - 1; j >= 0; j-- {
		flag[j].n.info.CompareAndSwap(fl, newUnflag[K, V]()) // backtrack CAS (line 105)
	}
	return false
}

// newDesc builds the Flag descriptor for an update (the paper's newFlag,
// lines 107-116). It returns nil — after helping the conflicting update,
// if any — when some node to be flagged is already owned by another
// operation, or when the same node was captured twice with different info
// values (its children may have changed between the two reads). Otherwise
// it deduplicates and sorts the flag entries by label in place, points
// each CAS at its target's index among them (pNode[j], which must be
// flagged, or nil for the root pointer), and packs the smallest shape
// that holds the result.
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
		if flag[j].oldInfo.flagged() {
			t.stats.helpAssist.Add(1)
			t.help(l, flag[j].oldInfo.flag)
			return nil
		}
	}

	// Lines 112-114: deduplicate in place, keeping first occurrences.
	// Duplicates with disagreeing old values mean the node changed
	// between our two reads of it; retry.
	m := 0
	for a := 0; a < nFlag; a++ {
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

// helpConflict helps the first flagged descriptor among the captured info
// values, reporting whether one was found. Update attempts call it before
// building any speculative nodes: a flagged capture dooms the attempt
// (newDesc would reject it), so helping-then-retrying here avoids
// constructing leaves and copies that would be thrown away. nil entries
// (unused arguments, and the info of a live leaf or a never-flagged
// internal node) are skipped.
func (t *Trie[K, V]) helpConflict(l *lane, i1, i2, i3, i4 *info[K, V]) bool {
	for _, i := range [...]*info[K, V]{i1, i2, i3, i4} {
		if i.flagged() {
			t.stats.helpAssist.Add(1)
			t.help(l, i.flag)
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
func (t *Trie[K, V]) makeInternal(l *lane, n1, n2 *node[K, V], i *info[K, V]) *node[K, V] {
	if n1.label.IsPrefixOf(n2.label) || n2.label.IsPrefixOf(n1.label) {
		if i.flagged() {
			t.stats.helpAssist.Add(1)
			t.help(l, i.flag)
		}
		return nil
	}
	cp := n1.label.CommonPrefix(n2.label) // shorter than both labels
	if t.span > 1 || t.rootSpan > 1 {
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
	return t.InsertValue(v, zero)
}

// InsertValue is Insert with a value payload bound to the fresh leaf.
func (t *Trie[K, V]) InsertValue(v K, val V) bool {
	_, loaded, _ := t.update(v, val, true, keep, nil)
	return !loaded
}

// tryInsert attempts one round of the insert protocol for the encoded
// key v at the position located by r; it returns false when the caller
// must re-search and retry (conflicting update helped, or CAS lost).
func (t *Trie[K, V]) tryInsert(l *lane, v K, val V, r searchResult[K, V]) bool {
	n := r.node
	if n == nil {
		return t.tryFill(l, v, val, r)
	}
	nodeInfo := n.info.Load() // line 25: info before children; nil if n was never flagged
	// Deferred speculative construction: a flagged capture means newDesc
	// would reject this attempt anyway, so help the conflicting update
	// and retry before building the fresh leaf, the copy of n and the
	// joining internal node only to discard them.
	if t.helpConflict(l, r.pInfo, nodeInfo, nil, nil) {
		return false
	}
	newNode := t.makeInternal(l, t.copyNode(n, t.curGen()), newLeafVal(v, val), nodeInfo)
	if newNode == nil {
		return false
	}
	// A displaced internal node leaves the trie, so it is flagged too.
	nFlag := 1
	if !n.isLeaf() {
		nFlag = 2
	}
	i := t.newDesc(l,
		[4]flagEntry[K, V]{{r.p, r.pInfo}, {n, nodeInfo}}, nFlag,
		[2]*node[K, V]{r.p}, [2]casEntry[K, V]{{n, newNode}}, 1,
		nil)
	return i != nil && t.help(l, i)
}

// tryFill handles the insert case that exists only for wide nodes: the
// search ended at an empty slot of r.p. The slot is never CASed from nil
// in place (nil repeats as an expected value — ABA); instead a fresh copy
// of r.p with the slot holding v's leaf replaces r.p wholesale under
// r.gp, or under the root pointer when r.p is the root. r.p leaves the
// trie and stays flagged, exactly like every removed node.
func (t *Trie[K, V]) tryFill(l *lane, v K, val V, r searchResult[K, V]) bool {
	if t.helpConflict(l, r.gpInfo, r.pInfo, nil, nil) {
		return false
	}
	si := t.slotOf(v, r.p.label.Len())
	np := t.copyNodeSet(r.p, t.curGen(), si, newLeafVal(v, val), -1, nil)
	return t.replaceParent(l, r, np)
}

// replaceParent swings r.p out for np with one CAS under r.gp, or under
// the root pointer when r.p is the root, flagging both: a wide node's slot
// fill or clear. r.p leaves the trie and stays flagged.
func (t *Trie[K, V]) replaceParent(l *lane, r searchResult[K, V], np *node[K, V]) bool {
	i := t.newDesc(l,
		[4]flagEntry[K, V]{{r.p, r.pInfo}, {r.gp, r.gpInfo}}, flagCount(r.gp, 2),
		[2]*node[K, V]{r.gp}, [2]casEntry[K, V]{{r.p, np}}, 1,
		nil)
	return i != nil && t.help(l, i)
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
// key v located by r; false means re-search and retry. A parent left
// with one child contracts into its sibling as in the paper; a wide
// parent with three or more children instead gets a fresh copy with the
// slot cleared, swung in under the grandparent (or the root pointer when
// the parent is the root — the root always keeps at least the two dummy
// subtrees, so it is never contracted away).
func (t *Trie[K, V]) tryDelete(l *lane, v K, r searchResult[K, V]) bool {
	sd := t.slotOf(v, r.p.label.Len())
	live, sib := t.census(r.p.inner(), sd)
	if live == 2 {
		if r.gp == nil {
			// A binary parent that is the root cannot hold a user leaf:
			// its two children are the dummy subtrees, and a wide root
			// with a direct user leaf has at least three children (the
			// leaf's digit is shared with no other key, and each dummy
			// anchors its own slot). Unreachable from Delete; retry
			// defensively before any read through r.p, so a malformed
			// searchResult (white-box callers, future refactors) fails
			// closed instead of dereferencing an uncertified position.
			return false
		}
		return t.replaceParent(l, r, sib)
	}
	// Slot clear: wide parent keeps >= 2 children after the removal.
	if t.helpConflict(l, r.gpInfo, r.pInfo, nil, nil) {
		return false
	}
	return t.replaceParent(l, r, t.copyNodeSet(r.p, t.curGen(), sd, nil, -1, nil))
}
