package engine

import "nbtrie/internal/keys"

// Replace atomically removes old and inserts new, returning true exactly
// when old was present and new absent (lines 42-71). Both changes become
// visible at the operation's first successful child CAS: in the general
// case the new key's leaf is installed first, which simultaneously makes
// the old key's leaf "logically removed" (searches detect this through
// the leaf's info field), and the old leaf is physically unlinked by a
// second child CAS. When the two changes would overlap — the four special
// cases of the paper's Figure 6, extended here to wide nodes — a single
// child CAS swings in a freshly built subtree that realizes both changes
// at once.
//
// The wide-node (span > 1) generalization adds two degrees of freedom to
// the case analysis. First, the insertion point may be an empty slot
// (ri.node == nil), in which case the insert half replaces ri.p wholesale
// with a filled copy rather than CASing a slot in place — see tryFill —
// and the overlap cases are reworked around that: the delete must fold
// into the copy whenever its CAS would target ri.p (which the fill
// removes) or whenever the fill's CAS would target a node the delete
// removes. Second, the delete half only contracts the parent when it has
// exactly two children; a wider parent gets a slot-cleared copy
// (afterDelete), and either form drops into the enclosing copy in the
// fused cases. Every fused case remains a single child CAS; the general
// cases remain exactly two, insert first. At span 1 every wide-only
// branch is dead (binary nodes have no empty slots and always exactly two
// children) and the descriptors produced are the paper's, shape for
// shape.
//
// Replace moves the key's value payload along with it: after a
// successful Replace(old, new), new is bound to the value old held.
//
// Each case helps any conflicting update found among the captured info
// values before building its replacement subtree, so a doomed attempt
// costs no node allocations.
func (t *Trie[K, V]) Replace(vd, vi K) bool {
	l := t.gate.enter()
	defer t.gate.exit(l)
	for first := true; ; first = false {
		if !first {
			t.stats.opRetries.Add(1)
		}
		rd := t.searchMut(l, vd)
		if !keyInTrie(rd.node, vd, rd.rmvd) {
			return false // old key absent (line 46)
		}
		ri := t.searchMut(l, vi)
		if keyInTrie(ri.node, vi, ri.rmvd) {
			return false // new key already present (line 48)
		}
		var i *desc[K, V]
		if ri.node == nil {
			i = t.replaceFill(l, vi, rd, ri)
		} else {
			i = t.replaceAt(l, vi, rd, ri)
		}
		if i != nil && t.help(l, i) {
			return true
		}
	}
}

// afterDelete builds what replaces p once the removed leaf's slot sd is
// vacated: the lone remaining sibling when only one other child exists
// (the paper's contraction), or a fresh slot-cleared copy of p when two
// or more remain. contracted distinguishes the forms for callers whose
// shape depends on it. The copy reads p's children, so the caller must
// flag p with the info captured at search time (Lemma 31).
func (t *Trie[K, V]) afterDelete(p *node[K, V], sd int, g uint64) (res *node[K, V], contracted bool) {
	live, sib := p.inner().census(sd)
	if live == 2 {
		return sib, true
	}
	return t.copyNodeSet(p, g, sd, nil, -1, nil), false
}

// oneCAS packs the descriptor for every fused replace case: a single
// child CAS swinging target's slot (nil target = the trie root pointer)
// from oldC to newC, flagging the first nFlag entries of f. The target is
// the only flagged node that stays in the trie, so it alone is unflagged.
func (t *Trie[K, V]) oneCAS(l *lane, target, oldC, newC *node[K, V],
	f [4]flagEntry[K, V], nFlag int) *desc[K, V] {
	return t.newDesc(l, f, nFlag,
		[2]*node[K, V]{target}, [2]casEntry[K, V]{{oldC, newC}}, 1,
		nil)
}

// replaceAt builds the descriptor when the insertion point is an
// occupied position ri.node: the paper's Figure 6, with the delete half
// generalized through afterDelete.
func (t *Trie[K, V]) replaceAt(l *lane, vi K, rd, ri searchResult[K, V]) *desc[K, V] {
	nodeInfoI := ri.node.info.Load() // line 49: info before children
	sd := t.slotOf(rd.node.label, rd.p.label.Len())
	g := t.curGen()

	switch {
	case ri.node == rd.node:
		// Special case 1 (lines 58-59): the insertion point is the very
		// leaf being removed; overwrite it with a fresh leaf. The new
		// key shares the removed key's digit at rd.p (both searches
		// descended through the same slot), so the one CAS lands on the
		// removed leaf's slot.
		if t.helpConflict(l, rd.pInfo, nil, nil, nil) {
			return nil
		}
		return t.oneCAS(l, rd.p, ri.node, newLeafVal(vi, rd.node.leaf().val),
			[4]flagEntry[K, V]{{rd.p, rd.pInfo}}, 1)

	case ri.node == rd.p && ri.p == rd.gp:
		// Special case 2 (lines 60-62): the new key diverges from the
		// removed key's parent. One CAS replaces rd.p with the join of
		// the new leaf and rd.p-after-the-delete.
		if t.helpConflict(l, rd.gpInfo, rd.pInfo, nil, nil) {
			return nil
		}
		res, _ := t.afterDelete(rd.p, sd, g)
		newNodeI := t.makeInternal(l, res, newLeafVal(vi, rd.node.leaf().val), nodeInfoI)
		if newNodeI == nil {
			return nil
		}
		return t.oneCAS(l, rd.gp, rd.p, newNodeI,
			[4]flagEntry[K, V]{{rd.gp, rd.gpInfo}, {rd.p, rd.pInfo}}, 2)

	case ri.p == rd.p:
		// Special case 3 (lines 63-64): both positions share a parent
		// (in distinct slots). The new leaf joins the insertion point;
		// the parent either contracts into that join (two children —
		// always, at span 1) or gets a copy with the removed slot
		// cleared and the insertion slot rejoined. ri.node is reused,
		// not copied, exactly as the paper reuses the sibling: its new
		// position is inside a fresh node, so no slot ever repeats a
		// child value.
		if t.helpConflict(l, rd.gpInfo, rd.pInfo, nodeInfoI, nil) {
			return nil
		}
		sub := t.makeInternal(l, ri.node, newLeafVal(vi, rd.node.leaf().val), nodeInfoI)
		if sub == nil {
			return nil
		}
		live, _ := rd.p.inner().census(sd)
		np := sub
		if live == 2 {
			if rd.gp == nil {
				// The root never contracts (it always keeps both dummy
				// subtrees); a two-child census here is torn. Retry.
				return nil
			}
		} else {
			si := t.slotOf(vi, rd.p.label.Len())
			np = t.copyNodeSet(rd.p, g, sd, nil, si, sub)
		}
		return t.oneCAS(l, rd.gp, rd.p, np,
			[4]flagEntry[K, V]{{rd.p, rd.pInfo}, {rd.gp, rd.gpInfo}}, flagCount(rd.gp, 2))

	case ri.node == rd.gp:
		// Special case 4 (lines 65-70): the insertion displaces the
		// removed key's grandparent. Rebuild rd.gp with the delete
		// applied to its rd.p slot, then join that copy with the new
		// leaf and swing it in over rd.gp.
		if t.helpConflict(l, ri.pInfo, rd.gpInfo, rd.pInfo, nil) {
			return nil
		}
		res, _ := t.afterDelete(rd.p, sd, g)
		sp := t.slotOf(rd.p.label, rd.gp.label.Len())
		gpAfter := t.copyNodeSet(rd.gp, g, sp, res, -1, nil)
		newNodeI := t.makeInternal(l, gpAfter, newLeafVal(vi, rd.node.leaf().val), nodeInfoI)
		if newNodeI == nil {
			return nil
		}
		return t.oneCAS(l, ri.p, ri.node, newNodeI,
			[4]flagEntry[K, V]{{ri.p, ri.pInfo}, {rd.gp, rd.gpInfo}, {rd.p, rd.pInfo}}, 3)

	case ri.p != rd.p:
		return t.replaceGeneral(l, vi, rd, ri, nodeInfoI, sd, g)
	}
	// ri.node == rd.p but ri.p != rd.gp: the two searches saw different
	// parents for the same node — stale positions; retry.
	return nil
}

// flagCount returns n when gp is non-nil and n-1 otherwise: the fused
// cases flag one node fewer when the CAS target is the root pointer.
// Callers list gp LAST in the flag array — occupancy counts truncate
// from the end, so dropping the count drops exactly the nil entry
// (newDesc sorts the survivors anyway).
func flagCount[K keys.Key[K], V any](gp *node[K, V], n int) int {
	if gp == nil {
		return n - 1
	}
	return n
}

// replaceGeneral builds the descriptor for the paper's general case
// (lines 51-57): the insertion and deletion touch disjoint parts of the
// trie, so the update flags the union of what insert(vi) and delete(vd)
// would flag, marks the old leaf, and performs two child CASes — insert
// first, then delete. rmvLeaf is the old key's leaf; once the first child
// CAS lands, searches reaching that leaf see it as logically removed.
func (t *Trie[K, V]) replaceGeneral(l *lane, vi K, rd, ri searchResult[K, V], nodeInfoI *info[K, V], sd int, g uint64) *desc[K, V] {
	// Help-before-build: every info value this case will hand to newDesc
	// is checked up front, so no subtree is constructed for an attempt
	// that is already doomed by a conflicting update.
	if t.helpConflict(l, rd.gpInfo, rd.pInfo, ri.pInfo, nodeInfoI) {
		return nil
	}
	res, contracted := t.afterDelete(rd.p, sd, g)
	if contracted && rd.gp == nil {
		// The root never contracts; torn census, retry.
		return nil
	}
	// The fresh leaf for the new key inherits the removed leaf's value:
	// rd.node is immutable, so reading its payload here is consistent
	// with the leaf the descriptor marks as rmvLeaf.
	newNodeI := t.makeInternal(l, t.copyNode(ri.node, g), newLeafVal(vi, rd.node.leaf().val), nodeInfoI) // lines 52-53
	if newNodeI == nil {
		return nil
	}
	flag := [4]flagEntry[K, V]{{rd.p, rd.pInfo}, {ri.p, ri.pInfo}}
	nFlag := 2
	if !ri.node.isLeaf() {
		// Line 55: the displaced insertion point is internal, so it too
		// must be flagged (permanently — it leaves the trie).
		flag[nFlag] = flagEntry[K, V]{ri.node, nodeInfoI}
		nFlag++
	}
	if rd.gp != nil {
		flag[nFlag] = flagEntry[K, V]{rd.gp, rd.gpInfo}
		nFlag++
	}
	// Insert first (the linearization point), then the delete, under the
	// root pointer when rd.p is the root.
	return t.newDesc(l, flag, nFlag,
		[2]*node[K, V]{ri.p, rd.gp}, [2]casEntry[K, V]{{ri.node, newNodeI}, {rd.p, res}}, 2,
		rd.node)
}

// replaceFill builds the descriptor when the insertion point is an empty
// slot si of the wide node ri.p (span > 1 only): the insert half is a
// wholesale replacement of ri.p by a filled copy — tryFill's shape — and
// the overlap analysis is reworked around which node that replacement
// removes (ri.p) and which node its CAS targets (ri.gp, or the root).
func (t *Trie[K, V]) replaceFill(l *lane, vi K, rd, ri searchResult[K, V]) *desc[K, V] {
	g := t.curGen()
	sd := t.slotOf(rd.node.label, rd.p.label.Len())
	si := t.slotOf(vi, ri.p.label.Len())

	switch {
	case ri.p == rd.p:
		// Fill and clear land on the same node: one copy realizes both.
		// The child count is unchanged, so no contraction can be due
		// regardless of how many children rd.p has.
		if t.helpConflict(l, rd.gpInfo, rd.pInfo, nil, nil) {
			return nil
		}
		np := t.copyNodeSet(rd.p, g, sd, nil, si, newLeafVal(vi, rd.node.leaf().val))
		return t.oneCAS(l, rd.gp, rd.p, np,
			[4]flagEntry[K, V]{{rd.p, rd.pInfo}, {rd.gp, rd.gpInfo}}, flagCount(rd.gp, 2))

	case ri.gp == rd.p:
		// The delete replaces rd.p, whose child ri.p holds the empty
		// slot: fold the filled copy of ri.p into the delete's result.
		if t.helpConflict(l, rd.gpInfo, rd.pInfo, ri.pInfo, nil) {
			return nil
		}
		fp := t.copyNodeSet(ri.p, g, si, newLeafVal(vi, rd.node.leaf().val), -1, nil)
		live, sib := rd.p.inner().census(sd)
		np := fp
		if live == 2 {
			// rd.p contracts; its lone surviving child must be ri.p,
			// whose filled copy takes its place. Anything else is a torn
			// census (retry; the flag CAS would have failed anyway).
			if sib != ri.p || rd.gp == nil {
				return nil
			}
		} else {
			sp := t.slotOf(ri.p.label, rd.p.label.Len())
			np = t.copyNodeSet(rd.p, g, sd, nil, sp, fp)
		}
		return t.oneCAS(l, rd.gp, rd.p, np,
			[4]flagEntry[K, V]{{rd.p, rd.pInfo}, {ri.p, ri.pInfo}, {rd.gp, rd.gpInfo}}, flagCount(rd.gp, 3))

	case ri.p == rd.gp:
		// The fill replaces ri.p, which the delete's CAS would target:
		// fold the delete's result into the filled copy's rd.p slot.
		if t.helpConflict(l, ri.gpInfo, ri.pInfo, rd.pInfo, nil) {
			return nil
		}
		res, _ := t.afterDelete(rd.p, sd, g)
		sp := t.slotOf(rd.p.label, ri.p.label.Len())
		np := t.copyNodeSet(ri.p, g, si, newLeafVal(vi, rd.node.leaf().val), sp, res)
		return t.oneCAS(l, ri.gp, ri.p, np,
			[4]flagEntry[K, V]{{ri.p, ri.pInfo}, {rd.p, rd.pInfo}, {ri.gp, ri.gpInfo}}, flagCount(ri.gp, 3))
	}

	// Disjoint: two CASes, fill first (the linearization point, after
	// which rd.node reads as logically removed), then the
	// delete. ri.p and rd.p both leave the trie and stay flagged; the two
	// CAS targets survive and are unflagged. At most one target can be
	// the root (both would mean ri.p == rd.p, handled above).
	if t.helpConflict(l, ri.gpInfo, ri.pInfo, rd.gpInfo, rd.pInfo) {
		return nil
	}
	res, contracted := t.afterDelete(rd.p, sd, g)
	if contracted && rd.gp == nil {
		return nil
	}
	np := t.copyNodeSet(ri.p, g, si, newLeafVal(vi, rd.node.leaf().val), -1, nil)

	flag := [4]flagEntry[K, V]{{ri.p, ri.pInfo}, {rd.p, rd.pInfo}}
	nFlag := 2
	for _, gp := range [...]flagEntry[K, V]{{ri.gp, ri.gpInfo}, {rd.gp, rd.gpInfo}} {
		if gp.n != nil {
			flag[nFlag] = gp
			nFlag++
		}
	}
	return t.newDesc(l, flag, nFlag,
		[2]*node[K, V]{ri.gp, rd.gp}, [2]casEntry[K, V]{{ri.p, np}, {rd.p, res}}, 2,
		rd.node)
}
