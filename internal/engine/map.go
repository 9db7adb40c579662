package engine

// Map operations: the trie as a linearizable K → V map. Every leaf
// carries an immutable, unboxed value payload, so a value update is a
// structural update — the leaf is replaced wholesale by a fresh leaf via
// the same flag/child-CAS protocol as the paper's Replace special case 1
// (overwrite the leaf at the insertion point). That keeps all of the
// paper's invariants intact: child pointers only ever swing to freshly
// allocated nodes (no ABA), the flag on the leaf's parent serializes the
// overwrite against any concurrent insert/delete/replace touching the
// same pointer, and the overwrite is linearized at its single child CAS.
//
// Reads (Load) reuse the read-only search and add only a field read of
// the immutable leaf; they perform no CAS and write no shared memory.
//
// CompareAndSwap and CompareAndDelete compare values with Go interface
// equality, mirroring sync.Map: the old value must be comparable or the
// comparison panics. Because leaf values are immutable, a value read at
// search time is still the leaf's value when the parent flag CAS
// succeeds — the flag CAS aborts if the parent's info changed since the
// search, and the paper's Lemma 31 argument then pins the child pointer
// (and hence the leaf) for the duration.

// Store binds the encoded key v to val, inserting the key if absent and
// overwriting the value if present (lock-free upsert).
func (t *Trie[K, V]) Store(v K, val V) {
	l := t.gate.enter()
	defer t.gate.exit(l)
	for first := true; ; first = false {
		if !first {
			t.stats.opRetries.Add(1)
		}
		r := t.searchMut(l, v)
		if !keyInTrie(r.node, v, r.rmvd) {
			if t.tryInsert(l, v, val, r) {
				t.count.Add(1)
				return
			}
			continue
		}
		if t.tryOverwrite(l, v, val, r) {
			return
		}
	}
}

// LoadOrStore returns the value bound to v if present (loaded == true);
// otherwise it stores val and returns it. The load path performs no CAS.
func (t *Trie[K, V]) LoadOrStore(v K, val V) (actual V, loaded bool) {
	l := t.gate.enter()
	defer t.gate.exit(l)
	for first := true; ; first = false {
		if !first {
			t.stats.opRetries.Add(1)
		}
		r := t.searchMut(l, v)
		if keyInTrie(r.node, v, r.rmvd) {
			return r.node.leaf().val, true
		}
		if t.tryInsert(l, v, val, r) {
			t.count.Add(1)
			return val, false
		}
	}
}

// valuesEqual compares two values with Go interface equality (the
// sync.Map contract): it panics when the values are not comparable. The
// conversions to any may box, but only on the CompareAndSwap /
// CompareAndDelete paths, which mutate and hence allocate anyway.
func valuesEqual[V any](a, b V) bool {
	return any(a) == any(b)
}

// CompareAndSwap swaps the value bound to v from old to new if the stored
// value equals old (interface equality; old must be comparable). It
// returns true iff the swap happened.
func (t *Trie[K, V]) CompareAndSwap(v K, old, new V) bool {
	l := t.gate.enter()
	defer t.gate.exit(l)
	for first := true; ; first = false {
		if !first {
			t.stats.opRetries.Add(1)
		}
		r := t.searchMut(l, v)
		if !keyInTrie(r.node, v, r.rmvd) {
			return false
		}
		if !valuesEqual(r.node.leaf().val, old) {
			return false
		}
		if t.tryOverwrite(l, v, new, r) {
			return true
		}
	}
}

// CompareAndDelete deletes v if its stored value equals old (interface
// equality; old must be comparable). It returns true iff the key was
// deleted.
func (t *Trie[K, V]) CompareAndDelete(v K, old V) bool {
	l := t.gate.enter()
	defer t.gate.exit(l)
	for first := true; ; first = false {
		if !first {
			t.stats.opRetries.Add(1)
		}
		r := t.searchMut(l, v)
		if !keyInTrie(r.node, v, r.rmvd) {
			return false
		}
		if !valuesEqual(r.node.leaf().val, old) {
			return false
		}
		// The value check above is still valid when the delete commits:
		// tryDelete's flag CAS on the parent fails unless the parent's
		// info is unchanged since the search, which pins the leaf we
		// inspected (a concurrent overwrite must flag the same parent).
		if t.tryDelete(l, v, r) {
			t.count.Add(-1)
			return true
		}
	}
}

// DeleteFunc deletes v if cond returns true for its stored value. It
// returns true iff the key was deleted. The condition runs on the value
// read at search time; as with CompareAndDelete, the flag CAS on the
// parent pins that leaf until the delete commits, so the value the
// condition approved is the value that is removed. cond may be called
// multiple times (once per retry) and must be side-effect free.
func (t *Trie[K, V]) DeleteFunc(v K, cond func(V) bool) bool {
	l := t.gate.enter()
	defer t.gate.exit(l)
	for first := true; ; first = false {
		if !first {
			t.stats.opRetries.Add(1)
		}
		r := t.searchMut(l, v)
		if !keyInTrie(r.node, v, r.rmvd) {
			return false
		}
		if !cond(r.node.leaf().val) {
			return false
		}
		if t.tryDelete(l, v, r) {
			t.count.Add(-1)
			return true
		}
	}
}

// tryOverwrite attempts to replace the live leaf r.node (holding encoded
// key v) with a fresh leaf carrying val — the descriptor shape of the
// paper's Replace special case 1: flag the parent, one child CAS from the
// old leaf to the new. False means re-search and retry. The fresh leaf is
// only built once the captured parent info is known not to be a Flag.
func (t *Trie[K, V]) tryOverwrite(l *lane, v K, val V, r searchResult[K, V]) bool {
	if t.helpConflict(l, r.pInfo, nil, nil, nil) {
		return false
	}
	i := t.newDesc(l,
		[4]flagEntry[K, V]{{r.p, r.pInfo}}, 1,
		[2]*node[K, V]{r.p}, [2]casEntry[K, V]{{r.node, newLeafVal(v, val)}}, 1,
		nil)
	return i != nil && t.help(l, i)
}
