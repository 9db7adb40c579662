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
// Every single-key write — Insert, Store, Swap, LoadOrStore, Delete,
// LoadAndDelete and the compare-and-* family — is one call to update,
// the engine's one search/check/flag/help/retry loop. Reads (Load) are
// the Snapshot descent at the live root (Trie.live), started from the
// shortcut table, and add only a field read of the immutable leaf; they
// perform no CAS and never write the trie, and make at most one hint
// store into the table (shortcut.go).
//
// CompareAndSwap and CompareAndDelete compare values with Go interface
// equality, mirroring sync.Map: the old value must be comparable or the
// comparison panics. Because leaf values are immutable, a value read at
// search time is still the leaf's value when the parent flag CAS
// succeeds — the flag CAS aborts if the parent's info changed since the
// search, and the paper's Lemma 31 argument then pins the child pointer
// (and hence the leaf) for the duration.

// onPresent is what update does when it finds the key present (and cond,
// if any, approves its value).
type onPresent uint8

const (
	keep      onPresent = iota // leave the leaf alone: a load
	overwrite                  // swing in a fresh leaf carrying val
	remove                     // delete the leaf
)

// update is the one retry loop of every single-key write (Figure 6,
// lines 20-41): search, check, try the step the case calls for, retry on
// a lost attempt. An absent key is inserted with val when insert is set
// and left absent otherwise; a present key whose value cond approves
// (nil cond approves all) gets act. It returns the value found (loaded
// true when the key was present) and whether the trie changed. cond runs
// on the value read at search time, and the flag CAS of the overwrite or
// delete pins that leaf until the child CAS swings it out, so the value
// cond approved is the value replaced; cond may run once per retry and
// must be side-effect free. Len's count moves only here.
func (t *Trie[K, V]) update(v K, val V, insert bool, act onPresent, cond func(V) bool) (old V, loaded, done bool) {
	l := t.gate.enter()
	defer t.gate.exit(l)
	for first := true; ; first = false {
		if !first {
			t.stats.opRetries.Add(1)
		}
		r := t.searchMut(l, v)
		if !keyInTrie(r.node, v, r.rmvd) {
			if !insert {
				return old, false, false
			}
			if t.tryInsert(l, v, val, r) {
				if n := t.count.Add(1); n >= shortcutMinKeys && n&(n-1) == 0 {
					t.grow(n)
				}
				return old, false, true
			}
			continue
		}
		cur := r.node.leaf().val
		switch {
		case act == keep || cond != nil && !cond(cur):
			return cur, true, false
		case act == overwrite:
			if t.tryOverwrite(l, v, val, r) {
				return cur, true, true
			}
		default: // remove
			if t.tryDelete(l, v, r) {
				t.count.Add(-1)
				return cur, true, true
			}
		}
	}
}

// Store binds the encoded key v to val, inserting the key if absent and
// overwriting the value if present (lock-free upsert).
func (t *Trie[K, V]) Store(v K, val V) { t.Swap(v, val) }

// Swap is Store that also returns the value it replaced (loaded true) or
// the zero value when v was absent, like sync.Map's Swap.
func (t *Trie[K, V]) Swap(v K, val V) (previous V, loaded bool) {
	previous, loaded, _ = t.update(v, val, true, overwrite, nil)
	return previous, loaded
}

// LoadOrStore returns the value bound to v if present (loaded == true);
// otherwise it stores val and returns it. The load path performs no CAS.
func (t *Trie[K, V]) LoadOrStore(v K, val V) (actual V, loaded bool) {
	if actual, loaded, _ = t.update(v, val, true, keep, nil); loaded {
		return actual, true
	}
	return val, false
}

// LoadAndDelete is Delete that also returns the value it removed, like
// sync.Map's LoadAndDelete; loaded is false (and value the zero value)
// when v was absent.
func (t *Trie[K, V]) LoadAndDelete(v K) (value V, loaded bool) {
	value, loaded, _ = t.update(v, value, false, remove, nil)
	return value, loaded
}

// valuesEqual compares two values with Go interface equality (the
// sync.Map contract): it panics when the values are not comparable.
func valuesEqual[V any](a, b V) bool {
	return any(a) == any(b)
}

// CompareAndSwap swaps the value bound to v from old to new if the stored
// value equals old (interface equality; old must be comparable). It
// returns true iff the swap happened.
func (t *Trie[K, V]) CompareAndSwap(v K, old, new V) bool {
	return t.CompareAndSwapFunc(v, func(cur V) bool { return valuesEqual(cur, old) }, new)
}

// CompareAndDelete deletes v if its stored value equals old (interface
// equality; old must be comparable). It returns true iff the key was
// deleted.
func (t *Trie[K, V]) CompareAndDelete(v K, old V) bool {
	return t.DeleteFunc(v, func(cur V) bool { return valuesEqual(cur, old) })
}

// DeleteFunc deletes v if cond returns true for its stored value. It
// returns true iff the key was deleted. cond may be called multiple
// times (once per retry) and must be side-effect free.
func (t *Trie[K, V]) DeleteFunc(v K, cond func(V) bool) bool {
	var zero V
	_, _, done := t.update(v, zero, false, remove, cond)
	return done
}

// CompareAndSwapFunc is DeleteFunc's twin: it binds v to new if v is
// present and cond returns true for its stored value, returning true iff
// the swap happened. It never compares values, so it works for
// non-comparable value types, where CompareAndSwap panics. cond may be
// called multiple times (once per retry) and must be side-effect free.
func (t *Trie[K, V]) CompareAndSwapFunc(v K, cond func(V) bool, new V) bool {
	_, _, done := t.update(v, new, false, overwrite, cond)
	return done
}

// tryOverwrite attempts to replace the live leaf r.node (holding encoded
// key v) with a fresh leaf carrying val — the descriptor shape of the
// paper's Replace special case 1: flag the parent, one child CAS from the
// old leaf to the new. False means re-search and retry. The fresh leaf is
// only built once the captured parent info is known not to be a Flag.
func (t *Trie[K, V]) tryOverwrite(l *lane, v K, val V, r searchResult[K, V]) bool {
	if t.helpConflict(l, r.pInfo, nil, nil) {
		return false
	}
	return t.commit(l, half[K, V]{r.p, r.node, newLeafVal(v, val), [3]flagEntry[K, V]{{r.p, r.pInfo}}})
}
