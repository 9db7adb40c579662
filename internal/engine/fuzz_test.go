package engine

import (
	"testing"

	"nbtrie/internal/keys"
)

// runEngineOps drives the shared engine through an operation sequence —
// the full surface: Insert, Delete, Contains, Replace, Store, Load,
// LoadOrStore, CompareAndSwap, CompareAndDelete — against a Go map
// oracle, and checks the structural invariants at the end. The byte
// stream decodes to (op, key, key2/value) triples, so a fuzzer can
// construct adversarial shapes (prefix pile-ups, replace chains,
// overwrite storms) no hand-written table covers. opts select the digit
// width; none is the paper's binary trie.
func runEngineOps(t *testing.T, data []byte, opts ...Option[keys.Uint64Key, uint16]) {
	const width = 10
	c := keys.U64Codec{Width: width}
	lo, hi := c.Bounds()
	tr := New[keys.Uint64Key, uint16](lo, hi, opts...)
	enc := func(k uint64) keys.Uint64Key { e, _ := c.Encode(k); return e }

	type entry struct {
		present bool
		val     uint16
	}
	oracle := make(map[uint64]entry)

	for i := 0; i+2 < len(data); i += 3 {
		op := data[i] % 9
		k := uint64(data[i+1]) // keys in [0, 256): plenty of collisions
		arg := uint64(data[i+2])
		val := uint16(data[i+2])
		switch op {
		case 0: // Insert
			want := !oracle[k].present
			if tr.Insert(enc(k)) != want {
				t.Fatalf("op %d: Insert(%d) disagreed with oracle", i, k)
			}
			if want {
				oracle[k] = entry{present: true}
			}
		case 1: // Delete
			want := oracle[k].present
			if tr.Delete(enc(k)) != want {
				t.Fatalf("op %d: Delete(%d) disagreed with oracle", i, k)
			}
			delete(oracle, k)
		case 2: // Contains
			if tr.Contains(enc(k)) != oracle[k].present {
				t.Fatalf("op %d: Contains(%d) disagreed with oracle", i, k)
			}
		case 3: // Replace
			want := oracle[k].present && !oracle[arg].present && k != arg
			if tr.Replace(enc(k), enc(arg)) != want {
				t.Fatalf("op %d: Replace(%d,%d) disagreed with oracle", i, k, arg)
			}
			if want {
				oracle[arg] = oracle[k]
				delete(oracle, k)
			}
		case 4: // Store
			tr.Store(enc(k), val)
			oracle[k] = entry{present: true, val: val}
		case 5: // Load
			e := oracle[k]
			v, ok := tr.Load(enc(k))
			if ok != e.present || (ok && v != e.val) {
				t.Fatalf("op %d: Load(%d) = %d,%v want %d,%v", i, k, v, ok, e.val, e.present)
			}
		case 6: // LoadOrStore
			e := oracle[k]
			v, loaded := tr.LoadOrStore(enc(k), val)
			if loaded != e.present || (loaded && v != e.val) || (!loaded && v != val) {
				t.Fatalf("op %d: LoadOrStore(%d,%d) = %d,%v oracle %+v", i, k, val, v, loaded, e)
			}
			if !loaded {
				oracle[k] = entry{present: true, val: val}
			}
		case 7: // CompareAndSwap (old value = low bits of arg)
			old := uint16(arg % 8)
			e := oracle[k]
			want := e.present && e.val == old
			if tr.CompareAndSwap(enc(k), old, val) != want {
				t.Fatalf("op %d: CAS(%d,%d,%d) disagreed with oracle %+v", i, k, old, val, e)
			}
			if want {
				oracle[k] = entry{present: true, val: val}
			}
		case 8: // CompareAndDelete
			old := uint16(arg % 8)
			e := oracle[k]
			want := e.present && e.val == old
			if tr.CompareAndDelete(enc(k), old) != want {
				t.Fatalf("op %d: CompareAndDelete(%d,%d) disagreed with oracle %+v", i, k, old, e)
			}
			if want {
				delete(oracle, k)
			}
		}
	}

	if err := tr.Validate(nil); err != nil {
		t.Fatalf("invariants violated after op sequence: %v", err)
	}
	if got := tr.Size(); got != len(oracle) {
		t.Fatalf("Size() = %d, oracle %d", got, len(oracle))
	}
	for k, e := range oracle {
		if v, ok := tr.Load(enc(k)); !ok || v != e.val {
			t.Fatalf("final Load(%d) = %d,%v want %d,true", k, v, ok, e.val)
		}
	}
}

// FuzzEngineOps fuzzes operation sequences against the oracle at span 1,
// the paper's binary trie.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 0, 3, 1, 9, 1, 1, 0})
	f.Add([]byte{0, 5, 0, 3, 5, 9, 0, 9, 0, 3, 9, 5, 1, 9, 0})
	f.Add([]byte{4, 1, 7, 5, 1, 7, 8, 1, 7, 6, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		runEngineOps(t, data)
	})
}

// FuzzEngineOpsKary is the same oracle fuzz with the first byte selecting
// the digit width from {1, 2, 4, 6}, so one corpus exercises the binary
// protocol and the k-ary slot fill/clear paths (including the partial
// bottom digit: width 10 is not a multiple of 4 or 6, and the root-CAS
// sentinel of a wide root) side by side.
func FuzzEngineOpsKary(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 1, 2, 0, 3, 1, 9, 1, 1, 0})
	f.Add([]byte{1, 0, 5, 0, 3, 5, 9, 0, 9, 0, 3, 9, 5, 1, 9, 0})
	f.Add([]byte{3, 4, 1, 7, 5, 1, 7, 8, 1, 7, 6, 1, 9})
	f.Add([]byte{0, 0, 8, 0, 0, 9, 0, 1, 8, 0, 3, 8, 200, 1, 9, 0})
	f.Add([]byte{8, 0, 1, 0, 0, 200, 0, 3, 1, 200, 3, 200, 9, 1, 1, 0})
	f.Add([]byte{13, 0, 5, 0, 0, 250, 0, 3, 5, 130, 3, 250, 7, 1, 130, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		spans := [...]uint32{1, 2, 4, 6}
		runEngineOps(t, data[1:], WithSpan[keys.Uint64Key, uint16](spans[data[0]%4]))
	})
}
