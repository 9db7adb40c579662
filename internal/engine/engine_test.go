package engine

import (
	"testing"

	"nbtrie/internal/keys"
)

// The engine's white-box tests instantiate it once, with the fixed-width
// Uint64Key at a small width, and drive the protocol machinery directly.
// Every key space (fixed-width, byte-string, Morton) shares this exact code
// path, so the helping, backtracking and failure-injection batteries run
// here once instead of per-trie copies.

// Type shorthands for the Uint64Key/any instantiation used throughout.
type (
	unode = node[keys.Uint64Key, any]
	udesc = desc[keys.Uint64Key, any]
	uinfo = info[keys.Uint64Key, any]
	uflag = flagEntry[keys.Uint64Key, any]
	ucas  = casEntry[keys.Uint64Key, any]
)

// testTrie wraps the engine with a width so tests can speak uint64 user
// keys; the embedded Trie's white-box internals (root, search, help,
// newDesc, ...) stay directly reachable.
type testTrie struct {
	*Trie[keys.Uint64Key, any]
	width uint32
}

// enc maps a user key to its full-length internal key.
func (tt testTrie) enc(k uint64) keys.Uint64Key {
	e, _ := keys.U64Codec{Width: tt.width}.Encode(k)
	return e
}

func (tt testTrie) Insert(k uint64) bool   { return tt.Trie.Insert(tt.enc(k)) }
func (tt testTrie) Delete(k uint64) bool   { return tt.Trie.Delete(tt.enc(k)) }
func (tt testTrie) Contains(k uint64) bool { return tt.Trie.Contains(tt.enc(k)) }
func (tt testTrie) Replace(old, new uint64) bool {
	return tt.Trie.Replace(tt.enc(old), tt.enc(new))
}
func (tt testTrie) Store(k uint64, v any) { tt.Trie.Store(tt.enc(k), v) }
func (tt testTrie) Load(k uint64) (any, bool) {
	return tt.Trie.Load(tt.enc(k))
}
func (tt testTrie) Validate() error {
	return tt.Trie.Validate(nil)
}

func mustNew(t *testing.T, width uint32, opts ...Option[keys.Uint64Key, any]) testTrie {
	t.Helper()
	lo, hi := keys.U64Codec{Width: width}.Bounds()
	return testTrie{Trie: New[keys.Uint64Key, any](lo, hi, opts...), width: width}
}

// lane0 is the gate lane white-box tests hand to help, newDesc and the
// other internals a mutator would hand its own lane to.
func (tt testTrie) lane0() *lane { return &tt.gate.lanes[0] }

// testFlag returns a Flag descriptor built by hand, past newDesc's checks,
// for tests that fabricate protocol states: flag entries fs and CAS
// entries cs, CAS j targeting fs[tgt[j]] (or rootTgt). Nodes are flagged
// with its &d.hdr.
func testFlag(fs []uflag, cs []ucas, tgt ...uint8) *udesc {
	var f [4]uflag
	var c [2]ucas
	var tg [2]uint8
	copy(f[:], fs)
	copy(c[:], cs)
	copy(tg[:], tgt)
	return newFlag(&f, len(fs), &c, len(cs), tg, nil)
}

func newTestLeaf(tt testTrie, k uint64) *unode {
	return newLeaf[keys.Uint64Key, any](tt.enc(k))
}

func TestEngineBasicRoundTrip(t *testing.T) {
	tr := mustNew(t, 8)
	if tr.Contains(5) || tr.Size() != 0 {
		t.Error("fresh engine trie must be empty")
	}
	if !tr.Insert(5) || tr.Insert(5) {
		t.Error("Insert semantics broken")
	}
	if !tr.Contains(5) || tr.Contains(6) {
		t.Error("Contains semantics broken")
	}
	if !tr.Replace(5, 6) || tr.Contains(5) || !tr.Contains(6) {
		t.Error("Replace semantics broken")
	}
	if !tr.Delete(6) || tr.Delete(6) {
		t.Error("Delete semantics broken")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}
