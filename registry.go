package nbtrie

import (
	"fmt"
	"sort"
	"strings"

	"nbtrie/internal/keys"
)

// Implementation describes one registered concurrent-set implementation:
// the paper's Patricia trie, the five baselines of its evaluation, and
// three more instantiations of the shared engine: Morton-keyed, with a
// wide sharding root, and k-ary.
// Tools (the figure benchmarks, cmd/triecli, the conformance tests and
// the examples) enumerate this registry instead of hard-coding the list, so
// a new implementation registers once and appears everywhere.
type Implementation struct {
	// Name is the stable registry key, e.g. "patricia".
	Name string
	// Legend is the label used in the paper's figures, e.g. "PAT".
	Legend string
	// Description is a one-line human-readable summary with the citation.
	Description string
	// Replace reports whether the implementation has the paper's atomic
	// Replace over its entire key space, i.e. satisfies ReplaceSet (the
	// paper's five baselines do not).
	Replace bool
	// WaitFreeRead reports whether the implementation's Contains is
	// wait-free — a pure read that performs no CAS, helps no other
	// operation and allocates nothing. Implementations claiming this are
	// held to it by an AllocsPerRun regression test at the public layer
	// (alloc_test.go), so a boxing or helping regression on the read
	// path fails CI rather than silently costing throughput.
	WaitFreeRead bool
	// Fanout is the branching factor of the structure's interior nodes:
	// how many key partitions each level resolves (2 for binary trees
	// and tries, 4 for the 4-ST, 32 for the Ctrie, 16 for the span-4
	// k-ary trie). Tools report it in series labels instead of assuming
	// binary; expected depth scales with 1/log2(Fanout).
	Fanout int
	// New returns a fresh, empty set able to hold keys in [0, 2^width).
	// Implementations without a bounded key space ignore width.
	New func(width uint32) (Set, error)
}

// DefaultWidth is the key width NewSet uses for width-parameterized
// implementations: the widest supported key space, [0, 2^63).
const DefaultWidth = 63

// registry lists the implementations in the paper's legend order
// (Figures 8-11), with this repository's extra engine instantiations
// appended after the paper's six. Names and legends must be unique
// case-insensitively.
var registry = []Implementation{
	{
		Name:         "patricia",
		Fanout:       2,
		Legend:       "PAT",
		Description:  "non-blocking Patricia trie with Replace (Shafiei, ICDCS 2013); wait-free Contains",
		Replace:      true,
		WaitFreeRead: true,
		New: func(width uint32) (Set, error) {
			return NewPatriciaTrie(width)
		},
	},
	{
		Name:        "kst",
		Fanout:      4,
		Legend:      "4-ST",
		Description: "non-blocking k-ary (k=4) external search tree (Brown & Helga, OPODIS 2011)",
		New: func(uint32) (Set, error) {
			return NewKST(4), nil
		},
	},
	{
		Name:        "bst",
		Fanout:      2,
		Legend:      "BST",
		Description: "non-blocking external binary search tree (Ellen et al., PODC 2010)",
		New: func(uint32) (Set, error) {
			return NewBST(), nil
		},
	},
	{
		Name:        "avl",
		Fanout:      2,
		Legend:      "AVL",
		Description: "lock-based relaxed-balance AVL tree with optimistic reads (Bronson et al., PPoPP 2010)",
		New: func(uint32) (Set, error) {
			return NewAVL(), nil
		},
	},
	{
		Name:        "skiplist",
		Fanout:      2,
		Legend:      "SL",
		Description: "lock-free skip list (ConcurrentSkipListMap lineage)",
		New: func(uint32) (Set, error) {
			return NewSkipList(), nil
		},
	},
	{
		Name:        "ctrie",
		Fanout:      32,
		Legend:      "Ctrie",
		Description: "non-blocking 32-way concurrent hash trie, no snapshots (Prokopec et al., PPoPP 2012)",
		New: func(uint32) (Set, error) {
			return NewCtrie(), nil
		},
	},
	{
		Name:         "spatial",
		Fanout:       2,
		Legend:       "PAT-Z",
		Description:  "Morton-keyed spatial instantiation of the shared engine (65-bit Z-order keys; atomic point moves via Replace)",
		Replace:      true,
		WaitFreeRead: true,
		New: func(uint32) (Set, error) {
			// The Morton key space is fixed at 64 bits (the full
			// uint32 × uint32 plane); width is ignored. The uint64 set
			// key is the raw Morton code.
			t := newTrie[uint64, keys.MortonKey, struct{}](keys.MortonCodec{})
			return &t, nil
		},
	},
	{
		Name:         "sharded",
		Fanout:       2,
		Legend:       "PAT-S",
		Description:  "PAT under a wide root: the top key bits pick one of 2^s root slots (the shards of ShardedMap); one trie, Replace atomic across slots",
		Replace:      true,
		WaitFreeRead: true,
		New: func(width uint32) (Set, error) {
			t, _, err := newSharded[struct{}](width, 0, 1)
			if err != nil {
				return nil, err
			}
			return &PatriciaTrie{t: t}, nil
		},
	},
	{
		Name:         "karypatricia",
		Fanout:       1 << KarySpan,
		Legend:       "PAT-K",
		Description:  "k-ary engine instantiation: 16-child cache-line-sized nodes resolve 4 key bits per level, same flag/help protocol and atomic Replace",
		Replace:      true,
		WaitFreeRead: true,
		New: func(width uint32) (Set, error) {
			return NewKaryPatriciaTrie(width, KarySpan)
		},
	},
}

// Implementations returns the registered implementation names in the
// paper's legend order (PAT first, then the five baselines).
func Implementations() []string {
	names := make([]string, len(registry))
	for i, im := range registry {
		names[i] = im.Name
	}
	return names
}

// AllImplementations returns the full descriptors in the paper's legend
// order, for callers that enumerate the registry (no name round-trip
// through LookupImplementation needed). The returned slice is a copy.
func AllImplementations() []Implementation {
	out := make([]Implementation, len(registry))
	copy(out, registry)
	return out
}

// LookupImplementation resolves a name — either the registry key or the
// paper's legend label, case-insensitively — to its descriptor.
func LookupImplementation(name string) (Implementation, bool) {
	for _, im := range registry {
		if strings.EqualFold(name, im.Name) || strings.EqualFold(name, im.Legend) {
			return im, true
		}
	}
	return Implementation{}, false
}

// NewSet builds a fresh set by implementation name (registry key or
// legend label, case-insensitive), using DefaultWidth for
// width-parameterized implementations. Unknown names list the valid
// choices in the error.
func NewSet(name string) (Set, error) {
	return NewSetWithWidth(name, DefaultWidth)
}

// NewSetWithWidth is NewSet with an explicit key width for
// width-parameterized implementations ([0, 2^width) key space); the
// baselines without a width parameter ignore it.
func NewSetWithWidth(name string, width uint32) (Set, error) {
	im, ok := LookupImplementation(name)
	if !ok {
		names := Implementations()
		sort.Strings(names)
		return nil, fmt.Errorf("nbtrie: unknown implementation %q (want one of %s)",
			name, strings.Join(names, ", "))
	}
	return im.New(width)
}
