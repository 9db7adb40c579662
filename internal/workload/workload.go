// Package workload generates the operation streams of the paper's
// evaluation (Section V): operation mixes like i5-d5-f90 over uniformly
// random keys in a range, the non-uniform "runs of 50 consecutive keys"
// pattern of Figure 11, and replace-heavy mixes for Figure 10.
package workload

import "fmt"

// OpKind is one of the four set operations.
type OpKind uint8

// Operations in a workload stream.
const (
	OpInsert OpKind = iota
	OpDelete
	OpFind
	OpReplace
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpFind:
		return "find"
	case OpReplace:
		return "replace"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Mix is an operation ratio in percent; the paper writes it i5-d5-f90.
type Mix struct {
	InsertPct  int
	DeletePct  int
	FindPct    int
	ReplacePct int
}

// The operation mixes used by the paper's experiments.
var (
	MixI5D5F90   = Mix{InsertPct: 5, DeletePct: 5, FindPct: 90}
	MixI50D50    = Mix{InsertPct: 50, DeletePct: 50}
	MixI15D15F70 = Mix{InsertPct: 15, DeletePct: 15, FindPct: 70}
	MixI10D10R80 = Mix{InsertPct: 10, DeletePct: 10, ReplacePct: 80}
)

// String renders the mix in the paper's notation.
func (m Mix) String() string {
	s := fmt.Sprintf("i%d-d%d-f%d", m.InsertPct, m.DeletePct, m.FindPct)
	if m.ReplacePct > 0 {
		s = fmt.Sprintf("i%d-d%d-r%d", m.InsertPct, m.DeletePct, m.ReplacePct)
	}
	return s
}

// Valid reports whether the percentages sum to 100.
func (m Mix) Valid() bool {
	return m.InsertPct >= 0 && m.DeletePct >= 0 && m.FindPct >= 0 && m.ReplacePct >= 0 &&
		m.InsertPct+m.DeletePct+m.FindPct+m.ReplacePct == 100
}

// Op is one generated operation. Key2 is used by replaces only.
type Op struct {
	Kind OpKind
	Key  uint64
	Key2 uint64
}

// rng is a splitmix64 PRNG: tiny, allocation-free and independent per
// goroutine, so workload generation never becomes a contention point —
// essential when the generator sits inside a throughput benchmark loop.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Generator produces an endless operation stream. Generators are NOT safe
// for concurrent use; give each worker its own (NewGenerator with
// distinct seeds).
type Generator struct {
	mix      Mix
	keyRange uint64
	rng      rng

	// Non-uniform mode (Figure 11): operations walk runs of seqLen
	// consecutive keys starting at a random base.
	seqLen  uint64
	seqBase uint64
	seqPos  uint64
}

// NewGenerator returns a uniform-key generator over [0, keyRange).
func NewGenerator(mix Mix, keyRange uint64, seed uint64) *Generator {
	return &Generator{mix: mix, keyRange: keyRange, rng: rng{state: seed}}
}

// NewSequenceGenerator returns the paper's non-uniform generator:
// "processes performed operations on sequences of 50 consecutive keys,
// starting from a randomly chosen key" (seqLen = 50 in Figure 11).
func NewSequenceGenerator(mix Mix, keyRange, seqLen, seed uint64) *Generator {
	g := NewGenerator(mix, keyRange, seed)
	g.seqLen = seqLen
	g.seqPos = seqLen // force a fresh base on first use
	return g
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	k := g.nextKey()
	switch p := int(g.rng.next() % 100); {
	case p < g.mix.InsertPct:
		return Op{Kind: OpInsert, Key: k}
	case p < g.mix.InsertPct+g.mix.DeletePct:
		return Op{Kind: OpDelete, Key: k}
	case p < g.mix.InsertPct+g.mix.DeletePct+g.mix.FindPct:
		return Op{Kind: OpFind, Key: k}
	default:
		return Op{Kind: OpReplace, Key: k, Key2: g.nextKey()}
	}
}

func (g *Generator) nextKey() uint64 {
	if g.seqLen == 0 {
		return g.rng.next() % g.keyRange
	}
	if g.seqPos >= g.seqLen {
		g.seqBase = g.rng.next() % g.keyRange
		g.seqPos = 0
	}
	k := (g.seqBase + g.seqPos) % g.keyRange
	g.seqPos++
	return k
}

// KeyRange returns the generator's key range.
func (g *Generator) KeyRange() uint64 { return g.keyRange }

// Prefill populates s to half-full over [0, keyRange). The paper fills by
// running a random i50-d50 stream to steady state, which leaves each key
// present with probability 1/2; we sample that stationary distribution
// directly. Keys are inserted in a shuffled order: the random stream's
// insertion order is what gives the unbalanced trees (BST, k-ST) their
// expected logarithmic depth, so a sequential fill would mismeasure them
// catastrophically.
func Prefill(s interface{ Insert(k uint64) bool }, keyRange, seed uint64) {
	g := NewGenerator(MixI50D50, keyRange, seed)
	perm := make([]uint64, keyRange)
	for k := range perm {
		perm[k] = uint64(k)
	}
	for k := keyRange - 1; k > 0; k-- {
		j := g.Next().Key % (k + 1) // generator doubles as shuffle source
		perm[k], perm[j] = perm[j], perm[k]
	}
	for _, k := range perm {
		if g.Next().Key&1 == 0 {
			s.Insert(k)
		}
	}
}
