package nbtrie

// Benchmark families regenerating the paper's evaluation (Section V).
// One family per figure; sub-benchmarks are the figure's series (the
// legend entries of the implementation registry). Throughput corresponds
// to 1/ns-per-op; vary concurrency with -cpu, e.g.:
//
//	go test -bench 'Fig09' -cpu 1,2,4,8 -benchmem
//
// Each family starts from the paper's half-full prefill
// (workload.Prefill). These are the paper's figures in runnable form;
// the end-to-end and per-layer numbers the repository is judged by come
// from the benchmark/ program. Ablation benchmarks for the design
// choices called out in DESIGN.md follow at the bottom.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"nbtrie/internal/workload"
)

// mkSet builds an implementation through the registry (legend labels
// resolve as well as registry names).
func mkSet(b *testing.B, name string, width uint32) Set {
	b.Helper()
	s, err := NewSetWithWidth(name, width)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// legend returns the series labels in the paper's order, from the
// registry.
func legend() []string {
	impls := AllImplementations()
	out := make([]string, 0, len(impls))
	for _, im := range impls {
		out = append(out, im.Legend)
	}
	return out
}

// widthFor returns the smallest trie width covering keyRange.
func widthFor(keyRange uint64) uint32 {
	w := uint32(1)
	for uint64(1)<<w < keyRange {
		w++
	}
	return w
}

// runMix drives one prefilled set with the given mix under RunParallel.
func runMix(b *testing.B, s Set, mix workload.Mix, keyRange, seqLen uint64) {
	b.Helper()
	workload.Prefill(s, keyRange, 1)
	rs, hasReplace := s.(ReplaceSet)
	if mix.ReplacePct > 0 && !hasReplace {
		b.Fatalf("mix %v needs replace support", mix)
	}
	var seeds atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seed := seeds.Add(1) * 0x9e3779b9
		var g *workload.Generator
		if seqLen > 0 {
			g = workload.NewSequenceGenerator(mix, keyRange, seqLen, seed)
		} else {
			g = workload.NewGenerator(mix, keyRange, seed)
		}
		for pb.Next() {
			op := g.Next()
			switch op.Kind {
			case workload.OpInsert:
				s.Insert(op.Key)
			case workload.OpDelete:
				s.Delete(op.Key)
			case workload.OpFind:
				s.Contains(op.Key)
			case workload.OpReplace:
				rs.Replace(op.Key, op.Key2)
			}
		}
	})
}

// figBench runs one figure: every legend entry on the same workload.
func figBench(b *testing.B, mix workload.Mix, keyRange, seqLen uint64) {
	width := widthFor(keyRange)
	for _, name := range legend() {
		b.Run(name, func(b *testing.B) {
			runMix(b, mkSet(b, name, width), mix, keyRange, seqLen)
		})
	}
}

// BenchmarkFig08a_LowContention_i5d5f90 is Figure 8 (top): uniform keys
// in (0, 10^6), 5% inserts / 5% deletes / 90% finds.
func BenchmarkFig08a_LowContention_i5d5f90(b *testing.B) {
	figBench(b, workload.MixI5D5F90, 1_000_000, 0)
}

// BenchmarkFig08b_LowContention_i50d50 is Figure 8 (bottom): uniform keys
// in (0, 10^6), 50% inserts / 50% deletes.
func BenchmarkFig08b_LowContention_i50d50(b *testing.B) {
	figBench(b, workload.MixI50D50, 1_000_000, 0)
}

// BenchmarkFig09a_HighContention_i5d5f90 is Figure 9 (top): uniform keys
// in (0, 100) — very high contention — 5/5/90.
func BenchmarkFig09a_HighContention_i5d5f90(b *testing.B) {
	figBench(b, workload.MixI5D5F90, 100, 0)
}

// BenchmarkFig09b_HighContention_i50d50 is Figure 9 (bottom): uniform
// keys in (0, 100), all updates.
func BenchmarkFig09b_HighContention_i50d50(b *testing.B) {
	figBench(b, workload.MixI50D50, 100, 0)
}

// BenchmarkFig10_Replace_PAT is Figure 10: 10% inserts / 10% deletes /
// 80% replaces on uniform keys in (0, 10^6). Only PAT supports an atomic
// replace, exactly as in the paper ("we could not compare these results
// with other data structures since none provide atomic replace").
func BenchmarkFig10_Replace_PAT(b *testing.B) {
	runMix(b, mkSet(b, "PAT", widthFor(1_000_000)), workload.MixI10D10R80, 1_000_000, 0)
}

// BenchmarkFig11_NonUniform_i15d15f70 is Figure 11: 15/15/70 over the
// range (0, 10^6), each goroutine walking runs of 50 consecutive keys
// from random starting points. Only the operations walk runs: the
// prefill is the uniform, shuffled half-full one of every family
// (workload.Prefill), so the comparison-based trees start balanced.
func BenchmarkFig11_NonUniform_i15d15f70(b *testing.B) {
	figBench(b, workload.MixI15D15F70, 1_000_000, 50)
}

// BenchmarkMediumContention_i15d15f70 is the Section V text experiment
// the paper describes but does not plot: key range (0, 10^3).
func BenchmarkMediumContention_i15d15f70(b *testing.B) {
	figBench(b, workload.MixI15D15F70, 1_000, 0)
}

// --- Ablations (design choices from DESIGN.md) ---

// BenchmarkAblation_KST_k sweeps the k-ary tree's branching factor around
// the paper's choice k=4 (Brown & Helga found 4 optimal).
func BenchmarkAblation_KST_k(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			runMix(b, NewKST(k), workload.MixI5D5F90, 1_000_000, 0)
		})
	}
}

// BenchmarkAblation_PAT_Width sweeps the trie's key width (= height
// bound) at fixed key range, isolating the cost of longer search paths.
func BenchmarkAblation_PAT_Width(b *testing.B) {
	for _, w := range []uint32{20, 32, 48, 63} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			p, err := NewPatriciaTrie(w)
			if err != nil {
				b.Fatal(err)
			}
			runMix(b, p, workload.MixI5D5F90, 1_000_000, 0)
		})
	}
}

// BenchmarkAblation_Prefill contrasts the paper's half-full start with an
// empty start (tree shape and hit rates differ drastically).
func BenchmarkAblation_Prefill(b *testing.B) {
	w := widthFor(1_000_000)
	b.Run("HalfFull", func(b *testing.B) {
		p, _ := NewPatriciaTrie(w)
		runMix(b, p, workload.MixI50D50, 1_000_000, 0)
	})
	b.Run("Empty", func(b *testing.B) {
		p, _ := NewPatriciaTrie(w)
		var seeds atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			g := workload.NewGenerator(workload.MixI50D50, 1_000_000, seeds.Add(1))
			for pb.Next() {
				op := g.Next()
				if op.Kind == workload.OpInsert {
					p.Insert(op.Key)
				} else {
					p.Delete(op.Key)
				}
			}
		})
	})
}

// BenchmarkContains_PAT isolates the wait-free find on a half-full
// million-key trie (pure-read path, no CAS).
func BenchmarkContains_PAT(b *testing.B) {
	p, err := NewPatriciaTrie(widthFor(1_000_000))
	if err != nil {
		b.Fatal(err)
	}
	workload.Prefill(p, 1_000_000, 1)
	var seeds atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := workload.NewGenerator(workload.Mix{FindPct: 100}, 1_000_000, seeds.Add(1))
		for pb.Next() {
			p.Contains(g.Next().Key)
		}
	})
}
