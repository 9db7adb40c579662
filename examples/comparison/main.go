// Comparison: drives every registered set implementation — the paper's
// six plus the spatial, sharded and k-ary engine instantiations — through
// the same mixed workload and prints a small throughput table. Each row
// is one timed pass from the paper's half-full prefill: a quick look, not
// a measurement (the benchmark/ program is where numbers come from).
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"nbtrie"
	"nbtrie/internal/workload"
)

func main() {
	const (
		keyRange  = 100_000
		workers   = 4
		opsPerWkr = 250_000
	)
	mix := workload.MixI15D15F70
	fmt.Printf("workload %v, key range %d, %d goroutines x %d ops\n\n", mix, keyRange, workers, opsPerWkr)
	fmt.Printf("%-6s %6s %14s  %s\n", "impl", "fanout", "ops/s", "replace")

	// The registry enumerates every implementation — no hard-coded list.
	for _, im := range nbtrie.AllImplementations() {
		// Width 17 is the smallest covering the key range — minimal on
		// purpose: the sharded trie (PAT-S) picks a root slot by the top
		// key bits, so slack width would funnel every key into its first
		// slot.
		s, err := im.New(17)
		if err != nil {
			log.Fatal(err)
		}
		workload.Prefill(s, keyRange, 1)

		var wg sync.WaitGroup
		start := time.Now()
		for w := range workers {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				g := workload.NewGenerator(mix, keyRange, seed)
				for range opsPerWkr {
					op := g.Next()
					switch op.Kind {
					case workload.OpInsert:
						s.Insert(op.Key)
					case workload.OpDelete:
						s.Delete(op.Key)
					default:
						s.Contains(op.Key)
					}
				}
			}(uint64(w) + 2)
		}
		wg.Wait()
		opsPerSec := float64(workers*opsPerWkr) / time.Since(start).Seconds()
		fmt.Printf("%-6s %6d %14.0f  %s\n", im.Legend, im.Fanout, opsPerSec, im.Replace)
	}
}
