package nbtrie_test

import (
	"fmt"

	"nbtrie"
)

// The basic set operations of the non-blocking Patricia trie.
func ExampleNewPatriciaTrie() {
	set, err := nbtrie.NewPatriciaTrie(16) // keys in [0, 65536)
	if err != nil {
		panic(err)
	}
	fmt.Println(set.Insert(42))   // newly added
	fmt.Println(set.Insert(42))   // duplicate
	fmt.Println(set.Contains(42)) // wait-free lookup
	fmt.Println(set.Delete(42))
	fmt.Println(set.Contains(42))
	// Output:
	// true
	// false
	// true
	// true
	// false
}

// Replace removes one key and inserts another atomically: there is no
// instant at which both keys are absent or both present.
func ExamplePatriciaTrie_Replace() {
	set, _ := nbtrie.NewPatriciaTrie(16)
	set.Insert(100)

	fmt.Println(set.Replace(100, 200)) // moves the element
	fmt.Println(set.Contains(100), set.Contains(200))
	fmt.Println(set.Replace(100, 300)) // 100 is gone: no-op
	fmt.Println(set.Replace(200, 200)) // same key: no-op by specification
	// Output:
	// true
	// false true
	// false
	// false
}

// Ordered queries walk the trie's sorted leaves.
func ExamplePatriciaTrie_Ceiling() {
	set, _ := nbtrie.NewPatriciaTrie(16)
	for _, k := range []uint64{10, 20, 30} {
		set.Insert(k)
	}
	if k, ok := set.Ceiling(15); ok {
		fmt.Println(k)
	}
	if k, ok := set.Floor(15); ok {
		fmt.Println(k)
	}
	min, _ := set.Min()
	max, _ := set.Max()
	fmt.Println(min, max)
	// Output:
	// 20
	// 10
	// 10 30
}

// The Section VI extension stores arbitrary-length byte strings.
func ExampleNewStringTrie() {
	dict := nbtrie.NewStringTrie()
	dict.Insert([]byte("gopher"))
	dict.Insert([]byte("go")) // prefixes of stored keys are fine

	fmt.Println(dict.Contains([]byte("go")))
	fmt.Println(dict.Contains([]byte("gop"))) // prefix != member
	fmt.Println(dict.Replace([]byte("gopher"), []byte("ferret")))
	fmt.Println(dict.Size())
	// Output:
	// true
	// false
	// true
	// 2
}

// A Map binds values to keys with the sync.Map operation set plus the
// paper's atomic ReplaceKey, which moves a binding between keys at a
// single linearization point.
func ExampleNewMap() {
	m, err := nbtrie.NewMap[string](16)
	if err != nil {
		panic(err)
	}
	m.Store(1, "one")
	fmt.Println(m.LoadOrStore(1, "uno")) // already bound (loaded=true, ok=true)
	fmt.Println(m.CompareAndSwap(1, "one", "ONE"))
	fmt.Println(m.ReplaceKey(1, 2)) // the value travels with the key
	v, ok := m.Load(2)
	fmt.Println(v, ok)
	// Output:
	// one true true
	// true
	// true
	// ONE true
}

// All and Ascend iterate the map in key order (Go 1.23 range-over-func).
func ExampleMap_Ascend() {
	m, _ := nbtrie.NewMap[string](16)
	m.Store(30, "c")
	m.Store(10, "a")
	m.Store(20, "b")
	for k, v := range m.Ascend(15) {
		fmt.Println(k, v)
	}
	// Output:
	// 20 b
	// 30 c
}

// The registry enumerates every implementation by name; NewSet builds
// one without hard-coding a switch.
func ExampleNewSet() {
	for _, name := range nbtrie.Implementations() {
		s, err := nbtrie.NewSet(name)
		if err != nil {
			panic(err)
		}
		s.Insert(42)
		fmt.Println(name, s.Contains(42))
	}
	// Output:
	// patricia true
	// kst true
	// bst true
	// avl true
	// skiplist true
	// ctrie true
	// spatial true
	// karypatricia true
}

// Replace as decrease-key: the paper's priority-queue use. A task's key
// is (priority << idBits) | id, so trie order is priority order, and
// changing a task's priority is one atomic Replace: no reader sees the
// task vanish or hold two priorities. Popping is Min, then Delete, which
// a concurrent popper can win; the loser retries.
func ExamplePatriciaTrie_Replace_priorityQueue() {
	const idBits = 20
	key := func(prio, id uint64) uint64 { return prio<<idBits | id }
	q, _ := nbtrie.NewPatriciaTrie(10 + idBits)
	q.Insert(key(500, 1))
	q.Insert(key(300, 2))
	q.Insert(key(700, 3))

	fmt.Println(q.Replace(key(700, 3), key(100, 3))) // task 3 jumps the queue
	fmt.Println(q.Replace(key(700, 3), key(50, 3)))  // it is no longer at 700

	for {
		k, ok := q.Min()
		if !ok {
			break
		}
		if q.Delete(k) {
			fmt.Println("task", k&(1<<idBits-1), "priority", k>>idBits)
		}
	}
	// Output:
	// true
	// false
	// task 3 priority 100
	// task 2 priority 300
	// task 1 priority 500
}

// A SpatialMap keys points by their Morton code, which makes the trie a
// quadtree-like index: Move is the paper's Replace in the plane (the
// value travels with the point, which is never in two places or none),
// and InRect is a pruned scan of one Morton-code interval.
func ExampleNewSpatialMap() {
	fleet := nbtrie.NewSpatialMap[string]()
	fleet.Store(1, 1, "car-a")
	fleet.Store(2, 3, "car-b")
	fleet.Store(9, 9, "car-c")

	fmt.Println(fleet.Move(nbtrie.Point{X: 9, Y: 9}, nbtrie.Point{X: 3, Y: 2}))
	fmt.Println(fleet.Move(nbtrie.Point{X: 1, Y: 1}, nbtrie.Point{X: 2, Y: 3})) // occupied
	for p, id := range fleet.InRect(nbtrie.Point{X: 0, Y: 0}, nbtrie.Point{X: 3, Y: 3}) {
		fmt.Println(p.X, p.Y, id)
	}
	id, ok := fleet.Load(9, 9)
	fmt.Printf("%q %t %d\n", id, ok, fleet.Len())
	// Output:
	// true
	// false
	// 1 1 car-a
	// 3 2 car-c
	// 2 3 car-b
	// "" false 3
}

// AllImplementations lists every registered set with its figure legend,
// its interior fanout and whether it has the paper's atomic Replace.
func ExampleAllImplementations() {
	for _, im := range nbtrie.AllImplementations() {
		fmt.Printf("%-6s %2d %t\n", im.Legend, im.Fanout, im.Replace)
	}
	// Output:
	// PAT     2 true
	// 4-ST    4 false
	// BST     2 false
	// AVL     2 false
	// SL      2 false
	// Ctrie  32 false
	// PAT-Z   2 true
	// PAT-K  16 true
}
