package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"nbtrie"
	"nbtrie/internal/server"
	"nbtrie/internal/workload"
)

// The in-process harnesses: H0 drives one nbtrie.Map, H1 a ShardedMap, with
// one goroutine per worker calling straight into the map. The lib-*
// workloads are H0 itself; on the srv-* workloads H0 and H1 replay the same
// op stream without the server around it.

// sampleEvery is how many operations pass between two that are timed one
// by one; the clock reads then cost under a nanosecond per operation.
const sampleEvery = 64

type engineWorker struct {
	*probe
	id  uint64
	gen *workload.Generator

	// Owned by the worker's goroutine; read after it has stopped.
	inserted, deleted  int64 // operations that changed Len
	updates, updatesOK int64 // update attempts and those that returned true
}

// engineHarness runs workers against a map behind apply.
type engineHarness struct {
	name       string
	workers    []*engineWorker
	apply      func(w *engineWorker, op workload.Op)
	length     func() int
	stats      func() nbtrie.EngineStats
	shardStats func() []nbtrie.EngineStats // nil when the map is not sharded
	prefilled  int

	ctl   control
	wg    sync.WaitGroup
	epoch time.Time
}

// newEngineWorkers allocates the generator side of a harness; it is done
// before the heap baseline is read, so none of it counts as the map's.
func newEngineWorkers(mix workload.Mix, keyRange, seed uint64) []*engineWorker {
	ws := make([]*engineWorker, workerCount())
	for i := range ws {
		ws[i] = &engineWorker{
			probe: newProbe(),
			id:    uint64(i),
			gen:   workload.NewGenerator(mix, keyRange, workerSeed(seed, i)),
		}
	}
	return ws
}

// workerSeed spreads one run seed over the workers' generators.
func workerSeed(seed uint64, worker int) uint64 {
	return seed*0x9e3779b97f4a7c15 + uint64(worker+1)*0xbf58476d1ce4e5b9
}

func (h *engineHarness) probes() probes {
	ps := make(probes, len(h.workers))
	for i, w := range h.workers {
		ps[i] = w.probe
	}
	return ps
}

func (h *engineHarness) start() {
	h.epoch = time.Now()
	for _, w := range h.workers {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.run(w)
		}()
	}
}

func (h *engineHarness) run(w *engineWorker) {
	for !h.ctl.stop.Load() {
		win := h.ctl.window.Load()
		start := time.Now()
		h.apply(w, w.gen.Next())
		if win > 0 {
			end := time.Now()
			w.lat.record(win, end.Sub(start).Nanoseconds())
			if h.ctl.traced.Load() {
				w.spans.addOp(start.Sub(h.epoch).Nanoseconds(), end.Sub(h.epoch).Nanoseconds())
			}
		}
		for i := 1; i < sampleEvery; i++ {
			h.apply(w, w.gen.Next())
		}
		w.ops.Add(sampleEvery)
	}
}

// engineStretch is a measured stretch with the engine counters across it.
type engineStretch struct {
	stretch
	stats  nbtrie.EngineStats   // difference over the stretch
	shards []nbtrie.EngineStats // per-shard differences, if sharded
}

func (h *engineHarness) measure(d time.Duration, traced bool) engineStretch {
	var shardsBefore []nbtrie.EngineStats
	if h.shardStats != nil {
		shardsBefore = h.shardStats()
	}
	before := h.stats()
	w := engineStretch{stretch: measure(&h.ctl, h.probes(), d, traced)}
	w.stats = statsDiff(h.stats(), before)
	if h.shardStats != nil {
		for i, s := range h.shardStats() {
			w.shards = append(w.shards, statsDiff(s, shardsBefore[i]))
		}
	}
	return w
}

func (h *engineHarness) stop() {
	h.ctl.stop.Store(true)
	h.wg.Wait()
}

// lenMismatch is the lib oracle: after the workers have stopped, Len must be
// the prefill plus the successful inserts minus the successful deletes
// (ReplaceKey conserves the count).
func (h *engineHarness) lenMismatch() int64 {
	want := int64(h.prefilled)
	for _, w := range h.workers {
		want += w.inserted - w.deleted
	}
	return abs64(int64(h.length()) - want)
}

func (h *engineHarness) updateSuccessShare() float64 {
	var tried, ok int64
	for _, w := range h.workers {
		tried += w.updates
		ok += w.updatesOK
	}
	if tried == 0 {
		return 0
	}
	return float64(ok) / float64(tried)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func statsDiff(a, b nbtrie.EngineStats) nbtrie.EngineStats {
	return nbtrie.EngineStats{
		Help:             a.Help - b.Help,
		HelpAssists:      a.HelpAssists - b.HelpAssists,
		ChildCASFailures: a.ChildCASFailures - b.ChildCASFailures,
		FlagBacktracks:   a.FlagBacktracks - b.FlagBacktracks,
		OpRetries:        a.OpRetries - b.OpRetries,
		SnapshotRenewals: a.SnapshotRenewals - b.SnapshotRenewals,
		DepthSamples:     a.DepthSamples - b.DepthSamples,
		DepthSum:         a.DepthSum - b.DepthSum,
	}
}

// libMap is what the lib workloads need of Map[uint64] and, for H1, of
// ShardedMap[uint64].
type libMap interface {
	Load(k uint64) (uint64, bool)
	LoadOrStore(k, v uint64) (actual uint64, loaded, ok bool)
	Delete(k uint64) bool
	ReplaceKey(old, new uint64) bool
	Len() int
	EngineStats() nbtrie.EngineStats
}

// shardedLib gives ShardedMap the ReplaceKey signature of Map. The lib
// workload that replaces is never run sharded (a cross-shard replace is
// refused), so the error is not looked at.
type shardedLib struct{ *nbtrie.ShardedMap[uint64] }

func (s shardedLib) ReplaceKey(old, new uint64) bool {
	ok, _ := s.ShardedMap.ReplaceKey(old, new)
	return ok
}

const libWidth = 63

// setupLib builds the map of a lib workload, as shipped, and fills it until
// half of the key range is present.
func setupLib(spec *libSpec, sharded bool, seed uint64, workers []*engineWorker) (*engineHarness, error) {
	h := &engineHarness{name: "H0.engine", workers: workers}
	var m libMap
	if sharded {
		sm, err := nbtrie.NewShardedMap[uint64](libWidth, 0)
		if err != nil {
			return nil, err
		}
		m = shardedLib{sm}
		h.name = "H1.sharded"
		h.shardStats = func() []nbtrie.EngineStats { return shardStatsOf(sm.Shards(), sm.ShardEngineStats) }
	} else {
		pm, err := nbtrie.NewMap[uint64](libWidth)
		if err != nil {
			return nil, err
		}
		m = pm
	}
	keys := workload.NewGenerator(workload.Mix{InsertPct: 100}, spec.keyRange, seed)
	for m.Len() < int(spec.keyRange/2) {
		k := keys.Next().Key
		if _, _, ok := m.LoadOrStore(k, k); !ok {
			return nil, fmt.Errorf("prefill: key %d refused", k)
		}
	}
	h.prefilled = m.Len()
	h.length, h.stats = m.Len, m.EngineStats
	h.apply = func(w *engineWorker, op workload.Op) {
		switch op.Kind {
		case workload.OpFind:
			m.Load(op.Key)
		case workload.OpInsert:
			w.updates++
			if _, loaded, ok := m.LoadOrStore(op.Key, op.Key); ok && !loaded {
				w.inserted++
				w.updatesOK++
			}
		case workload.OpDelete:
			w.updates++
			if m.Delete(op.Key) {
				w.deleted++
				w.updatesOK++
			}
		case workload.OpReplace:
			w.updates++
			if m.ReplaceKey(op.Key, op.Key2) {
				w.updatesOK++
			}
		}
	}
	return h, nil
}

func shardStatsOf(n int, shard func(int) nbtrie.EngineStats) []nbtrie.EngineStats {
	s := make([]nbtrie.EngineStats, n)
	for i := range s {
		s[i] = shard(i)
	}
	return s
}

// kvMap is what H0 and H1 of a srv workload need of the two byte-valued maps.
type kvMap interface {
	Load(k uint64) ([]byte, bool)
	Store(k uint64, v []byte) bool
	Delete(k uint64) bool
	Len() int
	EngineStats() nbtrie.EngineStats
}

// setupKV builds H0 (one Map of the server's key width) or H1 (the server's
// own DB(), never served) for a srv workload and prefills it like the
// workload does. Keys go through the server's default keyer once, up front.
func setupKV(spec *srvSpec, sharded bool, workers []*engineWorker) (h *engineHarness, closeFn func() error, err error) {
	keyer := server.BytesKeyer{}
	encoded, err := trieKeys(keyer, spec.keyRange)
	if err != nil {
		return nil, nil, err
	}
	h = &engineHarness{name: "H0.engine", workers: workers}
	closeFn = func() error { return nil }
	var m kvMap
	if sharded {
		srv, err := server.New(server.Config{})
		if err != nil {
			return nil, nil, err
		}
		db := srv.DB()
		m, closeFn = db, srv.Close
		h.name = "H1.sharded"
		h.shardStats = func() []nbtrie.EngineStats { return shardStatsOf(db.Shards(), db.ShardEngineStats) }
	} else if m, err = nbtrie.NewMap[[]byte](keyer.Width()); err != nil {
		return nil, nil, err
	}
	value := make([]byte, valueSize)
	nWorkers := uint64(len(workers))
	for k := uint64(0); k < spec.keyRange; k++ {
		if prefilledKey(k, nWorkers) {
			m.Store(encoded[k], value)
		}
	}
	h.prefilled = m.Len()
	h.length, h.stats = m.Len, m.EngineStats
	own := func(w *engineWorker, k uint64) uint64 {
		return encoded[ownKey(k, w.id, nWorkers, spec.keyRange)]
	}
	h.apply = func(w *engineWorker, op workload.Op) {
		switch op.Kind {
		case workload.OpFind:
			m.Load(encoded[op.Key])
		case workload.OpInsert, workload.OpReplace:
			w.updates++
			if m.Store(own(w, op.Key), value) {
				w.updatesOK++
			}
		case workload.OpDelete:
			w.updates++
			if m.Delete(own(w, op.Key)) {
				w.updatesOK++
			}
		}
	}
	return h, closeFn, nil
}

// trieKeys maps each wire key of a srv workload (the decimal spelling of
// its number) to the trie key the server's keyer gives it.
func trieKeys(keyer server.Keyer, keyRange uint64) ([]uint64, error) {
	encoded := make([]uint64, keyRange)
	for k := range encoded {
		var err error
		if encoded[k], err = keyer.Encode(strconv.AppendUint(nil, uint64(k), 10)); err != nil {
			return nil, err
		}
	}
	return encoded, nil
}

// prefilledKey says whether the srv workloads' setup writes k: every other
// key of each connection.
func prefilledKey(k, workers uint64) bool { return (k/workers)%2 == 0 }
