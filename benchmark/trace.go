package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
)

// Spans are recorded by the benchmark around its calls into each layer,
// kept in memory while a harness runs, and written out when the run ends.

type spanName uint8

const (
	spanBatch  spanName = iota // one pipelined round trip, root of the four below
	spanEncode                 // building the request bytes
	spanFlush                  // the write that hands them to the connection
	spanWait                   // from the write's return to the last read's return
	spanDecode                 // checking the replies after the last read
	spanOp                     // one library call (lib workloads)
)

var spanNames = [...]string{"batch", "encode", "flush", "wait", "decode", "op"}

// span times are nanoseconds since the harness started. Parent is an index
// into the same slice, -1 for a root; the spans of one batch share Batch.
type span struct {
	Name       spanName
	Start, End int64
	Parent     int32
	Batch      uint32
}

// spanLog is one worker's spans. It stops recording when full, so a long
// harness keeps its first spans and its memory stays bounded.
type spanLog struct {
	spans   []span
	batches uint32
}

// spansPerWorker bounds one worker's log in one harness.
const spansPerWorker = 5000

func newSpanLog() *spanLog { return &spanLog{spans: make([]span, 0, spansPerWorker)} }

func (l *spanLog) room(n int) bool { return len(l.spans)+n <= cap(l.spans) }

// addBatch records a round trip as a root span and its four phases.
func (l *spanLog) addBatch(encodeStart, flushStart, flushEnd, lastRead, end int64) {
	if !l.room(5) {
		return
	}
	root := int32(len(l.spans))
	id := l.batches
	l.batches++
	// A batch whose replies were already buffered has no read after the
	// flush; its wait is empty.
	lastRead = min(max(lastRead, flushEnd), end)
	l.spans = append(l.spans,
		span{spanBatch, encodeStart, end, -1, id},
		span{spanEncode, encodeStart, flushStart, root, id},
		span{spanFlush, flushStart, flushEnd, root, id},
		span{spanWait, flushEnd, lastRead, root, id},
		span{spanDecode, lastRead, end, root, id},
	)
}

func (l *spanLog) addOp(start, end int64) {
	if !l.room(1) {
		return
	}
	l.spans = append(l.spans, span{spanOp, start, end, -1, l.batches})
	l.batches++
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		slices.SortFunc(kids, func(a, b int32) int { return cmp.Compare(spans[a].Start, spans[b].Start) })
		covered := s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if to > from {
				self[i] -= to - from
				covered = to
			}
		}
	}
	return self
}

// selfByName sums self times by span name.
func selfByName(spans []span) (byName [len(spanNames)]int64) {
	for i, d := range selfTimes(spans) {
		byName[spans[i].Name] += d
	}
	return byName
}

// tracedHarness is what one harness contributes to the trace file.
type tracedHarness struct {
	name   string
	probes probes // one per worker
}

// writeTrace writes every recorded span as one JSON document.
func writeTrace(path, workloadName string, seed uint64, harnesses []tracedHarness) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\": %q, \"seed\": %d, \"time_unit\": \"ns since the harness started\", \"spans\": [", workloadName, seed)
	first := true
	for _, h := range harnesses {
		for worker, p := range h.probes {
			for i, s := range p.spans.spans {
				if !first {
					w.WriteByte(',')
				}
				first = false
				parent := "null"
				if s.Parent >= 0 {
					parent = fmt.Sprintf("\"%s/%d/%d\"", h.name, worker, s.Parent)
				}
				fmt.Fprintf(w, "\n{\"id\": \"%s/%d/%d\", \"harness\": %q, \"worker\": %d, \"name\": %q, \"start\": %d, \"end\": %d, \"parent\": %s, \"batch\": %d}",
					h.name, worker, i, h.name, worker, spanNames[s.Name], s.Start, s.End, parent, s.Batch)
			}
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
