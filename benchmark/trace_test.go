package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spanBatch, Start: 0, End: 100, Parent: -1},   // 0: children cover 10..40, 50..90
		{Name: spanEncode, Start: 10, End: 30, Parent: 0},   // 1
		{Name: spanFlush, Start: 20, End: 40, Parent: 0},    // 2: overlaps 1, counted once
		{Name: spanWait, Start: 50, End: 90, Parent: 0},     // 3: child 4 covers 60..70
		{Name: spanDecode, Start: 60, End: 70, Parent: 3},   // 4
		{Name: spanOp, Start: 200, End: 260, Parent: -1},    // 5: a root of its own
		{Name: spanDecode, Start: 250, End: 300, Parent: 5}, // 6: sticks out of its parent
	}
	want := []int64{100 - 30 - 40, 20, 20, 40 - 10, 10, 60 - 10, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
	byName := selfByName(spans)
	if byName[spanDecode] != 60 || byName[spanBatch] != 30 {
		t.Errorf("selfByName: decode %d batch %d, want 60 and 30", byName[spanDecode], byName[spanBatch])
	}
}

func TestBatchSpansAddUpToTheBatch(t *testing.T) {
	l := newSpanLog()
	l.addBatch(0, 10, 25, 70, 90)
	l.addBatch(100, 105, 120, 0, 130) // replies were already buffered: no read after the flush
	self := selfTimes(l.spans)
	for root := 0; root < len(l.spans); root += 5 {
		sum := int64(0)
		for i := root; i < root+5; i++ {
			sum += self[i]
		}
		if d := l.spans[root].End - l.spans[root].Start; sum != d {
			t.Errorf("batch at %d: self times add up to %d, the batch took %d", root, sum, d)
		}
		if self[root] != 0 {
			t.Errorf("batch at %d: %d ns of it are in none of its phases", root, self[root])
		}
	}
	if w := l.spans[8]; w.Start != 120 || w.End != 120 {
		t.Errorf("wait of a batch with no read: %d..%d, want empty at 120", w.Start, w.End)
	}
}

func TestSpanLogStopsWhenFull(t *testing.T) {
	l := newSpanLog()
	for i := 0; i < spansPerWorker; i++ {
		l.addBatch(0, 1, 2, 3, 4)
	}
	if len(l.spans) != spansPerWorker/5*5 || cap(l.spans) != spansPerWorker {
		t.Fatalf("log holds %d spans (cap %d), want %d", len(l.spans), cap(l.spans), spansPerWorker/5*5)
	}
}

func TestWriteTraceIsJSONWithParents(t *testing.T) {
	l := newSpanLog()
	l.addBatch(0, 10, 25, 70, 90)
	l.addOp(100, 120)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, "w", 7, []tracedHarness{{"H4.wire", probes{{spans: l}}}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Seed     uint64
		Spans    []struct {
			ID, Harness, Name string
			Start, End        int64
			Parent            *string
			Batch             uint32
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if doc.Workload != "w" || doc.Seed != 7 || len(doc.Spans) != 6 {
		t.Fatalf("trace: %+v", doc)
	}
	if doc.Spans[0].Parent != nil || doc.Spans[3].Parent == nil || *doc.Spans[3].Parent != doc.Spans[0].ID {
		t.Errorf("wait's parent is %v, want the batch %q", doc.Spans[3].Parent, doc.Spans[0].ID)
	}
	if doc.Spans[3].Name != "wait" || doc.Spans[5].Name != "op" || doc.Spans[5].Batch != 1 {
		t.Errorf("names or batch ids: %+v", doc.Spans)
	}
}
