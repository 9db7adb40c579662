package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nbtrie/internal/resp"
)

// maxLen is the key and value cap the dump tests read under.
const maxLen = 1 << 20

func pairs(n int) [][2][]byte {
	out := make([][2][]byte, n)
	for i := range out {
		out[i] = [2][]byte{
			[]byte(fmt.Sprintf("key-%06d", i)),
			[]byte(fmt.Sprintf("value-%d-%s", i, string(make([]byte, i%37)))),
		}
	}
	return out
}

// ttlFor gives every third pair a deadline so dump tests exercise both
// TTL'd and TTL-less records.
func ttlFor(i int) uint64 {
	if i%3 != 0 {
		return 0
	}
	return uint64(1_700_000_000_000 + i)
}

func iterOf(ps [][2][]byte) func(func(k, v []byte, expireAtMS uint64) bool) {
	return func(fn func(k, v []byte, expireAtMS uint64) bool) {
		for i, p := range ps {
			if !fn(p[0], p[1], ttlFor(i)) {
				return
			}
		}
	}
}

func TestDumpRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1000} {
		ps := pairs(n)
		var buf bytes.Buffer
		if err := WriteDump(&buf, iterOf(ps)); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		var got [][2][]byte
		var ttls []uint64
		err := ReadDump(bytes.NewReader(buf.Bytes()), maxLen, func(k, v []byte, expireAtMS uint64) error {
			// k and v are valid only during the call.
			got = append(got, [2][]byte{bytes.Clone(k), bytes.Clone(v)})
			ttls = append(ttls, expireAtMS)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: read back %d records", n, len(got))
		}
		for i := range ps {
			if !bytes.Equal(got[i][0], ps[i][0]) || !bytes.Equal(got[i][1], ps[i][1]) {
				t.Fatalf("n=%d: record %d mismatch", n, i)
			}
			if ttls[i] != ttlFor(i) {
				t.Fatalf("n=%d: record %d deadline %d, want %d", n, i, ttls[i], ttlFor(i))
			}
		}
	}
}

// TestDumpReadsV1 pins backward compatibility: a version-1 dump (no TTL
// field per record) must load with every record reporting no deadline.
func TestDumpReadsV1(t *testing.T) {
	ps := pairs(7)
	var buf bytes.Buffer
	writeDumpV1(&buf, ps)
	var n int
	err := ReadDump(bytes.NewReader(buf.Bytes()), maxLen, func(k, v []byte, expireAtMS uint64) error {
		if !bytes.Equal(k, ps[n][0]) || !bytes.Equal(v, ps[n][1]) {
			t.Fatalf("record %d mismatch", n)
		}
		if expireAtMS != 0 {
			t.Fatalf("record %d: v1 dump reports deadline %d", n, expireAtMS)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("read v1: %v", err)
	}
	if n != len(ps) {
		t.Fatalf("read %d of %d v1 records", n, len(ps))
	}
	// Damage detection must hold for v1 framing too.
	raw := buf.Bytes()
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0x41
	if err := ReadDump(bytes.NewReader(mut), maxLen, func(k, v []byte, e uint64) error { return nil }); err == nil {
		t.Error("damaged v1 dump went undetected")
	}
}

// writeDumpV1 emits the NBRDB001 frame (no per-record TTL), as the
// pre-expiry writer did, so the reader's compatibility path stays pinned.
func writeDumpV1(buf *bytes.Buffer, ps [][2][]byte) {
	var body bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	body.WriteString(dumpMagicV1)
	for _, p := range ps {
		body.WriteByte(recEntry)
		body.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(p[0])))])
		body.Write(p[0])
		body.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(p[1])))])
		body.Write(p[1])
	}
	body.WriteByte(recEnd)
	body.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(ps)))])
	crc := crc64.Update(0, crcTable, body.Bytes())
	binary.LittleEndian.PutUint64(scratch[:8], crc)
	body.Write(scratch[:8])
	buf.Write(body.Bytes())
}

// TestDumpDetectsDamage flips, truncates and extends a valid dump at
// every byte position: every mutation must surface as a CorruptError,
// never a silent partial load or a panic.
func TestDumpDetectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDump(&buf, iterOf(pairs(5))); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	discard := func(k, v []byte, expireAtMS uint64) error { return nil }

	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x41
		if err := ReadDump(bytes.NewReader(mut), maxLen, discard); err == nil {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
	for i := 0; i < len(valid); i++ {
		if err := ReadDump(bytes.NewReader(valid[:i]), maxLen, discard); err == nil {
			t.Errorf("truncation to %d bytes went undetected", i)
		}
	}
	if err := ReadDump(bytes.NewReader(append(append([]byte(nil), valid...), 'x')), maxLen, discard); err == nil {
		t.Error("trailing garbage went undetected")
	}
}

func TestSaveLoadDumpFile(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir, SyncNo, resp.Limits{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := pairs(100)
	if err := d.SaveBase(1, iterOf(ps)); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := LoadDump(dir, BaseName(1), maxLen, func(k, v []byte, expireAtMS uint64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("loaded %d records, want 100", n)
	}
	// No temp litter.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Errorf("data dir holds %d files after SaveBase, want 1", len(ents))
	}
}

func TestAOFAppendReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, IncrName(1))
	a, err := OpenAOF(path, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	a.Append([]byte("SET"), []byte("k1"), []byte("v1"))
	a.Append([]byte("SET"), []byte("k2"), []byte("v2"))
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	a.Append([]byte("DEL"), []byte("k1"))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	var got [][]string
	rec, trunc, err := ReplayFile(path, resp.Limits{}, func(args [][]byte) error {
		var ss []string
		for _, a := range args {
			ss = append(ss, string(a))
		}
		got = append(got, ss)
		return nil
	})
	if err != nil || trunc {
		t.Fatalf("replay: rec=%d trunc=%v err=%v", rec, trunc, err)
	}
	want := [][]string{{"SET", "k1", "v1"}, {"SET", "k2", "v2"}, {"DEL", "k1"}}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("record %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
}

// TestAOFSealedCommitReturnsTheSeal: Close seals a segment, and a
// Commit or Sync that reaches it afterwards returns the seal's result. A
// clean seal synced every record appended before it, so both return nil
// and the batch they close may be acknowledged; after a failed seal both
// return its error, so the batch is not. Append refuses either way.
func TestAOFSealedCommitReturnsTheSeal(t *testing.T) {
	dir := t.TempDir()
	rec := [][]byte{[]byte("SET"), []byte("k"), []byte("v")}
	a, err := OpenAOF(filepath.Join(dir, IncrName(1)), SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	a.Append(rec...)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Errorf("Commit after a clean seal: %v, want nil", err)
	}
	if err := a.Sync(); err != nil {
		t.Errorf("Sync after a clean seal: %v, want nil", err)
	}
	if err := a.Append(rec...); err == nil {
		t.Error("Append after a seal succeeded")
	}

	// A seal that cannot write the buffered record out fails.
	b, err := OpenAOF(filepath.Join(dir, IncrName(2)), SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	b.Append(rec...)
	b.f.Close()
	sealErr := b.Close()
	if sealErr == nil {
		t.Fatal("a seal over a closed file succeeded")
	}
	if err := b.Commit(); err != sealErr {
		t.Errorf("Commit after a failed seal: %v, want the seal's %v", err, sealErr)
	}
	if err := b.Sync(); err != sealErr {
		t.Errorf("Sync after a failed seal: %v, want the seal's %v", err, sealErr)
	}
}

// TestAOFTornTail simulates a crash mid-append: every proper prefix of
// a valid AOF must replay its complete records, report the tear, and
// after ReplayFile the file must be truncated to a clean boundary that
// replays tear-free.
func TestAOFTornTail(t *testing.T) {
	var buf bytes.Buffer
	w := resp.NewWriter(newBufWriter(&buf))
	w.WriteCommand([]byte("SET"), []byte("alpha"), []byte("1"))
	w.WriteCommand([]byte("SET"), []byte("beta"), []byte("2"))
	w.WriteCommand([]byte("DEL"), []byte("alpha"))
	w.Flush()
	full := buf.Bytes()

	for cut := 0; cut <= len(full); cut++ {
		n := 0
		valid, torn, err := Replay(bytes.NewReader(full[:cut]), resp.Limits{}, func([][]byte) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		if int64(cut) == valid && torn {
			t.Errorf("cut %d: clean boundary misreported as torn", cut)
		}
		if int64(cut) != valid && !torn {
			t.Errorf("cut %d: lost bytes (valid=%d) without reporting a tear", cut, valid)
		}
		// The recovered prefix must itself replay cleanly.
		n2 := 0
		v2, torn2, err := Replay(bytes.NewReader(full[:valid]), resp.Limits{}, func([][]byte) error {
			n2++
			return nil
		})
		if err != nil || torn2 || v2 != valid || n2 != n {
			t.Fatalf("cut %d: recovered prefix not clean (n=%d n2=%d valid=%d v2=%d torn2=%v err=%v)",
				cut, n, n2, valid, v2, torn2, err)
		}
	}

	// File-level: torn file gets truncated in place.
	dir := t.TempDir()
	path := filepath.Join(dir, IncrName(7))
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, trunc, err := ReplayFile(path, resp.Limits{}, func([][]byte) error { return nil })
	if err != nil || !trunc || rec != 2 {
		t.Fatalf("torn file: rec=%d trunc=%v err=%v", rec, trunc, err)
	}
	rec2, trunc2, err := ReplayFile(path, resp.Limits{}, func([][]byte) error { return nil })
	if err != nil || trunc2 || rec2 != 2 {
		t.Fatalf("after truncation: rec=%d trunc=%v err=%v", rec2, trunc2, err)
	}
}

// TestAOFCorruptionRefused: garbage before the tail is corruption, not
// a tear.
func TestAOFCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := resp.NewWriter(newBufWriter(&buf))
	w.WriteCommand([]byte("SET"), []byte("a"), []byte("1"))
	w.WriteCommand([]byte("SET"), []byte("b"), []byte("2"))
	w.Flush()
	b := buf.Bytes()
	b[0] = '!' // first record's array marker destroyed
	_, torn, err := Replay(bytes.NewReader(b), resp.Limits{}, func([][]byte) error { return nil })
	if err == nil || torn {
		t.Fatalf("corrupt head must error, got torn=%v err=%v", torn, err)
	}
	if !resp.IsProtocolError(err) {
		t.Errorf("want ProtocolError, got %v", err)
	}
}

func TestManifestRoundTripAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadManifest(dir); ok || err != nil {
		t.Fatalf("fresh dir: ok=%v err=%v", ok, err)
	}
	m := Manifest{Base: BaseName(3), Incrs: []string{IncrName(3), IncrName(4)}}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadManifest(dir)
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got.Base != m.Base || len(got.Incrs) != 2 || got.Incrs[0] != m.Incrs[0] || got.Incrs[1] != m.Incrs[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Overwrite: readers must never see a partial recipe, and no temp
	// litter may remain.
	if err := WriteManifest(dir, Manifest{Incrs: []string{IncrName(9)}}); err != nil {
		t.Fatal(err)
	}
	got, _, _ = ReadManifest(dir)
	if got.Base != "" || len(got.Incrs) != 1 {
		t.Fatalf("second commit not honored: %+v", got)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Errorf("manifest dir holds %d files, want 1", len(ents))
	}
	// Path traversal refused.
	if err := WriteManifest(dir, Manifest{Base: "../evil.rdb"}); err == nil {
		t.Error("path-escaping base accepted")
	}
}

func TestSeqOf(t *testing.T) {
	if n, ok := SeqOf(BaseName(42)); !ok || n != 42 {
		t.Errorf("BaseName(42): %d %v", n, ok)
	}
	if n, ok := SeqOf(IncrName(7)); !ok || n != 7 {
		t.Errorf("IncrName(7): %d %v", n, ok)
	}
	for _, bad := range []string{"", "MANIFEST", "base-.rdb", "foo.aof"} {
		if _, ok := SeqOf(bad); ok {
			t.Errorf("SeqOf(%q) accepted", bad)
		}
	}
}

// FuzzAOFReplay holds Replay to its contract on arbitrary bytes: no
// panic ever; no error and no tear implies the input is exactly the
// valid records (replaying the reported valid prefix must reproduce the
// same record count and a clean result).
func FuzzAOFReplay(f *testing.F) {
	var seed bytes.Buffer
	w := resp.NewWriter(newBufWriter(&seed))
	w.WriteCommand([]byte("SET"), []byte("key"), []byte("value"))
	w.WriteCommand([]byte("DEL"), []byte("key"))
	// A rename is logged as its effect: old, new, the moved value and
	// its deadline.
	w.WriteCommand([]byte("RENAME"), []byte("key"), []byte("new"), []byte("value"), []byte("1700000000000"))
	// A SETEX is one record: the value and its absolute deadline.
	w.WriteCommand([]byte("SET"), []byte("key"), []byte("value"), []byte("PXAT"), []byte("1700000000000"))
	w.Flush()
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-4])
	f.Add([]byte("*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte{})
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		valid, torn, err := Replay(bytes.NewReader(data), resp.Limits{}, func(args [][]byte) error {
			n++
			return nil
		})
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d out of range [0, %d]", valid, len(data))
		}
		if err != nil {
			return // corruption detected: acceptable for arbitrary bytes
		}
		if !torn && valid != int64(len(data)) {
			t.Fatalf("clean result but %d of %d bytes consumed", valid, len(data))
		}
		// The reported valid prefix must be exactly replayable.
		n2 := 0
		v2, torn2, err2 := Replay(bytes.NewReader(data[:valid]), resp.Limits{}, func([][]byte) error {
			n2++
			return nil
		})
		if err2 != nil || torn2 || v2 != valid || n2 != n {
			t.Fatalf("valid prefix not stable: n=%d n2=%d valid=%d v2=%d torn2=%v err2=%v",
				n, n2, valid, v2, torn2, err2)
		}
	})
}

func newBufWriter(w *bytes.Buffer) *bufio.Writer { return bufio.NewWriter(w) }

// TestReplayDistinguishesApplyErrors: an error from the replay callback
// is an apply failure wrapped in *ApplyError, never reported in the
// corruption wording — misdiagnosing a rejected record as file damage
// would send recovery (and the operator) down the wrong path.
func TestReplayDistinguishesApplyErrors(t *testing.T) {
	var buf bytes.Buffer
	w := resp.NewWriter(newBufWriter(&buf))
	w.WriteCommand([]byte("SET"), []byte("a"), []byte("1"))
	w.WriteCommand([]byte("SET"), []byte("b"), []byte("2"))
	w.Flush()

	boom := errors.New("boom: record rejected")
	_, torn, err := Replay(bytes.NewReader(buf.Bytes()), resp.Limits{}, func(args [][]byte) error {
		if string(args[1]) == "b" {
			return boom
		}
		return nil
	})
	if torn {
		t.Fatal("apply failure misreported as torn tail")
	}
	var ae *ApplyError
	if !errors.As(err, &ae) || !errors.Is(err, boom) {
		t.Fatalf("fn error not wrapped as ApplyError: %v", err)
	}

	// File-level wording: apply failures say so; structural damage keeps
	// the corruption message.
	dir := t.TempDir()
	path := filepath.Join(dir, IncrName(3))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReplayFile(path, resp.Limits{}, func([][]byte) error { return boom })
	if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "failed to apply") {
		t.Fatalf("apply failure wording: %v", err)
	}
	if strings.Contains(err.Error(), "invalid at offset") {
		t.Fatalf("apply failure misworded as corruption: %v", err)
	}

	damaged := append([]byte{'!'}, buf.Bytes()...)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReplayFile(path, resp.Limits{}, func([][]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "invalid at offset") {
		t.Fatalf("corruption wording: %v", err)
	}
	if errors.As(err, &ae) {
		t.Fatalf("corruption misreported as apply failure: %v", err)
	}
}
