package persist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"nbtrie/internal/resp"
)

// tmpInfix joins a file's name to the random suffix of its temp file
// (writeAtomic), so a sweep can tell whose temp file it is.
const tmpInfix = ".tmp-"

// Dir owns one data directory: its manifest, the highest sequence
// number in use and the names of its files. The caller serializes every
// method except SaveBase, which reads nothing Rotate or CommitBase
// change, so a dump can stream while the caller's lock is free.
//
// A directory may hold other files. Dir touches only MANIFEST, names
// SeqOf accepts (base dumps and AOF segments) and the temp files of
// those names.
type Dir struct {
	path   string
	policy SyncPolicy
	m      Manifest
	seq    uint64 // highest sequence number in use
}

// OpenDir creates path if missing and recovers its recipe: it loads the
// manifest's base dump through load, replays its segments through apply
// in order (truncating a torn tail, whose record was never
// acknowledged), then sweeps the files of the directory's scheme that
// the manifest does not name. load and apply see their arguments only
// for the call (ReadDump, Replay) and copy whatever they keep. lim
// bounds replayed records and, through MaxBulkLen, every key and value
// of the dump, so a value the server accepted always loads back. policy
// says how the segments Rotate opens sync.
func OpenDir(path string, policy SyncPolicy, lim resp.Limits,
	load func(k, v []byte, expireAtMS uint64) error, apply func(args [][]byte) error) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	m, _, err := ReadManifest(path)
	if err != nil {
		return nil, err
	}
	d := &Dir{path: path, policy: policy, m: m}
	lim = lim.WithDefaults()
	for _, name := range append([]string{m.Base}, m.Incrs...) {
		if n, ok := SeqOf(name); ok && n > d.seq {
			d.seq = n
		}
	}
	if m.Base != "" {
		if err := LoadDump(path, m.Base, lim.MaxBulkLen, load); err != nil {
			return nil, fmt.Errorf("persist: loading base dump %s: %w", m.Base, err)
		}
	}
	for _, name := range m.Incrs {
		_, truncated, err := ReplayFile(filepath.Join(path, name), lim, apply)
		if err != nil {
			return nil, fmt.Errorf("persist: replaying %s: %w", name, err)
		}
		if truncated {
			fmt.Fprintf(os.Stderr, "nbtried: truncated torn tail of %s (crash artifact; the partial record was never acknowledged)\n", name)
		}
	}
	d.sweep()
	return d, nil
}

// Rotate starts a cut at the next sequence number: it opens that
// number's segment and returns both. With chain set (the AOF is on: the
// chain holds every write since its base) it commits the conservative
// manifest, old base + whole chain + new segment, so a crash before
// CommitBase still recovers every record. Without it no manifest names
// the segment before CommitBase, since the writes before the cut were
// never logged. An unnamed segment is swept; a failed commit removes it.
func (d *Dir) Rotate(chain bool) (seq uint64, seg *AOF, err error) {
	seq = d.seq + 1
	name := IncrName(seq)
	if seg, err = OpenAOF(filepath.Join(d.path, name), d.policy); err != nil {
		return 0, nil, err
	}
	if chain {
		next := Manifest{Base: d.m.Base, Incrs: append(slices.Clone(d.m.Incrs), name)}
		if err := WriteManifest(d.path, next); err != nil {
			seg.Close()
			os.Remove(filepath.Join(d.path, name))
			return 0, nil, err
		}
		d.m = next
	}
	d.seq = seq
	return seq, seg, nil
}

// SaveBase writes the base dump for the cut seq from iter (see
// WriteDump) crash-safely. It does not commit it: CommitBase does. The
// dump is written through a buffer of dumpBuffer bytes made for it and
// dropped after it, so no buffer outlives a dump.
func (d *Dir) SaveBase(seq uint64, iter func(fn func(k, v []byte, expireAtMS uint64) bool)) error {
	return writeAtomic(d.path, BaseName(seq), func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, dumpBuffer)
		if err := WriteDump(bw, iter); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// dumpBuffer is the write buffer of one dump: big enough that a dump's
// writes are few, 16 pages, and small enough that a periodic save
// allocates little for it.
const dumpBuffer = 64 << 10

// CommitBase swings the manifest to the base dump SaveBase wrote for
// seq plus seq's segment, which holds exactly the records after the
// cut, then sweeps the files the new recipe dropped.
func (d *Dir) CommitBase(seq uint64) error {
	next := Manifest{Base: BaseName(seq), Incrs: []string{IncrName(seq)}}
	if err := WriteManifest(d.path, next); err != nil {
		return err
	}
	d.m = next
	d.sweep()
	return nil
}

// Segments returns the length of the manifest's segment chain.
func (d *Dir) Segments() int { return len(d.m.Incrs) }

// sweep removes what a crash or a finished rotation left behind: base
// dumps and segments the manifest does not name, and every temp file of
// MANIFEST, a base dump or a segment. Every other file is the
// operator's and stays. Errors are ignored: a file that survives is swept next time.
func (d *Dir) sweep() {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return
	}
	for _, e := range ents {
		name, _, tmp := strings.Cut(e.Name(), tmpInfix)
		_, ours := SeqOf(name)
		named := name == d.m.Base || slices.Contains(d.m.Incrs, name)
		if tmp && (ours || name == ManifestName) || ours && !named {
			os.Remove(filepath.Join(d.path, e.Name()))
		}
	}
}
