package persist

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The manifest binds the data directory's files into one recovery
// recipe: load Base (if any), then replay every Incr segment in order.
// It is a short text file replaced atomically, so recovery always sees
// a complete recipe.
//
// The rotation protocol (Dir.Rotate, then Dir.CommitBase) keeps the
// recipe conservative: before a new base dump starts, the manifest is
// committed listing the NEW incr segment appended to the existing
// chain — so a crash while the dump is still being written recovers
// from the old base plus the whole chain, including writes acknowledged
// after rotation. Only after the dump file is complete and fsynced does
// a second commit swing Base to it and drop the pre-rotation segments.
// With the AOF off the new segment holds only the dump's writes, and
// only the second commit names it.
const manifestMagic = "NBMANIFEST1"

// ManifestName is the manifest's file name inside the data directory.
const ManifestName = "MANIFEST"

// Manifest lists the current recovery recipe.
type Manifest struct {
	Base  string   // base dump file name, "" before the first completed dump
	Incrs []string // AOF segment names, replayed in order after Base
}

// BaseName returns the canonical base-dump file name for seq.
func BaseName(seq uint64) string { return fmt.Sprintf("base-%08d.rdb", seq) }

// IncrName returns the canonical AOF segment file name for seq.
func IncrName(seq uint64) string { return fmt.Sprintf("incr-%08d.aof", seq) }

// SeqOf extracts the sequence number from a BaseName/IncrName-shaped
// name; ok is false for anything else.
func SeqOf(name string) (uint64, bool) {
	base := strings.TrimSuffix(strings.TrimPrefix(name, "base-"), ".rdb")
	incr := strings.TrimSuffix(strings.TrimPrefix(name, "incr-"), ".aof")
	for _, s := range []string{base, incr} {
		if s == name || len(s) == 0 {
			continue
		}
		if n, err := strconv.ParseUint(s, 10, 64); err == nil {
			return n, true
		}
	}
	return 0, false
}

// validName rejects names that could escape the data directory.
func validName(name string) bool {
	return name != "" && name == filepath.Base(name) && !strings.ContainsAny(name, "\n\r")
}

// WriteManifest atomically replaces dir's manifest. After it returns
// the new recipe is durable.
func WriteManifest(dir string, m Manifest) error {
	for _, n := range append([]string{}, m.Incrs...) {
		if !validName(n) {
			return fmt.Errorf("persist: bad manifest entry %q", n)
		}
	}
	if m.Base != "" && !validName(m.Base) {
		return fmt.Errorf("persist: bad manifest base %q", m.Base)
	}
	var sb strings.Builder
	sb.WriteString(manifestMagic + "\n")
	if m.Base != "" {
		sb.WriteString("base " + m.Base + "\n")
	}
	for _, n := range m.Incrs {
		sb.WriteString("incr " + n + "\n")
	}
	return writeAtomic(dir, ManifestName, func(w io.Writer) error {
		_, err := io.WriteString(w, sb.String())
		return err
	})
}

// ReadManifest loads dir's manifest. ok is false when none exists (a
// fresh data directory); a malformed manifest is an error, not an empty
// result — silently ignoring one would discard committed data.
func ReadManifest(dir string) (m Manifest, ok bool, err error) {
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != manifestMagic {
		return Manifest{}, false, fmt.Errorf("persist: manifest missing magic")
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		kind, name, found := strings.Cut(line, " ")
		if !found || !validName(name) {
			return Manifest{}, false, fmt.Errorf("persist: malformed manifest line %q", line)
		}
		switch kind {
		case "base":
			if m.Base != "" {
				return Manifest{}, false, fmt.Errorf("persist: manifest has two base lines")
			}
			m.Base = name
		case "incr":
			m.Incrs = append(m.Incrs, name)
		default:
			return Manifest{}, false, fmt.Errorf("persist: malformed manifest line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return Manifest{}, false, err
	}
	return m, true, nil
}

// LoadDump reads the dump at dir/name through fn; maxLen caps each key
// and value (see ReadDump).
func LoadDump(dir, name string, maxLen int, fn func(k, v []byte, expireAtMS uint64) error) error {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return ReadDump(f, maxLen, fn)
}

// writeAtomic replaces dir/name crash-safely: write into a temp file
// beside it, fsync, rename over name, fsync the directory. A crash
// leaves the old file or the new one, plus at most a temp file that
// the next sweep removes.
func writeAtomic(dir, name string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, name+tmpInfix+"*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// platforms refuse to fsync directories; those errors are ignored (the
// rename itself is still atomic there).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync() // best-effort by design
	return nil
}
