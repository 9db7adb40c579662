// Package persist is nbtried's durability layer: RDB-style point-in-time
// dumps, an append-only file (AOF) of acknowledged mutations in the RESP
// wire encoding, and the manifest that binds one base dump to the chain
// of AOF segments extending it. The package speaks []byte keys and
// values and RESP command records only — it knows nothing about tries,
// shards or key encodings; the server layer feeds it live walks of its
// keyspace and replays records back through its own dispatch.
//
// Dir is the one owner of a data directory: it names every file, holds
// the manifest and the sequence numbers, and is the only code that
// creates, truncates or deletes a file there. The server keeps the
// locks that decide when Dir's operations run.
//
// Crash-safety model (the same contract as Redis, sharpened where its
// docs are vague):
//
//   - A dump is valid only if completely written: readers verify the
//     magic, every record frame, the trailing entry count and a CRC-64
//     over every preceding byte. Dumps are written to a temp file and
//     atomically renamed, so a crash mid-dump leaves the previous state
//     untouched. A reader caps each key and value at the server's RESP
//     bulk limit, the largest value the server can have accepted.
//   - The AOF is append-only; a crash can only tear its tail. Replay
//     accepts a torn tail (the writes it held were never acknowledged
//     under appendfsync always) and reports the byte offset of the last
//     complete record so the caller can truncate; any malformation
//     before the tail is corruption and replay refuses it.
//   - The manifest is replaced atomically (temp file, fsync, rename,
//     directory fsync), so recovery always sees either the old or the
//     new file set, never a half-switched one.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"slices"
)

// dumpMagic opens every dump file: format name + version in 8 bytes.
// Version 2 adds a third uvarint per record — the absolute expiry
// deadline in Unix milliseconds, 0 meaning "no TTL" — so deadlines
// survive dump/restore. Version 1 files (no TTL field) are still read;
// their records load with no deadline.
const (
	dumpMagic   = "NBRDB002"
	dumpMagicV1 = "NBRDB001"
)

// Record markers.
const (
	recEntry = 'R' // one key/value pair
	recEnd   = 'E' // trailer: entry count + CRC
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// CorruptError reports a structurally invalid dump file.
type CorruptError struct{ msg string }

func (e *CorruptError) Error() string { return "persist: corrupt dump: " + e.msg }

func corruptf(format string, args ...any) error {
	return &CorruptError{msg: fmt.Sprintf(format, args...)}
}

// crcWriter tracks the running CRC-64 and the first sticky error of the
// underlying writer, so WriteDump can stream without checking every
// write.
type crcWriter struct {
	w   io.Writer
	crc uint64
	err error
}

func (cw *crcWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	cw.crc = crc64.Update(cw.crc, crcTable, p)
	_, cw.err = cw.w.Write(p)
}

// entryMarker opens every record; a shared slice, so writing it through
// the io.Writer interface allocates nothing per record.
var entryMarker = []byte{recEntry}

// WriteDump streams a dump: the magic, one framed record per entry
// yielded by iter, and the trailer (entry count + CRC-64/ECMA of every
// preceding byte). Each record carries the entry's absolute expiry
// deadline in Unix milliseconds (0 = no TTL). iter must call its
// argument once per entry and stop when it returns false (it only
// returns false on a write error, to cut a doomed iteration short). k
// and v are written out before the call returns, so iter may reuse
// their buffers. The caller owns w — buffering, fsync and atomic rename
// happen at the file layer (Dir.SaveBase).
func WriteDump(w io.Writer, iter func(fn func(k, v []byte, expireAtMS uint64) bool)) error {
	cw := &crcWriter{w: w}
	var scratch [binary.MaxVarintLen64]byte
	cw.write([]byte(dumpMagic))
	count := uint64(0)
	iter(func(k, v []byte, expireAtMS uint64) bool {
		cw.write(entryMarker)
		cw.write(scratch[:binary.PutUvarint(scratch[:], uint64(len(k)))])
		cw.write(k)
		cw.write(scratch[:binary.PutUvarint(scratch[:], uint64(len(v)))])
		cw.write(v)
		cw.write(scratch[:binary.PutUvarint(scratch[:], expireAtMS)])
		count++
		return cw.err == nil
	})
	cw.write([]byte{recEnd})
	cw.write(scratch[:binary.PutUvarint(scratch[:], count)])
	if cw.err != nil {
		return cw.err
	}
	// The CRC covers everything before itself; write it raw (not
	// through cw, which would fold it into itself).
	binary.LittleEndian.PutUint64(scratch[:8], cw.crc)
	_, err := w.Write(scratch[:8])
	return err
}

// crcReader mirrors crcWriter: every byte logically consumed from the
// stream is folded into the digest, so the trailer check covers exactly
// the bytes a writer digested. It reads through a bufio.Reader but
// updates the CRC per consumed piece, never per buffered chunk.
type crcReader struct {
	r      *bufio.Reader
	crc    uint64
	maxLen int
}

func (cr *crcReader) readByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.crc = crc64.Update(cr.crc, crcTable, []byte{b})
	}
	return b, err
}

func (cr *crcReader) readFull(p []byte) error {
	if _, err := io.ReadFull(cr.r, p); err != nil {
		return err
	}
	cr.crc = crc64.Update(cr.crc, crcTable, p)
	return nil
}

func (cr *crcReader) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := cr.readByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, corruptf("uvarint overflows 64 bits")
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, corruptf("uvarint overflows 64 bits")
}

// ReadDump parses a dump written by WriteDump, calling fn for every
// record with its absolute expiry deadline (Unix milliseconds, 0 = no
// TTL; always 0 for version-1 dumps, which predate TTLs). The key and
// value are read into one scratch buffer that the next record reuses, so
// they are valid only during fn's call: fn copies whatever it keeps.
// maxLen caps each key and value, so a corrupt length prefix cannot
// allocate unbounded memory; the server passes its RESP bulk limit, the
// largest value it can have accepted. Any structural violation — bad magic,
// unknown marker, a length beyond maxLen, short file, count or CRC mismatch, trailing garbage —
// returns a *CorruptError (a dump is all-or-nothing; there is no
// torn-tail tolerance here, that is the AOF's department). An error from
// fn aborts the read and is returned as-is.
func ReadDump(r io.Reader, maxLen int, fn func(k, v []byte, expireAtMS uint64) error) error {
	cr := &crcReader{r: bufio.NewReader(r), maxLen: maxLen}
	magic := make([]byte, len(dumpMagic))
	if err := cr.readFull(magic); err != nil {
		return corruptf("short magic: %v", err)
	}
	hasTTL := string(magic) == dumpMagic
	if !hasTTL && string(magic) != dumpMagicV1 {
		return corruptf("bad magic %q", magic)
	}
	var count uint64
	var scratch []byte // the current record's key, then its value
	for {
		marker, err := cr.readByte()
		if err != nil {
			return corruptf("missing trailer: %v", err)
		}
		if marker == recEnd {
			break
		}
		if marker != recEntry {
			return corruptf("unknown record marker %q at entry %d", marker, count)
		}
		if scratch, err = cr.appendLenPrefixed(scratch[:0]); err != nil {
			return err
		}
		nk := len(scratch)
		if scratch, err = cr.appendLenPrefixed(scratch); err != nil {
			return err
		}
		k, v := scratch[:nk:nk], scratch[nk:]
		var expireAt uint64
		if hasTTL {
			expireAt, err = cr.readUvarint()
			if err != nil {
				return corruptf("short expiry deadline: %v", err)
			}
		}
		count++
		if err := fn(k, v, expireAt); err != nil {
			return err
		}
	}
	declared, err := cr.readUvarint()
	if err != nil {
		return corruptf("short trailer count: %v", err)
	}
	if declared != count {
		return corruptf("trailer declares %d entries, file holds %d", declared, count)
	}
	sum := cr.crc // digest of everything before the CRC field
	var crcBuf [8]byte
	if _, err := io.ReadFull(cr.r, crcBuf[:]); err != nil {
		return corruptf("short trailer CRC: %v", err)
	}
	if got := binary.LittleEndian.Uint64(crcBuf[:]); got != sum {
		return corruptf("CRC mismatch: file says %016x, content is %016x", got, sum)
	}
	if _, err := cr.r.ReadByte(); err != io.EOF {
		return corruptf("trailing garbage after trailer")
	}
	return nil
}

// appendLenPrefixed reads one length-prefixed field and appends it to
// buf, which it grows only past its capacity.
func (cr *crcReader) appendLenPrefixed(buf []byte) ([]byte, error) {
	n, err := cr.readUvarint()
	if err != nil {
		return buf, corruptf("short length prefix: %v", err)
	}
	if n > uint64(cr.maxLen) {
		return buf, corruptf("length %d exceeds limit %d", n, cr.maxLen)
	}
	off := len(buf)
	buf = slices.Grow(buf, int(n))[:off+int(n)]
	if err := cr.readFull(buf[off:]); err != nil {
		return buf, corruptf("short payload: %v", err)
	}
	return buf, nil
}
