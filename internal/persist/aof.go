package persist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"nbtrie/internal/resp"
)

// SyncPolicy says when appended records are forced to stable storage,
// mirroring Redis's appendfsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every acknowledgement batch: an
	// acknowledged write survives any crash. Slowest.
	SyncAlways SyncPolicy = iota
	// SyncEverySec fsyncs on a one-second ticker: a crash loses at most
	// about a second of acknowledged writes. The Redis default.
	SyncEverySec
	// SyncNo never fsyncs explicitly; the OS writes back on its own
	// schedule. Fastest, weakest.
	SyncNo
)

// ParseSyncPolicy parses the appendfsync spellings.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "everysec":
		return SyncEverySec, nil
	case "no":
		return SyncNo, nil
	}
	return 0, fmt.Errorf("persist: unknown sync policy %q (want always, everysec or no)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncEverySec:
		return "everysec"
	default:
		return "no"
	}
}

// AOF is one append-only segment: RESP command records, one per
// acknowledged mutation, appended in acknowledgement order. Appends are
// buffered; Commit moves the buffer into the file (and through fsync
// under SyncAlways) and is what the server calls after handling a
// pipelined batch, before the batch's replies reach the client — so a
// record is on its way to disk strictly before the write it describes
// is acknowledged. Safe for concurrent use.
type AOF struct {
	mu     sync.Mutex
	f      *os.File
	w      *resp.Writer
	bw     *bufio.Writer
	policy SyncPolicy
	dirty  bool // bytes written to the file since the last fsync
	sealed bool // Close ran: err is the seal's result
	err    error

	stopTick chan struct{}
	tickDone chan struct{}
}

// OpenAOF opens (creating if needed) the segment at path for appending.
// Under SyncEverySec a background ticker fsyncs once a second until
// Close.
func OpenAOF(path string, policy SyncPolicy) (*AOF, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	a := &AOF{f: f, bw: bw, w: resp.NewWriter(bw), policy: policy}
	if policy == SyncEverySec {
		a.stopTick = make(chan struct{})
		a.tickDone = make(chan struct{})
		go a.syncLoop()
	}
	return a, nil
}

func (a *AOF) syncLoop() {
	defer close(a.tickDone)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			a.Sync()
		case <-a.stopTick:
			return
		}
	}
}

// errSealed is what Append returns on a segment Close sealed cleanly.
var errSealed = errors.New("persist: aof closed")

// Append buffers one command record. The record is not durable (nor
// necessarily in the file) until Commit.
func (a *AOF) Append(args ...[]byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	if a.sealed {
		return errSealed
	}
	if err := a.w.WriteCommand(args...); err != nil {
		a.err = err
	}
	return a.err
}

// Commit flushes buffered records into the file; under SyncAlways it
// also fsyncs, so on return every appended record is durable. Called on
// the batch boundary, before replies are flushed to clients.
func (a *AOF) Commit() error { return a.flush(a.policy == SyncAlways) }

// Sync flushes and fsyncs regardless of policy (the everysec ticker,
// rotation, shutdown).
func (a *AOF) Sync() error { return a.flush(true) }

// flush moves buffered records into the file and, with fsync, every
// byte written since the last fsync to stable storage. The first error
// sticks: later appends and flushes return it, as they return a seal's
// result.
func (a *AOF) flush(fsync bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil || a.sealed {
		return a.err
	}
	if a.bw.Buffered() > 0 {
		if err := a.bw.Flush(); err != nil {
			a.err = err
			return err
		}
		a.dirty = true
	}
	if fsync && a.dirty {
		if err := a.f.Sync(); err != nil {
			a.err = err
			return err
		}
		a.dirty = false
	}
	return nil
}

// Size returns the segment's current on-disk-plus-buffered length
// (diagnostics: INFO reporting).
func (a *AOF) Size() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, err := a.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size() + int64(a.bw.Buffered())
}

// Close seals the segment: it syncs and closes the file. From then on
// Commit and Sync return the seal's result, nil when it synced every
// record appended before it, and Append refuses. Safe to call once.
func (a *AOF) Close() error {
	if a.stopTick != nil {
		close(a.stopTick)
		<-a.tickDone
	}
	err := a.Sync()
	a.mu.Lock()
	defer a.mu.Unlock()
	if closeErr := a.f.Close(); err == nil {
		err = closeErr
	}
	a.err, a.sealed = err, true
	return err
}

// ApplyError wraps an error returned by the replay callback — the
// record was structurally sound; APPLYING it failed. Callers use it
// (via errors.As) to keep "the AOF is damaged" and "a well-formed
// record could not be applied" as distinct diagnoses; reporting an
// apply failure as file corruption would send an operator chasing the
// wrong problem.
type ApplyError struct{ Err error }

func (e *ApplyError) Error() string { return "applying record: " + e.Err.Error() }
func (e *ApplyError) Unwrap() error { return e.Err }

// Replay parses RESP command records from r, calling fn for each in
// order. The records are parsed into one reused arena
// (resp.RequestReader.ReadCommandReuse), so fn's args are valid only
// during the call: fn copies whatever it keeps. It returns the byte
// offset just past the last complete record
// (valid), torn = true when the stream ends mid-record — the expected
// shape of a crash-truncated tail, whose partial record was never
// acknowledged and is safely discarded by truncating the file to valid
// — and a non-nil error only for real corruption (a structurally
// invalid byte sequence before the tail) or for a failure from fn,
// which is wrapped in *ApplyError so the two causes stay
// distinguishable. Replay never panics on arbitrary input;
// FuzzAOFReplay holds it to that.
func Replay(r io.Reader, lim resp.Limits, fn func(args [][]byte) error) (valid int64, torn bool, err error) {
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	rr := resp.NewRequestReader(br, lim)
	for {
		args, err := rr.ReadCommandReuse()
		switch {
		case err == nil:
			valid = cr.n - int64(br.Buffered())
			if err := fn(args); err != nil {
				return valid, false, &ApplyError{Err: err}
			}
		case err == io.EOF:
			return valid, false, nil // clean end between records
		case err == io.ErrUnexpectedEOF:
			return valid, true, nil // torn tail: crash mid-record
		default:
			return valid, false, err // corruption (ProtocolError) or I/O
		}
	}
}

// ReplayFile is Replay over the file at path, truncating a torn tail in
// place (the crash-recovery path); fn's args are valid only during the
// call, as for Replay. Returns the number of records
// replayed and whether a tail was truncated. A missing file is zero
// records, not an error.
func ReplayFile(path string, lim resp.Limits, fn func(args [][]byte) error) (records int64, truncated bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	valid, torn, err := Replay(f, lim, func(args [][]byte) error {
		records++
		return fn(args)
	})
	f.Close()
	if err != nil {
		// An apply failure is the caller's record rejecting, not file
		// damage; only structural errors get the corruption wording.
		var ae *ApplyError
		if errors.As(err, &ae) {
			return records, false, fmt.Errorf("persist: aof %s: record ending at offset %d failed to apply: %w", path, valid, ae.Err)
		}
		return records, false, fmt.Errorf("persist: aof %s invalid at offset %d: %w", path, valid, err)
	}
	if torn {
		if err := os.Truncate(path, valid); err != nil {
			return records, false, err
		}
		truncated = true
	}
	return records, truncated, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
