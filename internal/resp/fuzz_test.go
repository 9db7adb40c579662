package resp

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzRESP throws arbitrary bytes at both parser entry points (the
// server's request reader and the client's reply reader) and checks the
// crash-safety invariants the server's connection loop relies on:
//
//   - no panic and bounded allocation on any input (the Limits must be
//     enforced before any length-prefix-sized allocation happens);
//   - whatever ReadCommandReuse accepts must round-trip: re-encoding the
//     parsed command with WriteCommand and re-parsing yields the same
//     arguments — so the parser cannot "repair" malformed input into a
//     command the client never sent.
//
// The small limits make the fuzzer explore the limit-rejection paths
// with tiny inputs instead of needing megabyte-long bulks.
func FuzzRESP(f *testing.F) {
	f.Add([]byte("*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$3\r\nfoo\r\n$3\r\nbar\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$0\r\n\r\n"))
	f.Add([]byte("GET foo\r\n")) // inline: must be rejected
	f.Add([]byte("*0\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("*2\r\n$100\r\nshort\r\n"))
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte("-ERR x\r\n"))
	f.Add([]byte(":12345\r\n"))
	f.Add([]byte("$-1\r\n"))
	f.Add([]byte("*2\r\n*1\r\n:1\r\n$1\r\nz\r\n"))

	lim := Limits{MaxArrayLen: 16, MaxBulkLen: 512}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Server side: parse a stream of commands to exhaustion. Each
		// command is checked before the next call overwrites the arena.
		rr := NewRequestReader(bufio.NewReader(bytes.NewReader(data)), lim)
		for i := 0; i < 64; i++ {
			args, err := rr.ReadCommandReuse()
			if err != nil {
				break
			}
			if len(args) == 0 {
				t.Fatal("ReadCommandReuse returned an empty command without error")
			}
			for _, a := range args {
				if len(a) > lim.MaxBulkLen {
					t.Fatalf("accepted bulk of %d bytes past the %d limit", len(a), lim.MaxBulkLen)
				}
			}
			// Round-trip: re-encode and re-parse.
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			w := NewWriter(bw)
			w.WriteCommand(args...)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			again, err := NewRequestReader(bufio.NewReader(&buf), lim).ReadCommandReuse()
			if err != nil {
				t.Fatalf("re-parsing re-encoded command failed: %v (args %q)", err, args)
			}
			if len(again) != len(args) {
				t.Fatalf("round trip changed arg count: %q vs %q", again, args)
			}
			for i := range args {
				if !bytes.Equal(again[i], args[i]) {
					t.Fatalf("round trip changed arg %d: %q vs %q", i, again[i], args[i])
				}
			}
		}

		// Client side: parse a stream of replies to exhaustion.
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			if _, err := ReadReply(r, lim); err != nil {
				break
			}
		}
	})
}
