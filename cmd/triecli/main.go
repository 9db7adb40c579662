// Command triecli is an interactive inspector for the concurrent-set
// implementations in this repository. It reads commands from stdin and
// prints results and — on demand — the structure's internals, which
// makes the paper's figures (labels as prefixes, two dummy leaves,
// replace rewiring) easy to see.
//
// The implementation is chosen with -impl from the registry (see the
// impls command); the default is the paper's Patricia trie. Commands
// needing a capability the chosen implementation lacks (replace, dump,
// ordered keys) say so instead of failing.
//
// Commands:
//
//	insert K        add key K
//	delete K        remove key K
//	find K          membership test
//	replace K1 K2   atomically move K1 to K2 (replace-capable impls)
//	keys            list keys (in order where supported)
//	size            count keys
//	dump            print the internal structure (where supported)
//	impls           list the registered implementations
//	quit
//
// With -connect addr, triecli instead becomes an interactive RESP
// client for a running nbtried server, sharing the wire codec
// (internal/resp) with the server and the benchmark. Each input line
// is sent verbatim as one command — `set foo bar`, `get foo`,
// `scan 0 count 5`, `info` — and the reply is printed in a
// redis-cli-like rendering; quit (or EOF) exits.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"

	"nbtrie"
	"nbtrie/internal/resp"
)

func main() {
	fs := flag.NewFlagSet("triecli", flag.ContinueOnError)
	impl := fs.String("impl", "patricia", "implementation to drive (see the impls command)")
	width := fs.Uint("width", 16, "key width in bits: keys lie in [0, 2^width)")
	connect := fs.String("connect", "", "connect to a running nbtried at host:port instead of driving an in-process set")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	if *connect != "" {
		err = runConnect(os.Stdin, os.Stdout, *connect)
	} else {
		err = run(os.Stdin, os.Stdout, *impl, uint32(*width))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "triecli:", err)
		os.Exit(1)
	}
}

// runConnect is the -connect REPL: one line in, one RESP command out,
// one reply printed. The QUIT command is forwarded (the server answers
// and closes); a local EOF just disconnects.
func runConnect(in io.Reader, out io.Writer, addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := resp.NewWriter(bufio.NewWriter(conn))
	fmt.Fprintf(out, "connected to nbtried at %s; type commands (get/set/del/scan/rename/ping/info/dbsize/quit)\n", addr)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		w.WriteCommandString(fields...)
		if err := w.Flush(); err != nil {
			return err
		}
		v, err := resp.ReadReply(r, resp.Limits{})
		if err != nil {
			return fmt.Errorf("reading reply: %w", err)
		}
		fmt.Fprintln(out, v)
		if strings.EqualFold(fields[0], "quit") {
			return nil
		}
	}
	return sc.Err()
}

func run(in io.Reader, out io.Writer, impl string, width uint32) error {
	// Validate here: width-ignoring baselines would otherwise accept any
	// width and uint64(1)<<width would overflow for width >= 64.
	if width < 1 || width > 63 {
		return fmt.Errorf("width %d out of range [1, 63]", width)
	}
	s, err := nbtrie.NewSetWithWidth(impl, width)
	if err != nil {
		return err
	}
	im, _ := nbtrie.LookupImplementation(impl)
	fmt.Fprintf(out, "%s (%s) over [0, %d); commands: insert/delete/find/replace/keys/size/dump/impls/quit\n",
		im.Name, im.Legend, uint64(1)<<width)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if done := exec(s, out, line, width); done {
			return nil
		}
	}
	return sc.Err()
}

// Optional capabilities probed from the chosen implementation.
type sizer interface{ Size() int }
type keyser interface{ Keys() []uint64 }
type dumper interface{ Dump() string }

// exec runs one command line against the set; it returns true on quit.
func exec(s nbtrie.Set, out io.Writer, line string, width uint32) bool {
	fields := strings.Fields(line)
	cmd := fields[0]

	parseKey := func(i int) (uint64, bool) {
		if i >= len(fields) {
			fmt.Fprintf(out, "error: %s needs %d key argument(s)\n", cmd, i)
			return 0, false
		}
		k, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil || k >= uint64(1)<<width {
			fmt.Fprintf(out, "error: bad key %q (range is [0, %d))\n", fields[i], uint64(1)<<width)
			return 0, false
		}
		return k, true
	}

	switch cmd {
	case "insert":
		if k, ok := parseKey(1); ok {
			fmt.Fprintln(out, s.Insert(k))
		}
	case "delete":
		if k, ok := parseKey(1); ok {
			fmt.Fprintln(out, s.Delete(k))
		}
	case "find":
		if k, ok := parseKey(1); ok {
			fmt.Fprintln(out, s.Contains(k))
		}
	case "replace":
		rs, canReplace := s.(nbtrie.ReplaceSet)
		if !canReplace {
			fmt.Fprintln(out, "error: this implementation has no atomic replace")
			return false
		}
		k1, ok := parseKey(1)
		if !ok {
			return false
		}
		k2, ok := parseKey(2)
		if !ok {
			return false
		}
		fmt.Fprintln(out, rs.Replace(k1, k2))
	case "keys":
		ks, ok := s.(keyser)
		if !ok {
			fmt.Fprintln(out, "error: this implementation does not enumerate keys")
			return false
		}
		fmt.Fprintln(out, ks.Keys())
	case "size":
		sz, ok := s.(sizer)
		if !ok {
			fmt.Fprintln(out, "error: this implementation does not report its size")
			return false
		}
		fmt.Fprintln(out, sz.Size())
	case "dump":
		d, ok := s.(dumper)
		if !ok {
			fmt.Fprintln(out, "error: this implementation has no structure dump")
			return false
		}
		fmt.Fprint(out, d.Dump())
	case "impls":
		for _, im := range nbtrie.AllImplementations() {
			replace := ""
			if im.Replace {
				replace = " [replace]"
			}
			fmt.Fprintf(out, "%-12s %-6s [fanout:%d]%s %s\n", im.Name, im.Legend, im.Fanout, replace, im.Description)
		}
	case "quit", "exit":
		return true
	default:
		fmt.Fprintf(out, "error: unknown command %q\n", cmd)
	}
	return false
}
