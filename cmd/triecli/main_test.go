package main

import (
	"net"
	"strings"
	"testing"

	"nbtrie/internal/server"
)

func TestCLISession(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"insert 5",
		"insert 5",
		"find 5",
		"replace 5 9",
		"find 5",
		"find 9",
		"keys",
		"size",
		"dump",
		"delete 9",
		"size",
		"quit",
	}, "\n"))
	var out strings.Builder
	if err := run(in, &out, "patricia", 8); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"true\nfalse\ntrue\ntrue\nfalse\ntrue\n[9]\n1\n", // command results in order
		"dummy", // dump shows the dummy leaves
		"leaf",  // and at least one leaf line
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(got), "0") {
		t.Errorf("final size should be 0:\n%s", got)
	}
}

func TestCLIErrors(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"insert",       // missing key
		"insert 999",   // out of range for width 8
		"insert abc",   // not a number
		"frobnicate 1", // unknown command
		"replace 1",    // missing second key
		"quit",
	}, "\n"))
	var out strings.Builder
	if err := run(in, &out, "patricia", 8); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "error:"); n != 5 {
		t.Errorf("expected 5 error lines, got %d:\n%s", n, out.String())
	}
}

func TestCLIEmptyAndEOF(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("\n\n  \n"), &out, "patricia", 8); err != nil {
		t.Fatal(err)
	}
}

func TestCLIBaselineImplementation(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"insert 5",
		"find 5",
		"replace 5 9", // BST has no atomic replace
		"dump",        // and no structure dump
		"quit",
	}, "\n"))
	var out strings.Builder
	if err := run(in, &out, "bst", 8); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "true\ntrue\n") {
		t.Errorf("insert/find through a baseline broken:\n%s", got)
	}
	if n := strings.Count(got, "error:"); n != 2 {
		t.Errorf("replace+dump on BST should produce 2 capability errors, got %d:\n%s", n, got)
	}
}

func TestCLIImplsCommand(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("impls\nquit\n"), &out, "PAT", 8); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"patricia", "bst", "kst", "avl", "skiplist", "ctrie", "karypatricia", "[replace]"} {
		if !strings.Contains(got, want) {
			t.Errorf("impls output missing %q:\n%s", want, got)
		}
	}
}

func TestCLIUnknownImplementation(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader("quit\n"), &out, "nope", 8); err == nil {
		t.Fatal("unknown implementation must error")
	}
}

func TestCLIWidthValidation(t *testing.T) {
	for _, w := range []uint32{0, 64, 100} {
		var out strings.Builder
		if err := run(strings.NewReader("quit\n"), &out, "bst", w); err == nil {
			t.Errorf("width %d must be rejected", w)
		}
	}
}

// TestCLIConnectMode drives the -connect REPL against an in-process
// nbtried server: the third consumer of the shared RESP codec.
func TestCLIConnectMode(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer s.Close()

	in := strings.NewReader(strings.Join([]string{
		"ping",
		"set foo bar",
		"get foo",
		"dbsize",
		"nosuchcmd",
		"quit",
	}, "\n"))
	var out strings.Builder
	if err := runConnect(in, &out, ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"connected to nbtried",
		"PONG",
		"OK",
		`"bar"`,
		"(integer) 1",
		`(error) ERR unknown command "nosuchcmd"`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("connect session missing %q:\n%s", want, got)
		}
	}
}

func TestCLIConnectRefused(t *testing.T) {
	var out strings.Builder
	if err := runConnect(strings.NewReader("ping\n"), &out, "127.0.0.1:1"); err == nil {
		t.Fatal("connecting to a dead address must error")
	}
}
