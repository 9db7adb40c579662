#!/bin/sh
# escape-smoke.sh [logfile] — escape-analysis smoke over the RESP fast
# path. Runs go vet over the hot-path packages, then rebuilds them with
# -gcflags=-m and records every value the compiler moves to the heap.
#
# The log is a diagnostic artifact, not a gate: the allocation *counts*
# on the pinned paths are enforced deterministically by
# internal/resp/alloc_test.go and internal/server/alloc_test.go, while
# the -m output explains WHERE a regression came from when one of those
# pins fails — and its phrasing changes between compiler releases, so
# gating CI on it would break on every Go bump. The script therefore
# always exits 0.
#
# A throwaway GOCACHE forces a real recompile: Go's build cache is
# content-addressed, so a warm cache would silently produce an empty
# log.

out="${1:-escape-smoke.log}"
pkgs="./internal/resp ./internal/server ./internal/expiry ./internal/engine . ./internal/obs"

{
    echo "# escape-analysis smoke: $(go version)"
    echo
    echo "## go vet $pkgs"
    if go vet $pkgs 2>&1; then
        echo "vet: clean"
    else
        echo "vet: FAILED (see above; the blocking vet step catches this too)"
    fi
    echo
    echo "## heap escapes on the hot path (go build -gcflags=-m)"
    mlog="$(mktemp)"
    GOCACHE="$(mktemp -d)" go build -gcflags='-m' $pkgs 2>&1 |
        grep -E 'escapes to heap|moved to heap' >"$mlog"
    sort <"$mlog" | uniq -c | sort -rn
    echo
    echo "## k-ary read path (snapshot.go search/ordered.go walk)"
    # The engine's wait-free reads must not heap-allocate — the 0-alloc
    # Load/Contains and Ceiling/Floor/Min pins in the root package's
    # trie_alloc_test.go enforce the count; this section points at
    # the culprit line when one of those pins fails. Every read runs one
    # descent, Snapshot.search in snapshot.go (the live trie runs it as a
    # Snapshot value on the stack at its current root, Trie.live), or the
    # one ordered walk, Snapshot.walk in ordered.go. walk's callback and
    # the closure Ceiling and Floor hand it (Snapshot.first, which
    # captures the key it returns) must not escape: a "func literal
    # escapes" or a "moved to heap" line in ordered.go is the
    # regression. The child-slot loads (every slot lies inline in its
    # node — kid() returns the address of a slot inside an object that
    # is already on the heap, which is not an escape) should add nothing
    # here, and neither should the live view: a Trie.live value listed
    # as moved to heap is the regression. Nor do leaf()/inner(), which
    # only re-type a pointer: the "leaf() on an internal node" /
    # "inner() on a leaf" lines are their guards' panic arguments,
    # constants boxed at compile time, listed wherever the accessors are
    # inlined (search's and walk's among them). Expected sites:
    # Trie.Snapshot's &Snapshot{...} (once per snapshot, not per read)
    # and the update path's searchMut and renewChild, which share
    # snapshot.go. Listed once each, in line order.
    walk="$(grep -E 'engine/(snapshot|ordered)\.go' "$mlog" | sort -t: -k1,1 -k2,2n -k3,3n | uniq)"
    if [ -n "$walk" ]; then
        echo "$walk"
        echo "(read-walk escape sites above: cross-check against the"
        echo "0-alloc read pins before assuming they are cold-path.)"
    else
        echo "none: the descent (incl. the k-ary child-array reads) is heap-free"
    fi
    echo
    echo "## dispatch runner (internal/server/dispatch.go)"
    # Every command crosses dispatch → run → its table row's handler; the
    # 0-alloc GET/EXISTS/DEL/MGET and SET-codec pins in
    # internal/server/alloc_test.go (TestServerPathAllocPins) enforce the
    # count, and this section points at the line that broke one. Expected
    # sites: the table, its name map and the handler closures (built once
    # in init), &session{...} (once per connection), and the reply text of
    # errors, SCAN and RENAME — cold paths. set copies nothing: the value
    # goes to the keyspace as an arena view and the leaf copies it (the
    # engine's byteLeaf). A new site in dispatch, run, keys, get, set, del
    # or exists is the regression. Listed in line order.
    disp="$(grep 'server/dispatch\.go' "$mlog" | sort -t: -k2,2n -k3,3n | uniq)"
    if [ -n "$disp" ]; then
        echo "$disp"
        echo "(dispatch.go escape sites above: cross-check against the"
        echo "server path pins before assuming they are cold-path.)"
    else
        echo "none: the dispatch runner is heap-free"
    fi
    echo
    echo "## TTL write paths (internal/expiry, internal/server/expiry.go)"
    # SETEX, EXPIRE, PERSIST, GETEX and the SET or DEL of a key with a
    # deadline run through expiry.Index; the TTL pins in
    # internal/server/alloc_test.go (TestServerPathAllocPins) enforce the
    # counts — one leaf Swap, the value copied into the new leaf, what a
    # plain SET costs, and nothing for the AOF record — and this section
    # points at the line that broke one. Expected sites: New's option
    # closures, its config and &Index{...} (once per server), the handler
    # closures expireCmd and ttlCmd return (built once in init),
    # StartReaper's goroutine and stop closures (once per server), the
    # snapshot header (once per SAVE) and Validate's error text (tests).
    # The engine calls Value's LeafBytes and FromLeaf through an
    # interface with the Value passed by value, which adds no site; a
    # Value moved to heap there, or in setex, is the regression. A site in
    # purge, Store, StoreDeadline, Set, Persist, rearm, Delete, Rename,
    # step, Reap, setTTL or itoa is the regression: the conditions handed
    # to DeleteFunc and CompareAndSwapFunc must stay on the stack. Listed
    # in line order.
    ttl="$(grep -E 'expiry/expiry\.go|server/expiry\.go' "$mlog" | sort -t: -k1,1 -k2,2n -k3,3n | uniq)"
    if [ -n "$ttl" ]; then
        echo "$ttl"
        echo "(TTL escape sites above: cross-check against the TTL write"
        echo "pins before assuming they are cold-path.)"
    else
        echo "none: the TTL write paths are heap-free"
    fi
    echo
    echo "## obs record paths (Counter.Add / Hist.Record)"
    # Every command and every engine help/retry crosses these; the
    # 0-alloc pins in internal/obs/obs_test.go (AllocsPerRun) enforce
    # the count, this section localizes the site when one fails. The
    # only expected obs escapes are the snapshot/render side (Load,
    # Snapshot, Quantile) — cold by construction.
    if grep 'obs/' "$mlog"; then
        echo "(obs escape sites above: anything in Add/Record is a"
        echo "hot-path regression; snapshot-side sites are expected.)"
    else
        echo "none: the record paths are heap-free"
    fi
    rm -f "$mlog"
    echo
    echo "(counts are per-site; sites in cold paths — setup, errors,"
    echo "admin commands — are expected and harmless. The steady-state"
    echo "loop is pinned by the alloc tests, not by this list.)"
} >"$out" 2>&1

echo "wrote $out ($(wc -l <"$out") lines)"
exit 0
