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
pkgs="./internal/resp ./internal/server ./internal/engine ./internal/kv ./internal/obs"

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
    echo "## k-ary read path (engine.go search/child loads)"
    # The engine's wait-free reads (Find/Get and the search descents)
    # must not heap-allocate — the 0-alloc Load/Contains pins in
    # internal/kv/alloc_test.go enforce the count; this section points
    # at the culprit line when one of those pins fails. Escapes in
    # engine.go outside the update/replace/snapshot files are the
    # read-path suspects: the child-slot loads (the inline pair, or the
    # slot block a wide node holds behind its ext pointer — kid()
    # returns the address of a slot inside an object that is already on
    # the heap, which is not an escape) should add nothing here. Nor
    # do leaf()/inner(), which only re-type a pointer: the "leaf() on an
    # internal node" / "inner() on a leaf" lines are their guards' panic
    # arguments, constants boxed at compile time, listed wherever the
    # accessors are inlined. The constructors in engine.go (newLeafVal's
    # &leafNode{...}, newNode's &innerNode{...}, newSlots, newUnflag,
    # newFlag) are expected sites: update path only.
    if grep 'engine/engine\.go' "$mlog"; then
        echo "(engine.go escape sites above: cross-check against the"
        echo "0-alloc read pins before assuming they are cold-path.)"
    else
        echo "none: the descent (incl. the k-ary child-array reads) is heap-free"
    fi
    echo
    echo "## dispatch runner (internal/server/dispatch.go)"
    # Every command crosses dispatch → run → its table row's handler; the
    # 0-alloc GET/EXISTS/DEL/MGET and <= 1 SET-codec pins in
    # internal/server/alloc_test.go (TestServerPathAllocPins) enforce the
    # count, and this section points at the line that broke one. Expected
    # sites: the table, its name map and the handler closures (built once
    # in init), &session{...} (once per connection), the inlined Detach
    # copy in set (SET's one pinned allocation), and the reply text of
    # errors, SCAN and RENAME — cold paths. A new site in dispatch, run,
    # keys, get, del or exists is the regression. Listed in line order.
    disp="$(grep 'server/dispatch\.go' "$mlog" | sort -t: -k2,2n -k3,3n | uniq)"
    if [ -n "$disp" ]; then
        echo "$disp"
        echo "(dispatch.go escape sites above: cross-check against the"
        echo "server path pins before assuming they are cold-path.)"
    else
        echo "none: the dispatch runner is heap-free"
    fi
    echo
    echo "## obs record paths (Counter.Inc / Striped.Add / Hist.Record)"
    # Every command and every engine help/retry crosses these; the
    # 0-alloc pins in internal/obs/obs_test.go (AllocsPerRun) enforce
    # the count, this section localizes the site when one fails. The
    # only expected obs escapes are the snapshot/render side (Load,
    # Snapshot, Quantile) — cold by construction.
    if grep 'obs/' "$mlog"; then
        echo "(obs escape sites above: anything in Inc/Add/Record is a"
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
