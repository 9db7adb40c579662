package main

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"

	"nbtrie/internal/server"
)

// The server is measured from outside: its own counters are read from the
// Prometheus text that WriteMetrics renders.

// promScrape maps a series as written ("name" or "name{labels}") to its value.
type promScrape map[string]float64

func scrape(srv *server.Server) promScrape {
	var b strings.Builder
	srv.WriteMetrics(&b)
	return parseProm(b.String())
}

func parseProm(text string) promScrape {
	p := promScrape{}
	for line := range strings.SplitSeq(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		at := strings.LastIndexByte(line, ' ')
		if at < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[at+1:], 64); err == nil {
			p[line[:at]] = v
		}
	}
	return p
}

// sum adds up every series of a family, whatever its labels.
func (p promScrape) sum(name string) float64 {
	total := 0.0
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// promHist is a histogram family with its label sets merged: count[i]
// samples fell in the bucket whose upper bound is le[i].
type promHist struct {
	le    []float64
	count []float64
	sum   float64
	n     float64
}

// hist collects a histogram family. WriteMetrics leaves out the bounds of
// empty buckets, so each label set is made non-cumulative on its own before
// the sets are added up.
func (p promScrape) hist(name string) promHist {
	type bucket struct{ le, cum float64 }
	sets := map[string][]bucket{}
	prefix := name + "_bucket{"
	for series, v := range p {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		labels := strings.TrimSuffix(series[len(prefix):], "}")
		at := strings.LastIndex(labels, `le="`)
		if at < 0 {
			continue
		}
		bound := strings.TrimSuffix(labels[at+len(`le="`):], `"`)
		le := math.Inf(1)
		if bound != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(bound, 64); err != nil {
				continue
			}
		}
		sets[labels[:at]] = append(sets[labels[:at]], bucket{le, v})
	}
	byLE := map[float64]float64{}
	for _, buckets := range sets {
		slices.SortFunc(buckets, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
		prev := 0.0
		for _, b := range buckets {
			byLE[b.le] += b.cum - prev
			prev = b.cum
		}
	}
	h := promHist{sum: p.sum(name + "_sum"), n: p.sum(name + "_count")}
	for le := range byLE {
		h.le = append(h.le, le)
	}
	slices.Sort(h.le)
	for _, le := range h.le {
		h.count = append(h.count, byLE[le])
	}
	return h
}

// since returns the samples h gained over an earlier reading of the same
// histogram.
func (h promHist) since(before promHist) promHist {
	d := promHist{le: h.le, count: slices.Clone(h.count), sum: h.sum - before.sum, n: h.n - before.n}
	for i, le := range before.le {
		if j, ok := slices.BinarySearch(d.le, le); ok {
			d.count[j] -= before.count[i]
		}
	}
	return d
}

func (h promHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / h.n
}

// quantile returns the upper bound of the bucket the q-th sample fell in;
// the server's buckets are powers of two, so it is exact to a factor of two.
// Samples past the last finite bound report that bound.
func (h promHist) quantile(q float64) float64 {
	total := 0.0
	for _, c := range h.count {
		total += c
	}
	if total == 0 {
		return 0
	}
	seen, last := 0.0, 0.0
	for i, c := range h.count {
		if !math.IsInf(h.le[i], 1) {
			last = h.le[i]
		}
		if seen += c; seen >= q*total {
			break
		}
	}
	return last
}
