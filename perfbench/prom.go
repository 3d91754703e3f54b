package main

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promText is one /metrics scrape: every sample keyed by its series as
// printed, e.g. `ussd_http_requests_total{class="2xx"}`.
type promText map[string]float64

// parseProm reads the Prometheus text exposition format.
func parseProm(r io.Reader) (promText, error) {
	out := promText{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// hist is one histogram series: cumulative bucket counts by upper bound.
type hist struct {
	le  []float64 // ascending upper bounds (+Inf excluded)
	cum []float64 // cumulative counts at each bound
	sum float64
	n   float64
}

// hist extracts the series of family name whose label body is labels
// (empty for an unlabelled family).
func (p promText) hist(name, labels string) hist {
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	prefix += `le="`
	var h hist
	type bc struct{ le, cum float64 }
	var bs []bc
	for k, v := range p {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		bound := strings.TrimSuffix(rest, `"}`)
		if bound == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(bound, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bc{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	for _, b := range bs {
		h.le = append(h.le, b.le)
		h.cum = append(h.cum, b.cum)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	h.sum = p[name+"_sum"+suffix]
	h.n = p[name+"_count"+suffix]
	return h
}

// at returns the cumulative count at bound le. The server elides empty
// leading and trailing buckets, so a bound below the first listed one
// holds nothing and a bound above the last holds what the last does.
func (h hist) at(le float64) float64 {
	i := sort.SearchFloat64s(h.le, le)
	if i < len(h.le) && h.le[i] == le {
		return h.cum[i]
	}
	if i == 0 {
		return 0
	}
	return h.cum[i-1]
}

// minus returns the observations h holds beyond earlier — the histogram
// of one measured interval — over the union of both bound sets.
func (h hist) minus(earlier hist) hist {
	bounds := append(append([]float64(nil), h.le...), earlier.le...)
	sort.Float64s(bounds)
	var out hist
	for i, le := range bounds {
		if i > 0 && bounds[i-1] == le {
			continue
		}
		out.le = append(out.le, le)
		out.cum = append(out.cum, h.at(le)-earlier.at(le))
	}
	out.sum = h.sum - earlier.sum
	out.n = h.n - earlier.n
	return out
}

// plus adds two interval histograms (the same family on two nodes).
func (h hist) plus(o hist) hist {
	neg := hist{le: o.le, sum: -o.sum, n: -o.n}
	for _, c := range o.cum {
		neg.cum = append(neg.cum, -c)
	}
	return h.minus(neg)
}

// quantile estimates quantile q by linear interpolation inside the
// log2 bucket holding it (bucket i spans (le/2, le]); 0 for no data.
func (h hist) quantile(q float64) float64 {
	if len(h.le) == 0 {
		return 0
	}
	total := h.cum[len(h.cum)-1]
	if total <= 0 {
		return 0
	}
	target := q * total
	prev := 0.0
	for i, le := range h.le {
		if h.cum[i] >= target {
			lo := le / 2
			in := h.cum[i] - prev
			if in <= 0 {
				return le
			}
			return lo + (le-lo)*(target-prev)/in
		}
		prev = h.cum[i]
	}
	return h.le[len(h.le)-1]
}

// mean is the interval's average observation; 0 for none.
func (h hist) mean() float64 {
	if h.n <= 0 {
		return 0
	}
	return h.sum / h.n
}
