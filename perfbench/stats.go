package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

func sortSamples(s []sample) { sort.Slice(s, func(i, j int) bool { return s[i].op < s[j].op }) }

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLadder is the set of percentiles a tail latency may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// tailQuantile is the highest percentile of the ladder that still has at
// least ten of n samples beyond it, so the tail is never one outlier.
func tailQuantile(n int) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histogram is one Prometheus histogram family from a /metrics scrape, kept
// as per-bucket counts keyed by upper bound (seconds) so two scrapes can be
// subtracted bucket by bucket.
type histogram struct {
	buckets map[float64]int64
	count   int64
	sum     float64
}

// parseHistograms reads the histogram families of a Prometheus text
// exposition. apserve and aprouter print only non-empty cumulative buckets,
// so a bucket's own count is its cumulative count minus the previous one.
func parseHistograms(r io.Reader) (map[string]*histogram, error) {
	out := map[string]*histogram{}
	prev := map[string]int64{}
	get := func(name string) *histogram {
		h := out[name]
		if h == nil {
			h = &histogram{buckets: map[float64]int64{}}
			out[name] = h
		}
		return h
	}
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
		key, val := line[:sp], line[sp+1:]
		switch {
		case strings.Contains(key, "_bucket{le=\""):
			name := key[:strings.Index(key, "_bucket{")]
			le := key[strings.Index(key, "le=\"")+4 : len(key)-2]
			if le == "+Inf" {
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fmt.Errorf("metrics: bucket bound %q: %w", le, err)
			}
			cum, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("metrics: bucket count %q: %w", val, err)
			}
			get(name).buckets[bound] = cum - prev[name]
			prev[name] = cum
		case strings.HasSuffix(key, "_count") && !strings.Contains(key, "{"):
			if c, err := strconv.ParseInt(val, 10, 64); err == nil {
				get(strings.TrimSuffix(key, "_count")).count = c
			}
		case strings.HasSuffix(key, "_sum") && !strings.Contains(key, "{"):
			if s, err := strconv.ParseFloat(val, 64); err == nil {
				get(strings.TrimSuffix(key, "_sum")).sum = s
			}
		}
	}
	return out, sc.Err()
}

// minus is the histogram of the samples recorded between scrape old and
// scrape h. A nil old means "nothing before".
func (h *histogram) minus(old *histogram) *histogram {
	d := &histogram{buckets: map[float64]int64{}}
	if h == nil {
		return d
	}
	d.count, d.sum = h.count, h.sum
	for b, c := range h.buckets {
		d.buckets[b] = c
	}
	if old != nil {
		d.count -= old.count
		d.sum -= old.sum
		for b, c := range old.buckets {
			d.buckets[b] -= c
		}
	}
	return d
}

// quantile is the upper bound, in seconds, of the bucket holding the
// q-quantile (the exposition's resolution: within 6.25%).
func (h *histogram) quantile(q float64) float64 {
	if h == nil || h.count <= 0 {
		return 0
	}
	bounds := make([]float64, 0, len(h.buckets))
	for b := range h.buckets {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	rank := int64(math.Ceil(q * float64(h.count)))
	var cum int64
	for _, b := range bounds {
		cum += h.buckets[b]
		if cum >= rank {
			return b
		}
	}
	return bounds[len(bounds)-1]
}

// histDeltas subtracts two scrapes family by family.
func histDeltas(after, before map[string]*histogram) map[string]*histogram {
	out := map[string]*histogram{}
	for name, h := range after {
		out[name] = h.minus(before[name])
	}
	return out
}
