package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"subtrav/internal/service"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted
// samples by the nearest-rank rule, or 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n
// samples. The tolerance keeps 99.9% of 10000 at rank 9990 despite
// 0.999·10000 rounding up in binary floating point.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentiles are the candidate tail percentiles, lowest first.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tail picks the highest candidate percentile that still leaves at
// least 10 samples beyond it: a tail read from fewer samples is one
// unlucky request, not a percentile. It returns 0 when even the
// median has fewer than 10 samples above it.
func tail(sorted []float64) (pct, value float64) {
	for _, p := range tailPercentiles {
		r := rank(p, len(sorted))
		if len(sorted)-r < 10 {
			break
		}
		pct, value = p, sorted[r-1]
	}
	return pct, value
}

// median is the 50th percentile of xs by the nearest-rank rule.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// outcome classifies one request's resolution as the client saw it.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeWrong
	outcomeError
	outcomeRejected
	outcomeDeadline
	outcomeTransport
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "wrong", "error", "rejected", "deadline", "transport"}

// classify maps a Client.Do result to an outcome. A reply that came
// back without error still has to pass verification before it counts
// as correct; the verifier demotes it to outcomeWrong.
func classify(reply service.Reply, err error) outcome {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, service.ErrRejected):
		return outcomeRejected
	case errors.Is(err, service.ErrDeadline):
		return outcomeDeadline
	case reply.Err != "":
		return outcomeError
	default:
		return outcomeTransport
	}
}

// tally counts outcomes of the requests attempted in a window.
type tally [numOutcomes]int

// attempted is the number of requests sent.
func (t tally) attempted() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

// failed counts every request that did not return a verified-correct
// result: refusals, deadline misses, errors, lost connections and
// wrong answers all miss.
func (t tally) failed() int { return t.attempted() - t[outcomeOK] }

// errorRate is failed over attempted (0 when nothing was attempted).
func (t tally) errorRate() float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted())
}

func (t tally) String() string {
	parts := make([]string, 0, numOutcomes)
	for o, c := range t {
		parts = append(parts, fmt.Sprintf("%s=%d", outcomeNames[o], c))
	}
	return strings.Join(parts, " ")
}

// promHist is one histogram series of a Prometheus text exposition:
// non-cumulative counts keyed by bucket upper bound (the le label).
type promHist map[float64]float64

// promSnapshot is a parsed Prometheus text exposition: plain samples
// by series (name plus rendered labels), histograms by series without
// the le label.
type promSnapshot struct {
	values map[string]float64
	hists  map[string]promHist
}

// parseProm parses the text exposition written by
// obs.Registry.WritePrometheus. Histogram buckets are cumulative on
// the wire; they are stored per bucket so two snapshots can be diffed
// bucket by bucket even when a bucket is absent (empty) in one.
func parseProm(text string) (promSnapshot, error) {
	snap := promSnapshot{values: map[string]float64{}, hists: map[string]promHist{}}
	type bound struct{ le, cum float64 }
	cums := map[string][]bound{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return snap, fmt.Errorf("prom: no value in %q", line)
		}
		series, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return snap, fmt.Errorf("prom: value in %q: %w", line, err)
		}
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		if strings.HasSuffix(name, "_bucket") {
			rest, le, ok := cutLE(labels)
			if !ok {
				return snap, fmt.Errorf("prom: bucket without le in %q", line)
			}
			ub := math.Inf(1)
			if le != "+Inf" {
				if ub, err = strconv.ParseFloat(le, 64); err != nil {
					return snap, fmt.Errorf("prom: le in %q: %w", line, err)
				}
			}
			key := strings.TrimSuffix(name, "_bucket") + rest
			cums[key] = append(cums[key], bound{ub, v})
			continue
		}
		snap.values[series] = v
	}
	if err := sc.Err(); err != nil {
		return snap, err
	}
	for key, bs := range cums {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		h := promHist{}
		prev := 0.0
		for _, b := range bs {
			if c := b.cum - prev; c != 0 {
				h[b.le] = c
			}
			prev = b.cum
		}
		snap.hists[key] = h
	}
	return snap, nil
}

// cutLE removes the le label from a rendered label set, returning the
// remaining set ("" when le was the only label) and le's value.
func cutLE(labels string) (rest, le string, ok bool) {
	if !strings.HasPrefix(labels, "{") || !strings.HasSuffix(labels, "}") {
		return "", "", false
	}
	var kept []string
	for _, part := range strings.Split(labels[1:len(labels)-1], ",") {
		if v, found := strings.CutPrefix(part, "le="); found {
			le, ok = strings.Trim(v, `"`), true
			continue
		}
		kept = append(kept, part)
	}
	if len(kept) > 0 {
		rest = "{" + strings.Join(kept, ",") + "}"
	}
	return rest, le, ok
}

// promDiff is the activity between two snapshots of one registry.
type promDiff struct {
	values map[string]float64
	hists  map[string]promHist
}

// diffProm subtracts before from after: counters become the count over
// the window, histograms the observations made in it.
func diffProm(before, after promSnapshot) promDiff {
	d := promDiff{values: map[string]float64{}, hists: map[string]promHist{}}
	for k, v := range after.values {
		d.values[k] = v - before.values[k]
	}
	for k, h := range after.hists {
		out := promHist{}
		for le, c := range h {
			if delta := c - before.hists[k][le]; delta != 0 {
				out[le] = delta
			}
		}
		d.hists[k] = out
	}
	return d
}

// value returns one series' delta (0 when absent).
func (d promDiff) value(series string) float64 { return d.values[series] }

// sum adds the deltas of every labelled series of a metric family.
func (d promDiff) sum(name string) float64 {
	total := 0.0
	for k, v := range d.values {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// quantile estimates the q-th quantile (0 < q <= 1) of the
// observations a histogram series gained, answering the geometric
// midpoint of the selected log bucket the way obs.Histogram does
// (buckets are (ub/2^(1/4), ub]; the bucket with ub 1 holds v <= 1).
// It returns 0 when the series gained nothing.
func (d promDiff) quantile(series string, q float64) float64 {
	h := d.hists[series]
	bounds := make([]float64, 0, len(h))
	total := 0.0
	for le, c := range h {
		bounds = append(bounds, le)
		total += c
	}
	if total == 0 {
		return 0
	}
	sort.Float64s(bounds)
	rank := math.Ceil(q * total)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i, le := range bounds {
		cum += h[le]
		if cum < rank {
			continue
		}
		switch {
		case math.IsInf(le, 1):
			// Past the last finite bucket: the best bound known.
			if i == 0 {
				return 0
			}
			return bounds[i-1]
		case le <= 1:
			return le
		default:
			return le / math.Pow(2, 1.0/8)
		}
	}
	return bounds[len(bounds)-1]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
