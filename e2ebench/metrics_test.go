package main

import (
	"errors"
	"math"
	"strings"
	"testing"

	"subtrav/internal/obs"
	"subtrav/internal/service"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // percentile; 0 = none supported
	}{
		{n: 15, want: 0},    // the median leaves 7 beyond it
		{n: 20, want: 50},   // 10 beyond the median, 2 beyond p90
		{n: 100, want: 90},  // 10 beyond p90, 1 beyond p99
		{n: 999, want: 90},  // 9 beyond p99
		{n: 1000, want: 99}, // exactly 10 beyond p99
		{n: 9999, want: 99},
		{n: 10000, want: 99.9},
		{n: 100000, want: 99.99},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		pct, v := tail(xs)
		if pct != tc.want {
			t.Errorf("n=%d: tail p%g, want p%g", tc.n, pct, tc.want)
			continue
		}
		if pct == 0 {
			continue
		}
		if beyond := tc.n - int(v); beyond < 10 {
			t.Errorf("n=%d: p%g=%g leaves %d samples beyond it", tc.n, pct, v, beyond)
		}
		if v != percentile(xs, pct) {
			t.Errorf("n=%d: tail value %g, percentile %g", tc.n, v, percentile(xs, pct))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %g, want 0", got)
	}
}

func TestEveryFailureCountsAgainstErrorRate(t *testing.T) {
	cases := []struct {
		reply service.Reply
		err   error
		want  outcome
	}{
		{service.Reply{Visited: 3}, nil, outcomeOK},
		{service.Reply{Code: service.CodeRejected, Err: "queue full"},
			errors.Join(errors.New("service: remote: queue full"), service.ErrRejected), outcomeRejected},
		{service.Reply{Code: service.CodeDeadline, Err: "deadline"},
			errors.Join(errors.New("service: remote: deadline"), service.ErrDeadline), outcomeDeadline},
		{service.Reply{Code: service.CodeError, Err: "bad query"}, errors.New("service: remote: bad query"), outcomeError},
		{service.Reply{}, errors.New("service: connection lost: EOF"), outcomeTransport},
	}
	var tl tally
	for _, tc := range cases {
		got := classify(tc.reply, tc.err)
		if got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.err, outcomeNames[got], outcomeNames[tc.want])
		}
		tl[got]++
	}
	// A reply the verifier found wrong is demoted from OK.
	tl[outcomeOK]--
	tl[outcomeWrong]++

	if tl.attempted() != len(cases) {
		t.Fatalf("attempted = %d, want %d", tl.attempted(), len(cases))
	}
	if tl.failed() != len(cases) {
		t.Errorf("failed = %d, want every one of %d: %v", tl.failed(), len(cases), tl)
	}
	if got := tl.errorRate(); got != 1 {
		t.Errorf("error rate = %g, want 1: %v", got, tl)
	}
	tl[outcomeOK] += 5
	if got, want := tl.errorRate(), 5.0/10; got != want {
		t.Errorf("error rate = %g, want %g", got, want)
	}
	if got := (tally{}).errorRate(); got != 0 {
		t.Errorf("empty error rate = %g, want 0", got)
	}
}

func exposition(t *testing.T, reg *obs.Registry) promSnapshot {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	snap, err := parseProm(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestPromWindowDiff(t *testing.T) {
	reg := obs.NewRegistry()
	total := reg.Counter("jobs_total", "Jobs.")
	perUnit := []*obs.Counter{
		reg.Counter("unit_misses_total", "Misses.", obs.L("unit", "0")),
		reg.Counter("unit_misses_total", "Misses.", obs.L("unit", "1")),
	}
	hist := reg.Histogram("wait_nanos", "Wait.")
	labelled := reg.Histogram("op_nanos", "Per op.", obs.L("op", "bfs"))

	total.Add(5)
	perUnit[0].Add(2)
	for _, v := range []int64{100, 1000, 1000} {
		hist.Observe(v)
	}
	before := exposition(t, reg)

	total.Add(7)
	perUnit[0].Add(3)
	perUnit[1].Add(4)
	// The window's observations: one in a bucket warm-up already used,
	// the rest in buckets that were empty before.
	window := obs.NewHistogram()
	for _, v := range []int64{1000, 5000, 5000, 5000, 70000, 0} {
		hist.Observe(v)
		window.Observe(v)
		labelled.Observe(v)
	}
	d := diffProm(before, exposition(t, reg))

	if got := d.value("jobs_total"); got != 7 {
		t.Errorf("counter delta = %g, want 7", got)
	}
	if got := d.sum("unit_misses_total"); got != 7 {
		t.Errorf("labelled family delta = %g, want 7", got)
	}
	if got := d.value(`unit_misses_total{unit="1"}`); got != 4 {
		t.Errorf("one series delta = %g, want 4", got)
	}
	for _, series := range []string{"wait_nanos", `op_nanos{op="bfs"}`} {
		n := 0.0
		for _, c := range d.hists[series] {
			n += c
		}
		if n != 6 {
			t.Errorf("%s: window count = %g, want 6", series, n)
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			got, want := d.quantile(series, q), window.Quantile(q)
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s: q%g = %g, want %g (the histogram's own answer)", series, q, got, want)
			}
		}
	}
	if got := d.quantile("absent_nanos", 0.5); got != 0 {
		t.Errorf("absent histogram quantile = %g, want 0", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, text := range []string{
		"no_value_here\n",
		"x_total abc\n",
		`h_bucket{op="a"} 3` + "\n",
	} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("parseProm(%q) succeeded", text)
		}
	}
}
