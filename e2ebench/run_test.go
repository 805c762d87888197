package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"subtrav"
	"subtrav/internal/graphio"
)

// tinyDir writes a small graph where the runs look for the workload
// snapshot, so a whole run fits in a test.
func tinyDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	g, err := subtrav.TwitterLike(subtrav.ScaleTiny, graphSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphio.WriteCSRFile(snapshotPath(dir), g); err != nil {
		t.Fatal(err)
	}
	return dir
}

// declared reads the metric names BENCHMARK.json declares under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var metrics []struct{ Name string }
	if err := json.Unmarshal(spec[key], &metrics); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(metrics))
	for i, m := range metrics {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// reported lists a report's metric names, sorted.
func reported(rep *report) []string {
	names := make([]string, len(rep.metrics))
	for i, m := range rep.metrics {
		names[i] = m.name
	}
	sort.Strings(names)
	return names
}

func TestEndToEndRunIsCorrect(t *testing.T) {
	dir := tinyDir(t)
	want := declared(t, "end_to_end")
	for _, w := range workloads {
		// Two episodes of one window each.
		rep, err := runEndToEnd(options{workload: w.name, seed: 3, seconds: 2 * episodeWindow, dir: dir}, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
			t.Fatalf("%s: correct=%t attempted=%d failed=%d\n%v", w.name, rep.correct, rep.attempted, rep.failed, rep.notes)
		}
		if got := reported(rep); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reports %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		for _, m := range rep.metrics {
			if m.value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.name, m.name, m.value)
			}
		}
	}
}

func TestTracedRunBudgetsEveryRequest(t *testing.T) {
	dir := tinyDir(t)
	w, err := findWorkload("shared-disk")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runTraced(options{workload: w.name, seed: 4, seconds: 2 * time.Second, trace: true, dir: dir}, w)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct {
		t.Fatalf("traced run not correct: %v", rep.notes)
	}
	if got, want := reported(rep), declared(t, "per_layer"); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run reports %v, BENCHMARK.json declares %v", got, want)
	}
	spans, err := os.ReadFile(filepath.Join(dir, "spans-shared-disk-seed4.csv"))
	if err != nil || len(spans) == 0 {
		t.Fatalf("span file: %v", err)
	}
}
