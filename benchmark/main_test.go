package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

// resultLine is the contract's result object.
type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runBenchmark(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-out", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d\n%s\n%s", args, code, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables the
// command prints from in step, and inside the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	doc := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if n := len(doc.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command; 2 to 8 allowed", n, len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the limits", w.Name)
		}
	}

	compare := func(kind string, got []jsonMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the command; 1 to %d allowed", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the command %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || (g.Better != "higher" && g.Better != "lower") {
				t.Errorf("%s metric %q: name, unit or direction outside the limits", kind, g.Name)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %q has a bound", kind, g.Name)
			case bounded && (g.Bound == nil || *g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25):
				t.Errorf("%s metric %q: bound %v in BENCHMARK.json, %v in the command; at most 0.25", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEndDefs, 16, true)
	compare("per_layer", doc.PerLayer, perLayerDefs, 128, false)

	seen := map[string]bool{}
	widest := 0.0
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if seen[d.name] {
			t.Errorf("metric name %q is used twice", d.name)
		}
		seen[d.name] = true
		widest = max(widest, d.bound)
	}
	for _, w := range workloads {
		if seen[w.name] {
			t.Errorf("name %q is used twice", w.name)
		}
	}
	for _, d := range endToEndDefs {
		if d.name == "setup_s" && (d.unit != "s" || d.better != "lower" || d.bound != widest) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound: %+v", d)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
}

// TestSmoke runs the seconds-long variant of every workload, traced
// repetition included, through the same code as the full benchmark: the
// correctness gate passes, every metric is printed by name, and every
// workload leaves its trace file.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	if code := run([]string{"-smoke", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()

	// Every metric of BENCHMARK.json is printed for every workload, and
	// nothing is printed that BENCHMARK.json does not list.
	doc := readBenchmarkJSON(t)
	listed := map[string]bool{}
	for _, m := range append(append([]jsonMetric(nil), doc.EndToEnd...), doc.PerLayer...) {
		listed[m.Name] = true
		if got := strings.Count(out, "\n  "+m.Name+" "); got != len(workloads) {
			t.Errorf("metric %s printed %d times, want once per workload", m.Name, got)
		}
	}
	row := regexp.MustCompile(`(?m)^  ([a-z][A-Za-z0-9_.-]*) +[A-Za-z0-9_/%.-]+ +[-0-9.e+]+ +[-0-9.e+]+ +[-0-9.e+]+ +[0-9]+$`)
	rows := row.FindAllStringSubmatch(out, -1)
	if want := len(listed) * len(workloads); len(rows) != want {
		t.Errorf("%d metric rows printed, want %d", len(rows), want)
	}
	for _, r := range rows {
		if !listed[r[1]] {
			t.Errorf("metric %s is printed but not in BENCHMARK.json", r[1])
		}
	}

	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("no trace file for %s: %v", w.name, err)
		}
		prefix := "result " + w.name + " "
		i := strings.Index(out, prefix)
		if i < 0 {
			t.Errorf("no result line for %s", w.name)
			continue
		}
		line, _, _ := strings.Cut(out[i+len(prefix):], "\n")
		var res resultLine
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Errorf("%s result line: %v", w.name, err)
			continue
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range endToEndDefs {
			if v, ok := res.Metrics[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.name, d.name, v, d.unit)
			}
		}
	}
}

// TestResultLine checks the one-workload form the driver uses: the last
// line of output is the result object, holding exactly the end-to-end
// metrics without tracing and exactly the per-layer metrics with it.
func TestResultLine(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEndDefs, "1": perLayerDefs} {
		out := runBenchmark(t, "-smoke", "--workload", "collect_quiescent", "--seed", "7", "--seconds", "1", "--trace", trace)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("-trace %s: last line is not JSON: %v", trace, err)
		}
		if len(raw) != 4 {
			t.Errorf("-trace %s: result has %d keys, want correct, attempted, failed, metrics", trace, len(raw))
		}
		var res resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || len(res.Metrics) != len(defs) {
			t.Errorf("-trace %s: correct=%v with %d metrics, want %d", trace, res.Correct, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if _, ok := res.Metrics[d.name]; !ok {
				t.Errorf("-trace %s: metric %s missing", trace, d.name)
			}
		}
	}
}

// TestInputsAreDeterministic: the seed is the only source of randomness.
// The same seed gives byte-identical inputs; another seed changes them.
func TestInputsAreDeterministic(t *testing.T) {
	digest := func(seed int64) [4][32]byte {
		var d [4][32]byte
		for i, v := range []any{
			genOps(youngChurn, seed),
			genOps(oldMutation, seed),
			genStoreTargets(seed),
			genSchedule(seed, rateHigh, 1, lowFraction),
		} {
			h := sha256.New()
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
			copy(d[i][:], h.Sum(nil))
		}
		return d
	}
	a, again, b := digest(defaultSeed), digest(defaultSeed), digest(defaultSeed+1)
	for i, what := range []string{"young_churn ops", "old_mutation ops", "store targets", "arrival schedule"} {
		if a[i] != again[i] {
			t.Errorf("%s: the same seed gave different inputs", what)
		}
		if a[i] == b[i] {
			t.Errorf("%s: a different seed gave the same inputs", what)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, the method the acceptance check
// of the bounds uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; Python gives 1, 3", q1, q3)
	}
}
