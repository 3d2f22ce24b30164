package gengc_test

// Round-trip tests for the live exposition surface: the Prometheus
// text handler and the expvar snapshot must be serveable while cycles
// run, and once the runtime quiesces both must agree exactly with
// Runtime.Snapshot().

import (
	"bufio"
	"encoding/json"
	"expvar"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"gengc"
	"gengc/internal/workload"
)

// parseExposition returns a Prometheus text exposition's samples, keyed
// by name and label set as written, and its TYPE line per family.
func parseExposition(t *testing.T, body string) (samples map[string]float64, types map[string]string) {
	t.Helper()
	samples, types = map[string]float64{}, map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("malformed sample line %q", line)
		}
		samples[line[:i]] = v
	}
	return samples, types
}

// checkHistogramTotals fails unless every histogram in the exposition
// has its +Inf bucket equal to its _count, as Prometheus requires.
func checkHistogramTotals(t *testing.T, samples map[string]float64) {
	t.Helper()
	for _, name := range []string{"gengc_pause_seconds", "gengc_request_seconds"} {
		inf, ok := samples[name+`_bucket{le="+Inf"}`]
		if n := samples[name+"_count"]; !ok || inf != n {
			t.Errorf("%s: +Inf bucket %v (present %v), _count %v", name, inf, ok, n)
		}
	}
}

var (
	acronymWord = regexp.MustCompile(`([A-Z]+)([A-Z][a-z])`)
	wordStart   = regexp.MustCompile(`([a-z0-9])([A-Z])`)
)

// snapshotLeaves derives, by reflection over a Snapshot and the naming
// rule of OBSERVABILITY.md, the sample every numeric leaf must have on
// /metrics: its name and labels, its value and its metric type.
func snapshotLeaves(t *testing.T, v reflect.Value, name, labels string, gauge bool, want map[string]float64, types map[string]string) {
	t.Helper()
	leaf := func(name string, gauge bool, value float64) {
		typ := "gauge"
		if !gauge {
			typ, name = "counter", name+"_total"
		}
		want[name+labels], types[name] = value, typ
	}
	switch {
	case v.Type() == reflect.TypeOf(time.Duration(0)):
		leaf(name+"_seconds", gauge, time.Duration(v.Int()).Seconds())
	case v.Kind() == reflect.Bool:
		value := 0.0
		if v.Bool() {
			value = 1
		}
		leaf(name, true, value)
	case v.CanInt():
		leaf(name, gauge, float64(v.Int()))
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			tag := f.Tag.Get("metric")
			if tag == "-" {
				continue
			}
			snake := strings.ToLower(wordStart.ReplaceAllString(acronymWord.ReplaceAllString(f.Name, "${1}_${2}"), "${1}_${2}"))
			snapshotLeaves(t, v.Field(i), name+"_"+snake, labels, gauge || tag == "gauge", want, types)
		}
	case v.Kind() == reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			snapshotLeaves(t, v.Index(i), name, `{index="`+strconv.Itoa(i)+`"}`, gauge, want, types)
		}
	default:
		t.Fatalf("Snapshot leaf %s has kind %s, which /metrics does not render", name, v.Kind())
	}
}

// TestMetricsExpvarRoundTrip churns mutators against a background
// collector while scraping /metrics and the expvar snapshot, then
// quiesces and checks both exposition paths against Snapshot(): every
// numeric leaf has its sample, every sample but gengc_info and the two
// histograms is a leaf, and the expvar JSON is the whole Snapshot.
func TestMetricsExpvarRoundTrip(t *testing.T) {
	rt, err := gengc.New(
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(16<<20),
		gengc.WithYoungBytes(1<<20),
		gengc.WithFlightRecorder(64),
		gengc.WithPauseSLO(time.Second),
		gengc.WithAdmission(gengc.AdmissionConfig{MaxQueue: 12}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	varName := expvarName("gengc_test_roundtrip")
	if err := rt.PublishExpvar(varName); err != nil {
		t.Fatal(err)
	}
	if err := rt.PublishExpvar(varName); err == nil {
		t.Fatal("PublishExpvar accepted a duplicate name")
	}
	handler := rt.MetricsHandler()
	scrape := func() (string, string) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String(), rec.Header().Get("Content-Type")
	}

	// Four Mix mutators; ops sized so the churn outlasts the eight
	// mid-flight scrapes below.
	churned := make(chan error, 1)
	go func() { churned <- workload.RunMix(rt, 4, 80_000, 1) }()
	// Scrape both paths mid-flight: the values race the workload and are
	// discarded, but serving must not wedge a cycle or trip -race.
	for i := 0; i < 8; i++ {
		body, ctype := scrape()
		if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
			t.Fatalf("content type = %q, want Prometheus text 0.0.4", ctype)
		}
		samples, _ := parseExposition(t, body)
		if _, ok := samples["gengc_cycles_total"]; !ok {
			t.Fatal("mid-flight scrape lacks gengc_cycles_total")
		}
		checkHistogramTotals(t, samples)
		_ = expvar.Get(varName).String()
		time.Sleep(time.Millisecond)
	}
	if err := <-churned; err != nil {
		t.Fatal(err)
	}

	// Quiescent: no mutators, one settling full collection, no pacing
	// pressure left to start another cycle. Exposition and snapshot must
	// now agree exactly.
	rt.Collect(true)

	// Leave the admission counters and gauges nonzero and pairwise
	// distinct, so a swapped series cannot pass: 14 arrivals at a
	// 12-deep queue shed 2, then 3 queued requests expire, 5 are taken
	// up, 4 of those finish — 4 still queued, 1 being served.
	adm := rt.Admission()
	for i := 0; i < 14; i++ {
		_ = adm.Admit(gengc.PriorityHigh)
	}
	for i := 0; i < 3; i++ {
		adm.Expire(gengc.PriorityHigh)
	}
	for i := 0; i < 5; i++ {
		adm.Start()
	}
	for i := 0; i < 4; i++ {
		adm.Finish()
	}
	body, _ := scrape()
	samples, types := parseExposition(t, body)
	checkHistogramTotals(t, samples)
	var fromVar gengc.Snapshot
	if err := json.Unmarshal([]byte(expvar.Get(varName).String()), &fromVar); err != nil {
		t.Fatalf("expvar snapshot does not unmarshal: %v", err)
	}
	s := rt.Snapshot()

	if a := s.Admission; a.Admitted != 5 || a.ShedQueueFull != 2 || a.ShedTimeout != 3 || a.Queued != 4 || a.InFlight != 1 {
		t.Fatalf("admission snapshot %+v, want 5 admitted, 2+3 shed, 4 queued, 1 in flight", a)
	}
	if s.Cycles < 2 || s.Demographics.PromotedBytes == 0 || s.Fleet.Count == 0 || s.FlightRecorderTriggers == 0 {
		t.Fatalf("workload too quiet to validate: cycles=%d promoted=%d pauses=%d flight triggers=%d",
			s.Cycles, s.Demographics.PromotedBytes, s.Fleet.Count, s.FlightRecorderTriggers)
	}

	want, wantTypes := map[string]float64{}, map[string]string{}
	snapshotLeaves(t, reflect.ValueOf(s), "gengc", "", false, want, wantTypes)
	for name, v := range want {
		if got, ok := samples[name]; !ok {
			t.Errorf("no sample %s for its Snapshot leaf", name)
		} else if got != v {
			t.Errorf("%s scraped %v, snapshot %v", name, got, v)
		}
	}
	for family, typ := range wantTypes {
		if types[family] != typ {
			t.Errorf("%s has TYPE %q, want %q", family, types[family], typ)
		}
	}
	for name := range samples {
		family, _, _ := strings.Cut(name, "{")
		switch strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum"), "_count") {
		case "gengc_info", "gengc_pause_seconds", "gengc_request_seconds":
			continue
		}
		if _, ok := want[name]; !ok {
			t.Errorf("sample %s maps to no Snapshot leaf", name)
		}
	}

	if !reflect.DeepEqual(fromVar, s) {
		t.Errorf("expvar snapshot differs from Snapshot():\nexpvar   %+v\nsnapshot %+v", fromVar, s)
	}
}
