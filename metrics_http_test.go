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
	"strconv"
	"strings"
	"testing"
	"time"

	"gengc"
	"gengc/internal/workload"
)

// scrapeValue extracts one sample (exact name, or the name{...} labeled
// form when name carries the label set) from a Prometheus exposition.
func scrapeValue(t *testing.T, body, name string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("sample %s: %v", name, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// checkHistogramTotals fails unless every histogram in the exposition
// has its +Inf bucket equal to its _count, as Prometheus requires.
func checkHistogramTotals(t *testing.T, body string) {
	t.Helper()
	for _, name := range []string{"gengc_pause_seconds", "gengc_request_seconds"} {
		inf := scrapeValue(t, body, name+`_bucket{le="+Inf"}`)
		if n := scrapeValue(t, body, name+"_count"); inf != n {
			t.Errorf("%s: +Inf bucket %v, _count %v", name, inf, n)
		}
	}
}

// TestMetricsExpvarRoundTrip churns mutators against a background
// collector while scraping /metrics and the expvar snapshot, then
// quiesces and checks both exposition paths against Snapshot() value
// for value.
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
		if !strings.Contains(body, "gengc_cycles_total") {
			t.Fatal("mid-flight scrape lacks gengc_cycles_total")
		}
		checkHistogramTotals(t, body)
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
	checkHistogramTotals(t, body)
	var fromVar gengc.Snapshot
	if err := json.Unmarshal([]byte(expvar.Get(varName).String()), &fromVar); err != nil {
		t.Fatalf("expvar snapshot does not unmarshal: %v", err)
	}
	s := rt.Snapshot()

	if a := s.Admission; a.Admitted != 5 || a.ShedQueueFull != 2 || a.ShedTimeout != 3 || a.Queued != 4 || a.InFlight != 1 {
		t.Fatalf("admission snapshot %+v, want 5 admitted, 2+3 shed, 4 queued, 1 in flight", a)
	}
	if s.Cycles < 2 || s.Demographics.PromotedBytes == 0 {
		t.Fatalf("workload too quiet to validate: cycles=%d promoted=%d",
			s.Cycles, s.Demographics.PromotedBytes)
	}
	checks := []struct {
		metric string
		want   int64
	}{
		{"gengc_cycles_total", s.Cycles},
		{"gengc_full_cycles_total", s.Fulls},
		{"gengc_heap_objects", s.HeapObjects},
		{"gengc_pacer_full_target_bytes", s.FullTargetBytes},
		{"gengc_promoted_objects_total", s.Demographics.PromotedObjects},
		{"gengc_promoted_bytes_total", s.Demographics.PromotedBytes},
		{"gengc_survived_objects_total", s.Demographics.SurvivedObjects},
		{"gengc_dirty_cards_total", s.Demographics.DirtyCards},
		{"gengc_pause_slo_breaches_total", s.SLOBreaches},
		{"gengc_admission_admitted_total", s.Admission.Admitted},
		{`gengc_admission_shed_total{cause="queuefull"}`, s.Admission.ShedQueueFull},
		{`gengc_admission_shed_total{cause="timeout"}`, s.Admission.ShedTimeout},
		{"gengc_admission_queued", s.Admission.Queued},
		{"gengc_admission_inflight", s.Admission.InFlight},
	}
	for _, c := range checks {
		if got := scrapeValue(t, body, c.metric); int64(got) != c.want {
			t.Errorf("%s scraped %v, snapshot %d", c.metric, got, c.want)
		}
	}
	if got := scrapeValue(t, body, `gengc_pause_quantile_seconds{q="0.99"}`); got != s.Fleet.P99.Seconds() {
		t.Errorf("p99 scraped %v, snapshot %v", got, s.Fleet.P99.Seconds())
	}

	if fromVar.Cycles != s.Cycles || fromVar.Fulls != s.Fulls {
		t.Errorf("expvar cycles/fulls = %d/%d, snapshot %d/%d",
			fromVar.Cycles, fromVar.Fulls, s.Cycles, s.Fulls)
	}
	if fromVar.Demographics.PromotedBytes != s.Demographics.PromotedBytes {
		t.Errorf("expvar promoted bytes = %d, snapshot %d",
			fromVar.Demographics.PromotedBytes, s.Demographics.PromotedBytes)
	}
	if fromVar.Admission != s.Admission {
		t.Errorf("expvar admission = %+v, snapshot %+v", fromVar.Admission, s.Admission)
	}
	if fromVar.FlightRecorderDumps != s.FlightRecorderDumps {
		t.Errorf("expvar flight dumps = %d, snapshot %d",
			fromVar.FlightRecorderDumps, s.FlightRecorderDumps)
	}
}
