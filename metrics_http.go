package gengc

import (
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"
	"unicode"

	"gengc/internal/metrics"
)

// Prometheus text exposition (version 0.0.4) for the runtime's
// observability surface, so a runtime embedded in a service plugs into
// an existing Prometheus/Grafana stack without bespoke glue. cmd/gcmon
// mounts this handler on /metrics.
//
// Every sample but three families is one numeric leaf of one Snapshot,
// named by a fixed rule: gengc_ plus the field path in snake case
// (Demographics.PromotedBytes is gengc_demographics_promoted_bytes),
// then _seconds for a time.Duration (rendered in seconds) and _total
// for a counter. A field tagged metric:"gauge" is a gauge, a bool a 0/1
// gauge, and a field tagged metric:"-" is skipped; each element of a
// slice is one sample with an index label. The field's doc comment is
// the series' definition, so no HELP line is written. Only gengc_info
// and the two native histograms, gengc_pause_seconds and
// gengc_request_seconds, are written by hand. OBSERVABILITY.md maps the
// names onto the paper's figures.

// pauseBucketBounds are the histogram bucket upper bounds in
// nanoseconds: half-decade steps from 1µs to 1s. The internal log-linear
// histogram is far finer (~6% relative error); CumulativeLE collapses it
// onto these fixed edges so the exposition stays a readable size and
// every scrape sees identical bucket boundaries.
var pauseBucketBounds = []int64{
	1_000, 5_000, // 1µs, 5µs
	10_000, 50_000, // 10µs, 50µs
	100_000, 500_000, // 100µs, 500µs
	1_000_000, 5_000_000, // 1ms, 5ms
	10_000_000, 50_000_000, // 10ms, 50ms
	100_000_000, 500_000_000, // 100ms, 500ms
	1_000_000_000, // 1s
}

// MetricsHandler returns an http.Handler serving the runtime's metrics
// in the Prometheus text format. Every scrape takes a fresh Snapshot
// (the counters are atomics; the demographics a short mutex hold), so
// the handler is safe to serve while mutators allocate and cycles run.
func (r *Runtime) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		r.writeMetrics(&b)
		_, _ = w.Write([]byte(b.String()))
	})
}

// writeMetrics renders the full exposition into b.
func (r *Runtime) writeMetrics(b *strings.Builder) {
	writeInfo(b, r.c.RunMeta())

	e := exposition{byName: map[string]*family{}}
	e.walk(reflect.ValueOf(r.Snapshot()), "gengc", "", false)
	for _, f := range e.families {
		fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, s.value)
		}
	}

	writeHistogram(b, "gengc_pause_seconds", r.c.PauseHistogram())
	if h := r.c.RequestHistogram(); h != nil {
		writeHistogram(b, "gengc_request_seconds", h)
	}
}

// exposition collects the walker's samples grouped by family, in the
// order each family first appears, since the text format wants every
// family's samples together and a slice of structs yields them
// element by element.
type exposition struct {
	families []*family
	byName   map[string]*family
}

type family struct {
	name, typ string
	samples   []sample
}

type sample struct{ labels, value string }

var durationType = reflect.TypeOf(time.Duration(0))

// walk renders v, reached by the field path name, under the naming rule
// (see the file comment). labels is the element's label set, or "".
func (e *exposition) walk(v reflect.Value, name, labels string, gauge bool) {
	switch {
	case v.Type() == durationType:
		e.add(name+"_seconds", gauge, labels, formatSeconds(v.Int()))
	case v.Kind() == reflect.Bool:
		value := "0"
		if v.Bool() {
			value = "1"
		}
		e.add(name, true, labels, value)
	case v.CanInt():
		e.add(name, gauge, labels, strconv.FormatInt(v.Int(), 10))
	case v.Kind() == reflect.Struct:
		for i := range v.NumField() {
			f := v.Type().Field(i)
			tag := f.Tag.Get("metric")
			if tag == "-" || !f.IsExported() {
				continue
			}
			e.walk(v.Field(i), name+"_"+snakeCase(f.Name), labels, gauge || tag == "gauge")
		}
	case v.Kind() == reflect.Slice:
		for i := range v.Len() {
			e.walk(v.Index(i), name, fmt.Sprintf(`{index="%d"}`, i), gauge)
		}
	}
}

// add appends one sample; a counter's name gains the _total suffix.
func (e *exposition) add(name string, gauge bool, labels, value string) {
	typ := "gauge"
	if !gauge {
		typ = "counter"
		name += "_total"
	}
	f := e.byName[name]
	if f == nil {
		f = &family{name: name, typ: typ}
		e.byName[name] = f
		e.families = append(e.families, f)
	}
	f.samples = append(f.samples, sample{labels, value})
}

// snakeCase converts a Go field name to snake case, keeping acronyms
// and digits with their word: SLOBreaches → slo_breaches, P999 → p999.
func snakeCase(s string) string {
	rs := []rune(s)
	var b strings.Builder
	for i, c := range rs {
		if i > 0 && unicode.IsUpper(c) &&
			(!unicode.IsUpper(rs[i-1]) || i+1 < len(rs) && unicode.IsLower(rs[i+1])) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(c))
	}
	return b.String()
}

// writeHistogram renders h's buckets, sum and count as the native
// Prometheus histogram name, in seconds. The +Inf bucket and the count
// are the same bucket sum, so a scrape racing Record still shows a
// monotone series that ends at its count.
func writeHistogram(b *strings.Builder, name string, h *metrics.Histogram) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	cum := h.CumulativeLE(pauseBucketBounds)
	for i, bound := range pauseBucketBounds {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatSeconds(bound), cum[i])
	}
	total := cum[len(pauseBucketBounds)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(b, "%s_sum %s\n", name, formatSeconds(int64(h.Total())))
	fmt.Fprintf(b, "%s_count %d\n", name, total)
}

// writeInfo renders the run metadata stamped into the trace start event
// as a gengc_info gauge with one label per key=value pair.
func writeInfo(b *strings.Builder, meta string) {
	var labels []string
	for _, kv := range strings.Fields(meta) {
		if k, v, ok := strings.Cut(kv, "="); ok {
			labels = append(labels, fmt.Sprintf("%s=%q", k, v))
		}
	}
	fmt.Fprintf(b, "# TYPE gengc_info gauge\ngengc_info{%s} 1\n", strings.Join(labels, ","))
}

// formatSeconds renders a nanosecond count as seconds with enough
// precision to round-trip (1µs = 1e-06).
func formatSeconds(ns int64) string {
	return fmt.Sprintf("%g", time.Duration(ns).Seconds())
}
