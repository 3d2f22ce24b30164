// Command gcmon runs a continuous churn workload on the collector and
// serves its live observability surface over HTTP — the quickest way to
// watch the runtime breathe under a Prometheus/Grafana stack or plain
// curl:
//
//	gcmon -addr :8080 -mode gen -threads 4 &
//	curl localhost:8080/metrics              # Runtime.Snapshot as Prometheus text
//	curl localhost:8080/snapshot             # the same Snapshot as JSON
//	curl localhost:8080/flightrecorder/dump  # force + serve a flight dump
//
// Endpoints:
//
//	/metrics             Prometheus text format (Runtime.MetricsHandler):
//	                     every numeric Snapshot field as one series, named
//	                     after its field path, plus the pause and request
//	                     histograms
//	/snapshot            the full Snapshot, JSON-encoded
//	/flightrecorder/dump triggers a manual flight-recorder capture and
//	                     serves it as JSONL (the same format the anomaly
//	                     triggers write); 404 without -flightrecorder
//
// The workload is the soaks' randomized mutator (workload.Mix), one
// per thread: allocation, linking, unlinking and global publication
// over a window of roots, so partials, promotions and card traffic all
// advance continuously.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"gengc"
	"gengc/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		conns   = flag.Int("maxconns", 64, "maximum simultaneous HTTP connections")
		modeStr = flag.String("mode", "gen", "collector: non|gen|aging")
		threads = flag.Int("threads", 4, "churn mutator threads")
		youngMB = flag.Int("young", 4, "young generation size in MB")
		flight  = flag.Int("flightrecorder", 256, "flight-recorder ring size (0 disables)")
		slo     = flag.Duration("slo", 0, "pause SLO (0 disables; breaches trigger dumps)")
	)
	flag.Parse()

	mode, err := workload.ParseMode(*modeStr)
	if err != nil {
		log.Fatal(err)
	}

	rt, err := gengc.New(
		gengc.WithMode(mode),
		gengc.WithYoungBytes(*youngMB<<20),
		gengc.WithFlightRecorder(*flight),
		gengc.WithPauseSLO(*slo),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	// The churn threads run until the process dies; ops counts completed
	// operations for the periodic status line.
	var ops atomic.Int64
	for i := 0; i < *threads; i++ {
		go func() {
			m := rt.NewMutator()
			defer m.Detach()
			mix := workload.NewMix(rt, m, int64(i))
			for {
				if err := mix.Run(10_000); err != nil {
					// ErrOutOfMemory/ErrStalled already triggered a
					// flight dump; back off and retry.
					log.Printf("churn thread %d: %v", i, err)
					time.Sleep(100 * time.Millisecond)
				}
				ops.Add(10_000)
			}
		}()
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", rt.MetricsHandler())
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rt.Snapshot())
	})
	mux.HandleFunc("/flightrecorder/dump", func(w http.ResponseWriter, _ *http.Request) {
		fr := rt.FlightRecorder()
		if fr == nil {
			http.Error(w, "flight recorder disabled (-flightrecorder 0)", http.StatusNotFound)
			return
		}
		fr.Trigger("manual")
		dump, ok := fr.LastDump()
		if !ok {
			http.Error(w, "no dump captured yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := dump.WriteJSONL(w); err != nil {
			log.Printf("writing dump: %v", err)
		}
	})

	go func() {
		for range time.Tick(10 * time.Second) {
			s := rt.Snapshot()
			fmt.Fprintf(os.Stderr,
				"gcmon: ops=%d cycles=%d (%d full) heap=%dKB promoted=%dKB p99=%v dumps=%d\n",
				ops.Load(), s.Cycles, s.Fulls, s.HeapBytes/1024,
				s.Demographics.PromotedBytes/1024, s.Fleet.P99, s.FlightRecorderDumps)
		}
	}()

	log.Printf("gcmon: serving /metrics, /snapshot, /flightrecorder/dump on %s (%d churn threads, mode %v, max %d conns)",
		*addr, *threads, mode, *conns)
	// Hardened serving: read/header/write timeouts plus a connection
	// cap, so a stalled scraper or connection flood cannot wedge the
	// observability path of the process it is meant to watch.
	log.Fatal(gengc.ListenAndServeHardened(*addr, mux, *conns))
}
