package server

import (
	"context"
	"testing"
	"time"

	"gengc"
)

// TestOverloadAdmissionContrast is the overload contrast that justifies
// the admission controller. It calibrates the closed-loop capacity of
// this host, then offers three times that rate open-loop, once with
// admission armed and once naive (no admission, the blocking FIFO).
// Its rules compare the two legs' behaviour classes, not absolute
// latencies, so they hold on any host:
//   - the admitted leg has no OOM failure, completes requests and sheds;
//   - the admitted leg's completed-request p99.9 is within 4× the SLO;
//   - the naive leg breaches the SLO or fails on OOM.
func TestOverloadAdmissionContrast(t *testing.T) {
	const (
		workers = 4
		slo     = 50 * time.Millisecond
		window  = 200 * time.Millisecond
	)
	tpl := Request{Objects: 96, Slots: 2, Size: 128}
	newServer := func(admit bool) *Server {
		opts := []gengc.Option{
			gengc.WithMode(gengc.Generational),
			gengc.WithHeapBytes(12 << 20),
			gengc.WithYoungBytes(512 << 10),
			gengc.WithRequestSLO(slo),
			gengc.WithStallTimeout(100 * time.Millisecond),
		}
		if admit {
			opts = append(opts, gengc.WithAdmission(gengc.AdmissionConfig{MaxQueue: 8 * workers}))
		}
		rt, err := gengc.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return New(rt, Config{Workers: workers})
	}
	drain := func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}

	// Closed-loop capacity: enough requests to span dozens of collection
	// cycles, queued at once and served as fast as the workers go. The
	// window is short because the naive leg's Drain serves its whole
	// backlog: that leg does about three windows of work.
	s := newServer(false)
	const n = 2000
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := s.Submit(tpl); err != nil {
			t.Fatalf("calibration submit %d: %v", i, err)
		}
	}
	drain(s)
	capacity := float64(s.Stats().Completed) / time.Since(start).Seconds()
	if capacity == 0 {
		t.Fatal("calibration completed nothing")
	}

	leg := func(admit bool) (Stats, gengc.Snapshot) {
		s := newServer(admit)
		req := tpl
		if admit {
			// Queue wait counts against the deadline, so work that
			// cannot finish in time is abandoned, not served late.
			req.Deadline = slo
		}
		RunLoad(context.Background(), s, LoadConfig{
			Rate:        3 * capacity,
			Duration:    window,
			BurstEvery:  window / 4,
			BurstLen:    window / 20,
			BurstFactor: 2,
			LowFraction: 0.25,
			Template:    req,
			Seed:        1,
		})
		drain(s)
		return s.Stats(), s.Runtime().Snapshot()
	}
	adm, admSnap := leg(true)
	naive, naiveSnap := leg(false)
	t.Logf("capacity %.0f req/s; admitted: %d completed, %d shed, %d OOM, p99.9 %v; naive: %d completed, %d breaches, %d OOM, p99.9 %v",
		capacity, adm.Completed, adm.Shed, adm.FailedOOM, admSnap.RequestLatency.P999,
		naive.Completed, naiveSnap.RequestSLOBreaches, naive.FailedOOM, naiveSnap.RequestLatency.P999)

	if adm.FailedOOM != 0 {
		t.Errorf("admitted leg: %d OOM failures, want 0 (admission sheds before OOM)", adm.FailedOOM)
	}
	if adm.Completed == 0 {
		t.Error("admitted leg completed nothing")
	}
	if adm.Shed == 0 {
		t.Error("admitted leg shed nothing at 3x capacity")
	}
	if p := admSnap.RequestLatency.P999; p > 4*slo {
		t.Errorf("admitted leg: completed p99.9 %v exceeds 4x the SLO %v", p, slo)
	}
	if naiveSnap.RequestSLOBreaches == 0 && naive.FailedOOM == 0 {
		t.Error("naive leg neither breached the SLO nor failed on OOM: no overload contrast")
	}
}
