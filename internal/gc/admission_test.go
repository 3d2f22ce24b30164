package gc

import (
	"errors"
	"testing"
	"time"
)

// admissionCollector builds a collector with the given admission
// parameters and the paper-default heap.
func admissionCollector(t *testing.T, ac AdmissionConfig) *Collector {
	t.Helper()
	c, err := New(Config{Mode: Generational, Admission: &ac})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestAdmissionLifecycleGauges(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{})
	a := c.Admission()
	for i := 0; i < 3; i++ {
		if err := a.Admit(PriorityLow); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if st := a.Stats(); !st.Enabled || st.Queued != 3 || st.InFlight != 0 || st.Admitted != 0 {
		t.Fatalf("stats after 3 admits: %+v, want Queued 3 and nothing admitted yet", st)
	}
	a.Start()
	a.Start()
	if st := a.Stats(); st.Queued != 1 || st.InFlight != 2 || st.Admitted != 2 {
		t.Fatalf("stats after 2 starts: %+v", st)
	}
	a.Finish()
	a.Finish()
	a.Start()
	a.Finish()
	if st := a.Stats(); st.Queued != 0 || st.InFlight != 0 || st.Admitted != 3 || st.Shed != 0 {
		t.Fatalf("stats after every request finished: %+v", st)
	}
}

func TestAdmissionQueueTimeoutShed(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{MaxQueue: 1})
	a := c.Admission()
	if err := a.Admit(PriorityHigh); err != nil {
		t.Fatal(err)
	}
	// The request's deadline passed in the queue: dropping it frees its
	// place and counts a timeout shed, not an admission.
	a.Expire(PriorityHigh)
	st := a.Stats()
	if st.ShedTimeout != 1 || st.Shed != 1 || st.Queued != 0 || st.Admitted != 0 {
		t.Fatalf("stats after an expired request: %+v", st)
	}
	if err := a.Admit(PriorityHigh); err != nil {
		t.Fatalf("admit into the freed place: %v", err)
	}
}

func TestAdmissionQueueFullShed(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{MaxQueue: 1})
	a := c.Admission()
	if err := a.Admit(PriorityHigh); err != nil {
		t.Fatal(err)
	}
	if err := a.Admit(PriorityHigh); !errors.Is(err, ErrShed) {
		t.Fatalf("admit with full queue: err = %v, want ErrShed", err)
	}
	if st := a.Stats(); st.ShedQueueFull != 1 || st.Queued != 1 {
		t.Fatalf("stats: %+v, want ShedQueueFull 1 Queued 1", st)
	}
	// A worker taking the request up frees its place.
	a.Start()
	if err := a.Admit(PriorityHigh); err != nil {
		t.Fatalf("admit after start: %v", err)
	}
}

func TestAdmissionDegradedShedsLowPriority(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{})
	a := c.Admission()
	a.slipWindow = 50 * time.Millisecond
	// A deadline slip puts the controller into degraded mode for the
	// slip window.
	c.Pacer().NoteSlip()
	if !a.Degraded() {
		t.Fatal("controller not degraded right after a slip")
	}
	if err := a.Admit(PriorityLow); !errors.Is(err, ErrShed) {
		t.Fatalf("low-priority admit while degraded: err = %v, want ErrShed", err)
	}
	if err := a.Admit(PriorityHigh); err != nil {
		t.Fatalf("high-priority admit while degraded: %v", err)
	}
	st := a.Stats()
	if st.ShedDegraded != 1 || st.DegradedEnters != 1 {
		t.Fatalf("stats: %+v, want ShedDegraded 1 DegradedEnters 1", st)
	}
	// Degraded mode expires with the slip window.
	deadline := time.Now().Add(5 * time.Second)
	for a.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("controller still degraded long after the slip window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := a.Admit(PriorityLow); err != nil {
		t.Fatalf("low-priority admit after recovery: %v", err)
	}
}

func TestAdmissionOccupancyDegrades(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{})
	a := c.Admission()
	// Pump the pacer's occupancy estimate past the red line without
	// touching the heap: NoteAlloc is the estimate's only input
	// between reconciles.
	c.Pacer().Reconcile(c.Pacer().emergency*9/10 + (1 << 20))
	if got := c.Pacer().OccupancyRatio(); got < redLine {
		t.Fatalf("occupancy ratio %v, want >= %v", got, redLine)
	}
	if err := a.Admit(PriorityLow); !errors.Is(err, ErrShed) {
		t.Fatalf("low-priority admit over the red line: err = %v, want ErrShed", err)
	}
	if err := a.Admit(PriorityHigh); err != nil {
		t.Fatalf("high-priority admit over the red line: %v", err)
	}
	// Dropping the estimate exits degraded mode.
	c.Pacer().Reconcile(0)
	if a.Degraded() {
		t.Fatal("controller degraded with an empty heap")
	}
}

func TestAdmissionDrainSheds(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{})
	a := c.Admission()
	if err := a.Admit(PriorityHigh); err != nil {
		t.Fatal(err)
	}
	a.BeginDrain()
	if err := a.Admit(PriorityHigh); !errors.Is(err, ErrShed) {
		t.Fatalf("admit after drain: err = %v, want ErrShed", err)
	}
	// The request queued before the drain is abandoned by a drain that
	// ran out of time.
	a.Abandon(PriorityHigh)
	st := a.Stats()
	if st.ShedDraining != 2 || st.Queued != 0 {
		t.Fatalf("stats: %+v, want ShedDraining 2 Queued 0", st)
	}
}

func TestAdmissionStopBeginsDrain(t *testing.T) {
	c, err := New(Config{Mode: Generational, Admission: &AdmissionConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if err := c.Admission().Admit(PriorityHigh); !errors.Is(err, errShedDraining) {
		t.Fatalf("Admit after Stop = %v, want a draining shed", err)
	}
}

func TestAdmissionConfigValidation(t *testing.T) {
	for _, bad := range []AdmissionConfig{
		{MaxQueue: -1},
		{MaxQueue: 1<<20 + 1},
	} {
		_, err := New(Config{Mode: Generational, Admission: &bad})
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Admission %+v: err = %v, want ErrInvalidConfig", bad, err)
		}
	}
}

func TestObserveRequestSLO(t *testing.T) {
	c, err := New(Config{Mode: Generational, RequestSLO: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.ObserveRequest(100 * time.Microsecond)
	c.ObserveRequest(5 * time.Millisecond)
	if got := c.RequestSLOBreaches(); got != 1 {
		t.Fatalf("RequestSLOBreaches = %d, want 1", got)
	}
	st := c.RequestStats()
	if st.Count != 2 || st.Mutator != -1 {
		t.Fatalf("RequestStats = %+v, want Count 2 Mutator -1", st)
	}
	if st.Max < 5*time.Millisecond {
		t.Fatalf("RequestStats.Max = %v, want >= 5ms", st.Max)
	}
}
