package gc

import (
	"errors"
	"runtime"
	"testing"

	"gengc/internal/fault"
)

// passiveSched is a minimal fault.Scheduler for configuration tests:
// it never reorders anything (every Step proceeds, every Wait spins the
// real scheduler).
type passiveSched struct{}

func (passiveSched) Step(fault.Point) fault.Decision { return fault.Decision{} }

func (passiveSched) Wait(_ fault.Point, ready func() bool) bool {
	for !ready() {
		runtime.Gosched()
	}
	return true
}

func schedTestConfig() Config {
	return Config{
		Mode:         Generational,
		HeapBytes:    1 << 20,
		YoungBytes:   256 << 10,
		CardBytes:    64,
		Scheduler:    passiveSched{},
		StallTimeout: -1,
	}
}

// TestDroppedCooperateLeavesResponseUnmade: a Cooperate that the
// injector turns into a missed safe point must leave the whole response
// unmade — neither the posted status adopted nor the acknowledgement
// stored, so the collector keeps waiting — and the next safe point must
// deliver both.
func TestDroppedCooperateLeavesResponseUnmade(t *testing.T) {
	inj := fault.New(1)
	inj.Install(fault.Rule{Point: fault.Cooperate, Kind: fault.Drop, Count: 1})
	cfg := schedTestConfig()
	cfg.Scheduler = nil
	cfg.Fault = inj
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := c.NewMutator()
	defer m.Detach()
	c.postHandshake(StatusSync1)
	c.ackEpoch.Add(1)

	m.Cooperate() // dropped
	if Status(m.status.Load()) != StatusAsync {
		t.Fatal("dropped Cooperate adopted the posted status")
	}
	if m.ack.Load() == c.ackEpoch.Load() {
		t.Fatal("dropped Cooperate stored the acknowledgement")
	}
	if !m.PendingResponse() {
		t.Fatal("a dropped response is no longer pending")
	}

	m.Cooperate() // the rule is spent: the response happens
	if Status(m.status.Load()) != StatusSync1 {
		t.Fatal("second Cooperate did not adopt the posted status")
	}
	if m.ack.Load() != c.ackEpoch.Load() {
		t.Fatal("second Cooperate did not store the acknowledgement")
	}
	if got := inj.Fired(fault.Cooperate); got != 1 {
		t.Fatalf("drop rule fired %d times, want 1", got)
	}
}

// TestSchedulerConfigValidation: the virtual-scheduler seam is a
// verification-only configuration and must refuse the combinations the
// harness cannot serialize.
func TestSchedulerConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"scheduler-with-fault", func(cfg *Config) { cfg.Fault = fault.New(1) }},
		{"break-without-scheduler", func(cfg *Config) {
			cfg.Scheduler = nil
			cfg.UnsafeBreakSyncAccept = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := schedTestConfig()
			tc.mut(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("New() error = %v, want ErrInvalidConfig", err)
			}
		})
	}
	// And the supported shape works.
	cfg := schedTestConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("valid scheduler config rejected: %v", err)
	}
	m := c.NewMutator()
	if _, err := m.Alloc(1, 0); err != nil {
		t.Fatal(err)
	}
	m.Detach()
}
