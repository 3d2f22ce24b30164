package workload

import (
	"errors"
	"testing"

	"gengc"
)

// TestSoakClosedRuntime: once the runtime is closed, Mix — run again on
// the mutator it already used — and AllocStorm come to rest with an
// error wrapping ErrClosed instead of panicking.
func TestSoakClosedRuntime(t *testing.T) {
	rt, err := gengc.NewManual(gengc.WithMode(gengc.Generational))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutator()
	defer m.Detach()
	mix := NewMix(rt, m, 1)
	if err := mix.Run(1000); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if err := mix.Run(1000); !errors.Is(err, gengc.ErrClosed) {
		t.Errorf("Mix on a closed runtime returned %v, want ErrClosed", err)
	}
	if err := AllocStorm(m, 1, 10); !errors.Is(err, gengc.ErrClosed) {
		t.Errorf("AllocStorm on a closed runtime returned %v, want ErrClosed", err)
	}
	if n := m.NumRoots(); n != mixWindow+96 {
		t.Errorf("root stack %d deep after two Mix runs and a storm, want %d", n, mixWindow+96)
	}
}

// TestParseMode: every spelling the commands' -mode flags accept
// parses to its collector.
func TestParseMode(t *testing.T) {
	for s, want := range map[string]gengc.Mode{"non": gengc.NonGenerational,
		"nongen": gengc.NonGenerational, "non-generational": gengc.NonGenerational,
		"gen": gengc.Generational, "generational": gengc.Generational,
		"simple": gengc.Generational, "aging": gengc.GenerationalAging} {
		if got, err := ParseMode(s); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("young"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}
