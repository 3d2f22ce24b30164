package modelcheck

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testOptions are the in-tree bounds: preemption bound 1 keeps the
// single-mutator scenarios' explorations in the tens-to-hundreds of
// runs, and every needle in the catalog reproduces with a single
// preemption. sync-store-race carries a bystander mutator whose
// response orderings put its preempt-1 space at ~20k runs, so the
// in-tree test explores it at preemption bound 0 (every forced-switch
// ordering, no perturbations) and the full bound runs in the
// verify-protocol make target and CI job via cmd/gcverify.
func testOptions(sc *Scenario) Options {
	o := Options{Depth: 400, Preempt: 1, MaxRuns: 4000}
	if sc.Name == "sync-store-race" {
		o.Preempt = 0
	}
	return o
}

// cleanReports memoizes each scenario's exploration on the unbroken
// collector at the in-tree bounds: TestDeterminism's first leg is the
// exploration TestExploreClean already paid for. (No test here runs in
// parallel, so a plain map does.)
var cleanReports = map[string]*Report{}

func exploreClean(t *testing.T, sc *Scenario) *Report {
	t.Helper()
	if rep, ok := cleanReports[sc.Name]; ok {
		return rep
	}
	rep, err := Explore(sc, testOptions(sc))
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	cleanReports[sc.Name] = rep
	return rep
}

// TestDefaultRun: the unperturbed schedule of every scenario completes
// cleanly — no violation, no deadlock, under the depth bound.
func TestDefaultRun(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := runScenario(sc, nil, testOptions(sc))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Violation != "" {
				t.Fatalf("default schedule violated: %s\nschedule: %v", res.Violation, res.Schedule())
			}
			if res.DepthCapped {
				t.Fatalf("default schedule hit the depth cap at %d steps", res.Steps)
			}
			t.Logf("steps=%d vtime=%v", res.Steps, res.VTime)
		})
	}
}

// TestExploreClean: bounded-exhaustive enumeration of every scenario
// finds no violation on the unbroken collector.
func TestExploreClean(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rep := exploreClean(t, sc)
			if rep.Violation != nil {
				t.Fatalf("violation after %d runs: %s\nschedule: %v",
					rep.Runs, rep.Violation.Message, rep.Violation.Schedule)
			}
			if rep.Truncated {
				t.Fatalf("exploration truncated at %d runs — bounds too small for the space", rep.Runs)
			}
			if rep.PrefixMismatches != 0 {
				t.Fatalf("%d prefix mismatches — runs are not deterministic", rep.PrefixMismatches)
			}
			if rep.Runs < 2 {
				t.Fatalf("only %d runs — the explorer found no alternatives to try", rep.Runs)
			}
			t.Logf("runs=%d sleepPruned=%d preemptSkipped=%d maxSteps=%d maxVTime=%v",
				rep.Runs, rep.SleepPruned, rep.PreemptSkipped, rep.MaxSteps, rep.MaxVTime)
		})
	}
}

// TestBreakNoSyncAccept: dropping §7.1's allocation-color acceptance
// from the sync-window barrier must be caught, minimized, and the
// written replay must reproduce the violation. The needle needs the
// full preemption bound (the store has to land in the yellow window),
// and it must stay a needle: the exploration passes a thousand
// schedules before the one that fails, so the negative leg cannot
// quietly degrade into "every schedule trips".
func TestBreakNoSyncAccept(t *testing.T) {
	sc, err := ByName("sync-store-race")
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(sc)
	opts.Preempt = 1
	opts.BreakSyncAccept = true
	rep, err := Explore(sc, opts)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Violation == nil {
		t.Fatalf("the removed §7.1 acceptance was not caught in %d runs", rep.Runs)
	}
	if rep.Runs < 1000 {
		t.Fatalf("violation after only %d runs — the needle no longer needs a specific interleaving", rep.Runs)
	}
	v := rep.Violation
	t.Logf("caught after %d runs: %s", rep.Runs, v.Message)
	t.Logf("minimized prefix %d of %d choices (%d minimization runs)", v.PrefixLen, len(v.Schedule), v.MinRuns)
	if v.PrefixLen > len(v.Schedule) {
		t.Fatalf("prefix %d longer than schedule %d", v.PrefixLen, len(v.Schedule))
	}

	// Round-trip through the replay file and reproduce.
	path := filepath.Join(t.TempDir(), "replay.json")
	r := NewReplay(rep, opts)
	if err := r.WriteFile(path); err != nil {
		t.Fatalf("write replay: %v", err)
	}
	r2, err := LoadReplay(path)
	if err != nil {
		t.Fatalf("load replay: %v", err)
	}
	if !reflect.DeepEqual(r, r2) {
		t.Fatalf("replay round trip mismatch:\nwrote %+v\nread  %+v", r, r2)
	}
	res, err := r2.Run()
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if res.PrefixMismatch {
		t.Fatalf("replay prefix no longer matches the enabled sets")
	}
	if res.Violation == "" {
		t.Fatalf("replay did not reproduce the violation")
	}
	t.Logf("replay reproduced: %s", res.Violation)
}

// TestReplayRetiredBreak: a replay file recorded under the retired
// flush-before-ack break mode is refused with a message that says the
// mode is gone, not that it is unknown.
func TestReplayRetiredBreak(t *testing.T) {
	for mode, want := range map[string]string{
		"flush-before-ack": "retired",
		"no-such-break":    "unknown",
	} {
		r := &Replay{Scenario: "sync-store-race", Break: mode}
		if _, err := r.Run(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("break %q: err = %v, want one mentioning %q", mode, err, want)
		}
	}
}

// TestDeterminism: two explorations of the same scenario agree run for
// run — the whole harness is a pure function of the choice sequences.
func TestDeterminism(t *testing.T) {
	sc, err := ByName("sync-store-race")
	if err != nil {
		t.Fatal(err)
	}
	a := exploreClean(t, sc)
	b, err := Explore(sc, testOptions(sc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical explorations disagree:\nfirst  %+v\nsecond %+v", a, b)
	}
}

// TestByName covers the registry's error paths: an unknown name, and a
// retired one (a stale -scenario flag or replay file), which must say so.
func TestByName(t *testing.T) {
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("expected an error for an unknown scenario")
	}
	if _, err := ByName("remset-drain"); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("retired scenario: err = %v, want one mentioning \"retired\"", err)
	}
	if _, err := (&Replay{Scenario: "remset-drain"}).Run(); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("retired scenario replay: err = %v, want one mentioning \"retired\"", err)
	}
	for _, sc := range Scenarios() {
		got, err := ByName(sc.Name)
		if err != nil || got.Name != sc.Name {
			t.Fatalf("ByName(%q) = %v, %v", sc.Name, got, err)
		}
	}
}
