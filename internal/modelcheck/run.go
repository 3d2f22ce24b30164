package modelcheck

import (
	"fmt"
	"time"

	"gengc/internal/gc"
)

// Choice identifies one scheduling decision: which actor to resume at
// a level, and whether to hand it a Drop decision (the enumerable
// "missed safe point" branch at points with a drop budget). Label is
// the park label the actor was resumed from — a fault-point name like
// "cooperate" or a driver op label — recorded so replays are readable
// and so drop budgets can be keyed by point.
type Choice struct {
	Actor string `json:"actor"`
	Label string `json:"label"`
	Drop  bool   `json:"drop,omitempty"`
}

func (c Choice) String() string {
	if c.Drop {
		return c.Actor + "@" + c.Label + "!drop"
	}
	return c.Actor + "@" + c.Label
}

// Options bound one exploration (and one run).
type Options struct {
	// Depth caps the steps of a single run; past it the run is
	// unwound and counted, not failed. The backstop against scenarios
	// that diverge — bounded-exhaustive means exhaustive within Depth
	// and Preempt.
	Depth int

	// Preempt is the preemption budget (CHESS-style): resuming an
	// actor other than the one that just ran, while that one is still
	// enabled, costs one preemption; forced switches (the running
	// actor blocked or finished) are free. Empirically almost all
	// protocol bugs need very few preemptions; the budget is what
	// makes enumeration tractable.
	Preempt int

	// MaxRuns is the exploration's run-count safety cap.
	MaxRuns int

	// BreakSyncAccept removes §7.1's allocation-color acceptance from
	// the sync-window barrier (gc.NewScheduled's breakSyncAccept) so
	// the harness can demonstrate a catch.
	BreakSyncAccept bool
}

// withDefaults fills the standard bounds.
func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = 400
	}
	if o.Preempt < 0 {
		o.Preempt = 0
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 5000
	}
	return o
}

// levelInfo records one scheduling level of a completed run: the
// enabled choices (canonical order), the one taken, and who was
// running before — what the explorer needs to enumerate alternatives
// and price preemptions without re-running.
type levelInfo struct {
	Choices     []Choice
	Taken       Choice
	Prev        string // actor resumed at the previous level ("" at level 0)
	PrevEnabled bool   // that actor is among Choices (so switching away costs a preemption)
}

// RunResult is one schedule's outcome.
type RunResult struct {
	Levels      []levelInfo
	Violation   string // "" = clean
	ViolationAt int    // level index of the violation (len(Levels)-1)
	Deadlock    bool
	DepthCapped bool
	Steps       int
	Preemptions int

	// VTime is the schedule's virtual waiting time: one gc.WaitTick
	// per blocked-wait resume. A real wait resumes when a response
	// wakes it or, if the wake is lost, one tick later (gc/sched.go),
	// so VTime bounds what the schedule's waits would cost on the wall
	// clock with every wake lost. Steps are not charged.
	VTime time.Duration

	// PrefixMismatch notes a replayed prefix choice that was not
	// enabled (a stale replay file against changed code); the run
	// fell back to the default policy at that level.
	PrefixMismatch bool
}

// Schedule returns the taken choices, one per level.
func (r *RunResult) Schedule() []Choice {
	s := make([]Choice, len(r.Levels))
	for i := range r.Levels {
		s[i] = r.Levels[i].Taken
	}
	return s
}

// runScenario executes one schedule: fresh collector, scenario setup
// with the seam off, then the controller loop steered by prefix and
// finished by the default policy.
func runScenario(sc *Scenario, prefix []Choice, opts Options) (*RunResult, error) {
	opts = opts.withDefaults()
	vs := NewVirtualScheduler()
	c, err := gc.NewScheduled(sc.Config(), vs, opts.BreakSyncAccept)
	if err != nil {
		return nil, fmt.Errorf("modelcheck: %s: config: %w", sc.Name, err)
	}
	env := newEnv(c, vs)
	if err := sc.Setup(env); err != nil {
		return nil, fmt.Errorf("modelcheck: %s: setup: %w", sc.Name, err)
	}
	for _, name := range sc.Mutators {
		env.Muts[name] = c.NewMutator()
	}
	for _, ad := range sc.Actors {
		run := ad.Run
		vs.spawn(ad.Name, func() error { return run(env) })
	}
	vs.on.Store(true)
	res := runController(vs, sc, env, prefix, opts)
	return res, nil
}

// runController is the scheduling loop: at each level it computes the
// enabled choice set, picks (prefix, then default policy), resumes the
// chosen actor, receives its next park, and runs the per-step
// invariants. It returns after a clean completion or an unwind.
func runController(vs *VirtualScheduler, sc *Scenario, env *Env, prefix []Choice, opts Options) *RunResult {
	res := &RunResult{}
	// Collect the initial parks: every spawned actor announces itself
	// before the first level.
	for i := 0; i < len(vs.actors); i++ {
		<-vs.parkC
	}
	var prev *actor
	dropBudget := make(map[string]int, len(sc.DropPoints))
	for k, v := range sc.DropPoints {
		dropBudget[k] = v
	}
	unwound := false
	for {
		// Enabled choices in canonical order: actors in registration
		// order, the non-drop choice before the drop variant.
		var choices []Choice
		enabled := make(map[string]*actor)
		allDone := true
		for _, a := range vs.actors {
			if a.kind == parkDone {
				continue
			}
			allDone = false
			if a.kind == parkWait && !a.ready() {
				continue
			}
			enabled[a.name] = a
			choices = append(choices, Choice{Actor: a.name, Label: a.label})
			if a.kind != parkWait && dropBudget[a.label] > 0 {
				choices = append(choices, Choice{Actor: a.name, Label: a.label, Drop: true})
			}
		}
		if allDone {
			break
		}
		if len(choices) == 0 {
			res.Violation = "deadlock: no actor enabled (" + parkSummary(vs) + ")"
			res.ViolationAt = len(res.Levels)
			res.Deadlock = true
			unwind(vs)
			unwound = true
			break
		}
		if res.Steps >= opts.Depth {
			res.DepthCapped = true
			unwind(vs)
			unwound = true
			break
		}

		lv := levelInfo{Choices: choices}
		if prev != nil {
			lv.Prev = prev.name
			_, lv.PrevEnabled = enabled[prev.name]
		}
		pick, ok := Choice{}, false
		if len(res.Levels) < len(prefix) {
			want := prefix[len(res.Levels)]
			for _, ch := range choices {
				if ch == want {
					pick, ok = ch, true
					break
				}
			}
			if !ok {
				res.PrefixMismatch = true
			}
		}
		if !ok {
			// Default policy: keep running the current actor (its
			// non-drop choice) — zero preemptions by construction —
			// else the first enabled choice (a forced switch).
			if prev != nil {
				if a, on := enabled[prev.name]; on {
					pick, ok = Choice{Actor: a.name, Label: a.label}, true
				}
			}
			if !ok {
				pick = choices[0]
			}
		}
		lv.Taken = pick
		res.Levels = append(res.Levels, lv)
		if lv.PrevEnabled && pick.Actor != lv.Prev {
			res.Preemptions++
		}
		if pick.Drop {
			dropBudget[pick.Label]--
		}

		a := enabled[pick.Actor]
		vs.current = a
		res.Steps++
		if a.kind == parkWait {
			res.VTime += gc.WaitTick
		}
		msg := resumeMsg{ok: true}
		if pick.Drop {
			msg.dec.Drop = true
		}
		a.resume <- msg
		<-vs.parkC // the resumed actor's next park (or its done announce)
		prev = a

		if err := stepInvariants(sc, env, pick); err != nil {
			res.Violation = err.Error()
			res.ViolationAt = len(res.Levels) - 1
			unwind(vs)
			unwound = true
			break
		}
	}
	if !unwound {
		// Clean completion: actor errors and the scenario's end-state
		// assertions (needles, full Verify) are violations too.
		vs.on.Store(false)
		for _, a := range vs.actors {
			if a.err != nil {
				res.Violation = "actor " + a.name + ": " + a.err.Error()
				res.ViolationAt = len(res.Levels)
				return res
			}
		}
		if sc.AtEnd != nil {
			if err := sc.AtEnd(env); err != nil {
				res.Violation = "at end: " + err.Error()
				res.ViolationAt = len(res.Levels)
			}
		}
	}
	return res
}

// stepInvariants runs the shared invariants after every step: the
// lost-object check always (valid at any step), the no-reachable-clear
// check at sweep-shard steps (valid only between trace fixpoint and end
// of sweep), plus the scenario's own AfterStep.
func stepInvariants(sc *Scenario, env *Env, step Choice) error {
	if step.Drop {
		// A dropped operation changes no state worth re-auditing.
		return nil
	}
	if err := env.C.CheckReachableAllocated(); err != nil {
		return fmt.Errorf("after %v: %w", step, err)
	}
	if step.Label == "sweep-shard" {
		if err := env.C.CheckNoReachableClear(); err != nil {
			return fmt.Errorf("after %v: %w", step, err)
		}
	}
	if sc.AfterStep != nil {
		if err := sc.AfterStep(env, step); err != nil {
			return fmt.Errorf("after %v: %w", step, err)
		}
	}
	return nil
}

// unwind abandons the run: every parked actor is resumed with the
// abandonment verdict (Waits return false, steps a zero decision) and
// the seam is turned off, so the actors run concurrently-for-real to
// completion — the collector aborts its cycle through the close-abort
// path, drivers stop their scripts and detach. The run's outcome is
// already decided; the unwind only reclaims the goroutines.
func unwind(vs *VirtualScheduler) {
	vs.aborted.Store(true)
	vs.on.Store(false)
	done := 0
	for _, a := range vs.actors {
		if a.kind == parkDone {
			done++
			continue
		}
		a.resume <- resumeMsg{ok: false}
	}
	for done < len(vs.actors) {
		a := <-vs.parkC
		if a.kind == parkDone {
			done++
			continue
		}
		// An actor that raced a park announcement against the seam
		// going off; release it.
		a.resume <- resumeMsg{ok: false}
	}
}

// parkSummary describes every live actor's park for deadlock reports.
func parkSummary(vs *VirtualScheduler) string {
	s := ""
	for _, a := range vs.actors {
		if a.kind == parkDone {
			continue
		}
		if s != "" {
			s += ", "
		}
		kind := "step"
		if a.kind == parkWait {
			kind = "wait"
		}
		s += fmt.Sprintf("%s %s@%s", a.name, kind, a.label)
	}
	return s
}
