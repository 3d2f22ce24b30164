package modelcheck

import (
	"encoding/json"
	"fmt"
	"os"
)

// Replay is the serialized counterexample gcverify writes when a
// scenario fails: everything needed to re-execute the minimized
// schedule deterministically on another machine — the scenario name,
// the bounds and bug flag it was found under, and the choice sequence
// with the controlling prefix length. The file is the CI artifact
// OBSERVABILITY.md documents.
type Replay struct {
	Scenario  string   `json:"scenario"`
	Break     string   `json:"break,omitempty"` // "no-sync-accept" when found under the re-introduced bug
	Depth     int      `json:"depth"`
	Preempt   int      `json:"preempt"`
	Violation string   `json:"violation"`
	PrefixLen int      `json:"prefix_len"`
	Schedule  []Choice `json:"schedule"`
}

// NewReplay packages a report's violation for serialization.
func NewReplay(rep *Report, opts Options) *Replay {
	opts = opts.withDefaults()
	r := &Replay{
		Scenario:  rep.Scenario,
		Depth:     opts.Depth,
		Preempt:   opts.Preempt,
		Violation: rep.Violation.Message,
		PrefixLen: rep.Violation.PrefixLen,
		Schedule:  rep.Violation.Schedule,
	}
	if opts.BreakSyncAccept {
		r.Break = "no-sync-accept"
	}
	return r
}

// WriteFile serializes the replay as indented JSON.
func (r *Replay) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadReplay reads a replay file.
func LoadReplay(path string) (*Replay, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Replay{}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("replay %s: %w", path, err)
	}
	if r.Scenario == "" {
		return nil, fmt.Errorf("replay %s: no scenario name", path)
	}
	if r.PrefixLen < 0 || r.PrefixLen > len(r.Schedule) {
		return nil, fmt.Errorf("replay %s: prefix_len %d out of range (schedule has %d choices)",
			path, r.PrefixLen, len(r.Schedule))
	}
	return r, nil
}

// Run re-executes the replay's controlling prefix and reports the
// run's outcome. A reproduced violation comes back in
// RunResult.Violation; RunResult.PrefixMismatch flags a stale replay
// (the recorded choices no longer match the enabled sets, i.e. the
// code's step structure changed since the file was written).
func (r *Replay) Run() (*RunResult, error) {
	sc, err := ByName(r.Scenario)
	if err != nil {
		return nil, err
	}
	opts := Options{Depth: r.Depth, Preempt: r.Preempt}
	switch r.Break {
	case "":
	case "no-sync-accept":
		opts.BreakSyncAccept = true
	case "flush-before-ack":
		return nil, fmt.Errorf("replay: break mode %q was retired with the batched write barrier it broke; the file cannot be replayed", r.Break)
	default:
		return nil, fmt.Errorf("replay: unknown break mode %q", r.Break)
	}
	return runScenario(sc, r.Schedule[:r.PrefixLen], opts)
}
