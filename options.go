package gengc

import "time"

// Option configures a Runtime under construction. Options apply in
// order over the paper's defaults (32 MB heap, 4 MB young generation,
// 16-byte cards, simple promotion), so later options override earlier
// ones and WithConfig can seed the whole configuration before per-field
// options refine it.
type Option func(*Config)

// WithConfig replaces the entire configuration with cfg. It is the
// bridge from the previous struct-literal API: New(WithConfig(cfg)) is
// equivalent to the old New(cfg). Options after it still apply.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithMode selects the collector variant (NonGenerational,
// Generational, GenerationalAging).
func WithMode(m Mode) Option {
	return func(c *Config) { c.Mode = m }
}

// WithHeapBytes sets the heap size; the paper's maximum is 32 MB. The
// full-collection trigger is derived from it — forced at 75 % of the
// heap, adaptive from min(4 MB, that bound) up — so any heap that holds
// the young generation (WithYoungBytes) is a valid configuration.
func WithHeapBytes(n int) Option {
	return func(c *Config) { c.HeapBytes = n }
}

// WithYoungBytes sets the young-generation size parameter (§3.3): a
// partial collection triggers once this many bytes have been allocated
// since the previous collection.
func WithYoungBytes(n int) Option {
	return func(c *Config) { c.YoungBytes = n }
}

// WithCardBytes sets the card size: 16 is the paper's "object marking",
// 4096 its "block marking".
func WithCardBytes(n int) Option {
	return func(c *Config) { c.CardBytes = n }
}

// WithOldAge sets the aging tenure threshold (GenerationalAging only):
// the number of collections an object must survive before promotion.
func WithOldAge(n int) Option {
	return func(c *Config) { c.OldAge = n }
}

// WithTraceSink streams the collector's structured events — cycle,
// handshake, drain, sweep and card-scan spans plus mutator pauses — to
// sink. Events are buffered in per-producer rings and drained at the
// end of every cycle and at Close, so emitting costs the hot paths one
// array store. Use NewJSONLTraceSink to produce the JSONL format that
// cmd/gcreport renders into the paper-style figures.
func WithTraceSink(sink TraceSink) Option {
	return func(c *Config) { c.TraceSink = sink }
}

// WithFlightRecorder arms the anomaly flight recorder with a ring of
// the last n trace events. The ring records continuously at near-zero
// cost (it taps the same per-producer ring + cycle-drain path as
// WithTraceSink, ahead of that sink and unaffected by its failures);
// when an anomaly fires — a stall report, an aborted cycle, an
// allocation giving up with ErrOutOfMemory or ErrStalled, a
// WithPauseSLO breach — the ring and a Snapshot freeze into a dump
// retrievable via Runtime.FlightRecorder (and servable by cmd/gcmon's
// /flightrecorder/dump). Zero (the default) disables the recorder.
func WithFlightRecorder(n int) Option {
	return func(c *Config) { c.FlightRecorderEvents = n }
}

// WithPauseSLO declares a mutator pause service-level objective: every
// recorded pause longer than d raises Snapshot.SLOBreaches and triggers
// a flight-recorder dump when one is armed (WithFlightRecorder).
// Zero disables SLO accounting.
func WithPauseSLO(d time.Duration) Option {
	return func(c *Config) { c.PauseSLO = d }
}

// WithStallTimeout sets the handshake watchdog's deadline: when a
// mutator has not responded to a pending handshake or acknowledgement
// round within d, the collector reports a stall (the "stall" trace
// event, the Snapshot.Stalls counter and the OnStall callback) — once
// per mutator per wait — and keeps waiting. Zero keeps the 1s default;
// New rejects a negative d with ErrInvalidConfig. The deadline also
// bounds how long Close waits for a wedged handshake before abandoning
// the cycle.
func WithStallTimeout(d time.Duration) Option {
	return func(c *Config) { c.StallTimeout = d }
}

// WithFaultInjector arms deterministic fault injection: in decides at
// each named injection point (see FaultPoint) whether to delay, drop or
// fail the operation. Nil (the default) disables injection; the hot
// paths then pay one pointer comparison.
func WithFaultInjector(in *FaultInjector) Option {
	return func(c *Config) { c.Fault = in }
}

// WithAdmission arms the runtime's admission controller: the door in
// front of a bounded queue of waiting requests (cfg.MaxQueue; zero
// assumes 256), plus a degraded mode that sheds low-priority requests
// while the runtime is in trouble — heap occupancy at 90 % of the
// emergency full-collection bound, or an allocation deadline slipped
// within the last 250 ms. Both thresholds are fixed. The door never
// blocks: a request is queued or rejected at once, rejections wrap
// ErrShed, and each request's own deadline bounds its wait in the
// queue (internal/server's workers serve the newest request first and
// drop expired ones). Counters surface in Snapshot.Admission and the
// Prometheus exposition. The controller sheds *before* the heap
// reaches the emergency trigger — backpressure instead of
// ErrOutOfMemory.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(c *Config) { c.Admission = &cfg }
}

// WithRequestSLO declares a per-request latency objective for request
// latencies fed to Runtime.ObserveRequest: each observation is recorded
// into the request-latency histogram (Snapshot.RequestLatency — end to
// end, distinct from the per-pause histograms), and every observation
// longer than d raises Snapshot.RequestSLOBreaches and triggers a
// flight-recorder dump when one is armed. Zero disables the SLO but
// WithAdmission alone still enables the request histogram.
func WithRequestSLO(d time.Duration) Option {
	return func(c *Config) { c.RequestSLO = d }
}

// buildConfig folds the options over a zero Config (whose zero fields
// later assume the paper's defaults).
func buildConfig(opts []Option) Config {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}
