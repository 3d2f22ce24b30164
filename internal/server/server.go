// Package server is the request/response engine that reframes the
// collector as the memory engine of a long-running daemon: simulated
// requests allocate object graphs under AllocCtx deadlines on a pool of
// worker-owned mutators, an open-loop load generator (loadgen.go)
// drives Poisson arrivals with periodic bursts, and the runtime's
// admission controller (gengc.WithAdmission) converts overload into
// prompt sheds instead of SLO collapse or OOM. The repository
// benchmark's server_overload workload measures it under open-loop
// overload, cmd/gcchaos's serverstorm campaign under injected faults,
// and TestOverloadAdmissionContrast sets an admitted leg against a
// naive one at three times capacity; DESIGN.md §"Server mode &
// admission control" has the control-loop picture.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gengc"
)

// Config parameterizes a Server. Zero fields assume the defaults.
type Config struct {
	// Workers is the number of request-worker goroutines; each owns
	// one mutator for its lifetime. Default 4.
	Workers int

	// QueueCap is the request channel's buffer without an admission
	// controller (the naive leg of the overload experiment): submitters
	// block once it fills, modeling a server that keeps accepting work
	// it cannot finish. Unused with admission armed. Default 65536.
	QueueCap int

	// SessionObjects is how many completed request graphs each worker
	// keeps rooted (a ring evicting the oldest) — the daemon's
	// session/cache state, which is what gives requests a live set to
	// collect against. Default 32.
	SessionObjects int

	// Deprecated: Seed has no effect; the server draws no random
	// numbers.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 1 << 16
	}
	if c.SessionObjects == 0 {
		c.SessionObjects = 32
	}
	return c
}

// Request is one unit of work: allocate a linked graph of Objects
// objects (Slots pointer slots and Size payload bytes each) under a
// latency budget.
type Request struct {
	// Priority classifies the request for degraded-mode shedding.
	Priority gengc.Priority

	// Objects, Slots and Size shape the allocated graph: a chain of
	// Objects objects, each with Slots pointer slots (slot 0 links the
	// chain) and at least Size payload bytes.
	Objects int
	Slots   int
	Size    int

	// Deadline is the end-to-end latency budget, measured from
	// arrival: queue wait counts against it, a request still queued
	// when it runs out is dropped unserved, and the allocation context
	// expires with it. 0 means no deadline (the naive leg).
	Deadline time.Duration

	arrival time.Time
}

// Stats is the server's cumulative counter snapshot.
type Stats struct {
	// Submitted counts Submit calls; Shed the ones rejected by the
	// admission controller (wrapping gengc.ErrShed) or accepted and
	// later dropped unserved — expired in the queue, or left there by
	// a drain that ran out of time; Rejected the ones refused because
	// the server was draining.
	Submitted int64
	Shed      int64
	Rejected  int64

	// Completed counts requests whose graph was fully allocated.
	Completed int64

	// Deprecated: Retries is always 0; the server never re-runs a
	// request.
	Retries int64

	// FailedStalled counts requests whose deadline passed while being
	// served (ErrStalled, or expiry between two allocations); FailedOOM
	// failed on heap exhaustion; FailedClosed on runtime shutdown. After Drain, Shed + Rejected + Completed and
	// the three failure counts sum to Submitted.
	FailedStalled int64
	FailedOOM     int64
	FailedClosed  int64
}

// Server is the request engine: Workers goroutines, each owning one
// mutator, popping accepted requests newest-first off a stack bounded by
// the admission controller — or, without one, from a FIFO channel.
type Server struct {
	rt  *gengc.Runtime
	adm *gengc.Admission
	cfg Config

	// mu guards draining and stack. Submit holds it across its whole
	// decision, so no request enters once Drain has set draining. ready
	// wakes one idle worker per push and all of them at drain.
	mu       sync.Mutex
	draining bool
	stack    []Request
	ready    sync.Cond

	// reqCh is the no-admission leg's FIFO; sending counts the Submit
	// calls between the draining check and their send, which Drain
	// waits out before closing it.
	reqCh   chan Request
	sending sync.WaitGroup

	workers sync.WaitGroup

	submitted atomic.Int64
	shed      atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	fStalled  atomic.Int64
	fOOM      atomic.Int64
	fClosed   atomic.Int64
}

// New builds a server over rt and starts its workers. The caller keeps
// ownership of nothing: Drain flushes in-flight work and closes rt.
func New(rt *gengc.Runtime, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{rt: rt, adm: rt.Admission(), cfg: cfg}
	s.ready.L = &s.mu
	if s.adm == nil {
		s.reqCh = make(chan Request, cfg.QueueCap)
	}
	for range cfg.Workers {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Runtime returns the runtime the server allocates against.
func (s *Server) Runtime() *gengc.Runtime { return s.rt }

// Submit offers one request. The request's latency clock starts now —
// queue wait and allocation both count against its Deadline and its
// recorded latency. The error wraps gengc.ErrShed when the admission
// controller turned the request away and gengc.ErrClosed when the server
// is draining. With admission armed Submit never blocks, and a request
// it accepts is still dropped unserved if its deadline passes before a
// worker takes it up (Stats.Shed counts it). Without admission Submit
// blocks while the request channel is full (the naive overload mode).
func (s *Server) Submit(req Request) error {
	req.arrival = time.Now()
	s.submitted.Add(1)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Add(1)
		return fmt.Errorf("server: draining: %w", gengc.ErrClosed)
	}
	if s.adm == nil {
		s.sending.Add(1)
		s.mu.Unlock()
		s.reqCh <- req
		s.sending.Done()
		return nil
	}
	if err := s.adm.Admit(req.Priority); err != nil {
		s.mu.Unlock()
		s.shed.Add(1)
		return err
	}
	s.stack = append(s.stack, req)
	s.mu.Unlock()
	s.ready.Signal()
	return nil
}

// take blocks for the next request to serve; false once the server is
// draining and nothing is left. With admission it pops the newest
// request, dropping without allocation any whose deadline has passed:
// under sustained overload the workers serve fresh requests off the top
// while stale ones at the bottom expire unserved, as in a FIFO.
func (s *Server) take() (Request, bool) {
	if s.adm == nil {
		req, ok := <-s.reqCh
		return req, ok
	}
	for {
		s.mu.Lock()
		for len(s.stack) == 0 && !s.draining {
			s.ready.Wait()
		}
		n := len(s.stack) - 1
		if n < 0 {
			s.mu.Unlock()
			return Request{}, false
		}
		req := s.stack[n]
		s.stack = s.stack[:n]
		s.mu.Unlock()
		if req.Deadline == 0 || time.Since(req.arrival) < req.Deadline {
			s.adm.Start()
			return req, true
		}
		s.adm.Expire(req.Priority)
		s.shed.Add(1)
	}
}

// worker serves requests until the server drains. Each worker owns one
// mutator and a session ring of rooted request graphs — the live set
// that makes collection matter.
func (s *Server) worker() {
	defer s.workers.Done()
	m := s.rt.NewMutator()
	defer m.Detach()

	// The session ring: root slots cycling over the last
	// SessionObjects completed graph heads.
	ring := make([]int, 0, s.cfg.SessionObjects)
	next := 0

	for {
		req, ok := s.take()
		if !ok {
			return
		}
		head, err := s.process(m, req)
		if err == nil {
			s.completed.Add(1)
			s.rt.ObserveRequest(time.Since(req.arrival))
			if len(ring) < cap(ring) {
				ring = append(ring, m.PushRoot(head))
			} else {
				m.SetRoot(ring[next], head)
				next = (next + 1) % len(ring)
			}
		} else {
			switch {
			case errors.Is(err, gengc.ErrStalled), errors.Is(err, context.DeadlineExceeded):
				s.fStalled.Add(1)
			case errors.Is(err, gengc.ErrOutOfMemory):
				s.fOOM.Add(1)
			case errors.Is(err, gengc.ErrClosed):
				s.fClosed.Add(1)
			}
		}
		if s.adm != nil {
			s.adm.Finish()
		}
		m.Safepoint()
	}
}

// process allocates one request's graph under its deadline and returns
// the graph head for the caller to root. A failure is final: AllocCtx
// returns ErrStalled only once the deadline has passed, so no retry
// could succeed.
func (s *Server) process(m *gengc.Mutator, req Request) (gengc.Ref, error) {
	ctx := context.Background()
	if req.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, req.arrival.Add(req.Deadline))
		defer cancel()
	}
	return s.buildGraph(ctx, m, req)
}

// buildGraph allocates the request's object chain: head first, each
// further object linked through slot 0 of its predecessor. The head is
// rooted for the duration so a collection mid-build cannot reclaim the
// partial graph.
func (s *Server) buildGraph(ctx context.Context, m *gengc.Mutator, req Request) (gengc.Ref, error) {
	slots := req.Slots
	if slots < 1 {
		slots = 1
	}
	head, err := m.AllocCtx(ctx, slots, req.Size)
	if err != nil {
		return gengc.Nil, err
	}
	m.PushRoot(head)
	defer m.PopRoots(1)
	prev := head
	for i := 1; i < req.Objects; i++ {
		obj, err := m.AllocCtx(ctx, slots, req.Size)
		if err != nil {
			return gengc.Nil, err
		}
		m.Write(prev, 0, obj)
		prev = obj
		if i&15 == 0 {
			m.Safepoint()
		}
	}
	return head, nil
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Submitted:     s.submitted.Load(),
		Shed:          s.shed.Load(),
		Rejected:      s.rejected.Load(),
		Completed:     s.completed.Load(),
		FailedStalled: s.fStalled.Load(),
		FailedOOM:     s.fOOM.Load(),
		FailedClosed:  s.fClosed.Load(),
	}
}

// Drain shuts the server down gracefully: stop admitting (new Submit
// calls fail with gengc.ErrClosed), let the workers serve or expire
// every accepted request, then close the runtime. ctx bounds the wait:
// on expiry the requests still on the stack are dropped as draining
// sheds (the channel's backlog, without admission, is served anyway)
// and Drain returns ctx's error, the runtime closed all the same.
// Calls after the first return immediately.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	if s.adm == nil {
		s.sending.Wait()
		close(s.reqCh)
	} else {
		s.adm.BeginDrain()
		s.ready.Broadcast()
	}

	stopped := make(chan struct{})
	go func() { s.workers.Wait(); close(stopped) }()
	var err error
	select {
	case <-stopped:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain: %w", ctx.Err())
		if s.adm != nil {
			s.mu.Lock()
			left := s.stack
			s.stack = nil
			s.mu.Unlock()
			for _, req := range left {
				s.adm.Abandon(req.Priority)
			}
			s.shed.Add(int64(len(left)))
		}
		<-stopped
	}
	s.rt.Close()
	return err
}
