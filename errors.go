package gengc

import (
	"gengc/internal/gc"
	"gengc/internal/heap"
)

// Sentinel errors. They are the targets for errors.Is on every error
// this package returns; the concrete error still carries the detail
// (the offending configuration field, the requesting mutator, the
// number of collections attempted).
var (
	// ErrInvalidConfig is wrapped by New and NewManual when the
	// configuration assembled from the options cannot be run: an
	// out-of-range field or an option combination the selected mode
	// does not support.
	ErrInvalidConfig = gc.ErrInvalidConfig

	// ErrOutOfMemory is wrapped by Alloc (and panicked by MustAlloc)
	// when the heap cannot satisfy an allocation even after repeated
	// full collections — the live set plus the request exceed the
	// configured heap.
	ErrOutOfMemory = heap.ErrOutOfMemory

	// ErrClosed is wrapped by allocation (and other mutator entry
	// points) when the runtime has been Closed: the collector no
	// longer runs, so an allocation that would need a collection can
	// never succeed.
	ErrClosed = gc.ErrClosed

	// ErrStalled is wrapped by AllocCtx when the context expires while
	// the mutator is waiting for a full collection to make room. The
	// returned error also wraps the context's error, so both
	// errors.Is(err, ErrStalled) and errors.Is(err,
	// context.DeadlineExceeded) hold.
	ErrStalled = gc.ErrStalled

	// ErrShed is wrapped by admission rejections (Runtime.Admission's
	// Admit, and internal consumers like the server engine) when the
	// admission controller armed with WithAdmission turns a request
	// away: queue full, degraded mode rejecting a low-priority request,
	// or a draining runtime. Sheds are backpressure, not failures — the
	// caller should drop the request or retry elsewhere, never spin.
	ErrShed = gc.ErrShed
)

// OOMPanic is the panic value of MustAlloc: a typed wrapper so that a
// recover site can distinguish heap exhaustion from an unrelated panic
// and still reach the underlying error chain (Err wraps
// ErrOutOfMemory, or ErrClosed when the runtime was shut down).
type OOMPanic struct {
	// Err is the allocation error MustAlloc would have returned.
	Err error
}

// Error makes the panic value readable when it escapes to a crash
// report.
func (p *OOMPanic) Error() string { return "gengc: MustAlloc: " + p.Err.Error() }

// Unwrap exposes the allocation error to errors.Is/errors.As.
func (p *OOMPanic) Unwrap() error { return p.Err }
