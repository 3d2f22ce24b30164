package gengc

import (
	"testing"
)

// TestSmokeAllModes allocates a linked structure, drops parts of it, and
// runs collections under each collector mode, verifying that live data
// survives and garbage is reclaimed.
func TestSmokeAllModes(t *testing.T) {
	for _, mode := range []Mode{NonGenerational, Generational, GenerationalAging} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rt, err := NewManual(WithMode(mode), WithHeapBytes(4<<20))
			if err != nil {
				t.Fatal(err)
			}
			m := rt.NewMutator()

			// Build a list of 1000 nodes, each with a payload.
			head := m.MustAlloc(2, 0)
			root := m.PushRoot(head)
			cur := head
			for i := 0; i < 999; i++ {
				n := m.MustAlloc(2, 0)
				p := m.MustAlloc(0, 48)
				m.Write(n, 1, p)
				m.Write(cur, 0, n)
				cur = n
			}
			// Verify is a publication point: the object total is exact
			// after it (before it, it trails by up to a block).
			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}
			before := rt.HeapObjects()
			if before < 1999 {
				t.Fatalf("allocated %d objects, want >= 1999", before)
			}

			// Collect with everything live: nothing may disappear.
			done := make(chan struct{})
			go func() { rt.Collect(true); close(done) }()
			for {
				select {
				case <-done:
				default:
					m.Safepoint()
					continue
				}
				break
			}
			if got := rt.HeapObjects(); got < before {
				t.Fatalf("full collection freed live objects: %d -> %d", before, got)
			}
			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}

			// Walk the list to make sure the contents are intact.
			n := 1
			for x := m.Root(root); ; {
				next := m.Read(x, 0)
				if next == Nil {
					break
				}
				n++
				x = next
			}
			if n != 1000 {
				t.Fatalf("list has %d nodes after collection, want 1000", n)
			}

			// Drop the tail half and collect twice: with the color
			// toggle, garbage from before cycle N is clear-colored in
			// cycle N+1 at the latest.
			x := m.Root(root)
			for i := 0; i < 499; i++ {
				x = m.Read(x, 0)
			}
			m.Write(x, 0, Nil)
			m.Collect(true)
			m.Collect(true)
			after := rt.HeapObjects()
			if after >= before {
				t.Fatalf("no garbage reclaimed: %d -> %d objects", before, after)
			}
			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}

			// The surviving prefix must still be intact.
			n = 1
			for x := m.Root(root); ; {
				next := m.Read(x, 0)
				if next == Nil {
					break
				}
				n++
				x = next
			}
			if n != 500 {
				t.Fatalf("list has %d nodes after reclaim, want 500", n)
			}
			m.Detach()
		})
	}
}

// TestPartialCollectionPromotes checks §3: after a partial collection
// survivors are promoted (black) and a subsequent partial does not
// reclaim young garbage created before the previous cycle's trace...
// but does reclaim garbage made young again by the toggle.
func TestPartialCollectionPromotes(t *testing.T) {
	rt, err := NewManual(WithMode(Generational), WithHeapBytes(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	m := rt.NewMutator()
	keep := m.MustAlloc(1, 0)
	m.PushRoot(keep)
	for i := 0; i < 100; i++ {
		m.MustAlloc(0, 32) // garbage
	}
	m.Collect(false)
	freedFirst := rt.Stats().ObjectsFreed
	if freedFirst < 100 {
		t.Fatalf("first partial freed %d objects, want >= 100", freedFirst)
	}
	// keep survived and is promoted; new garbage dies in the next
	// partial as well.
	for i := 0; i < 50; i++ {
		m.MustAlloc(0, 32)
	}
	m.Collect(false)
	if got := rt.Stats().ObjectsFreed; got < freedFirst+50 {
		t.Fatalf("second partial freed %d objects total, want >= %d", got, freedFirst+50)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := rt.VerifyCardInvariant(); err != nil {
		t.Fatal(err)
	}
	m.Detach()
}
