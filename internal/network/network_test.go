package network

import (
	"testing"

	"logtmse/internal/sim"
)

func TestHopsSymmetricAndTriangle(t *testing.T) {
	g := New(4, 3, 3, 16, 16)
	for a := 0; a < g.Nodes(); a++ {
		for b := 0; b < g.Nodes(); b++ {
			if g.Hops(a, b) != g.Hops(b, a) {
				t.Fatalf("hops not symmetric: %d<->%d", a, b)
			}
			if a == b && g.Hops(a, b) != 0 {
				t.Fatalf("self hops != 0")
			}
			for c := 0; c < g.Nodes(); c++ {
				if g.Hops(a, c) > g.Hops(a, b)+g.Hops(b, c) {
					t.Fatalf("triangle inequality violated %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestKnownDistances(t *testing.T) {
	g := New(4, 3, 3, 16, 16)
	// Node layout: 0..3 / 4..7 / 8..11. Corner to corner: 3+2 hops.
	if got := g.Hops(0, 11); got != 5 {
		t.Errorf("corner-to-corner hops = %d, want 5", got)
	}
	if got := g.Latency(0, 0); got != 3 {
		t.Errorf("local latency = %d, want 3 (one link)", got)
	}
	if got := g.Latency(0, 11); got != 18 {
		t.Errorf("corner latency = %d, want (1+5)*3 = 18", got)
	}
}

func TestAttachmentsInRange(t *testing.T) {
	g := New(4, 3, 3, 16, 16)
	for c := 0; c < 16; c++ {
		if n := g.CoreNode(c); n < 0 || n >= g.Nodes() {
			t.Errorf("core %d at node %d out of range", c, n)
		}
		if n := g.BankNode(c); n < 0 || n >= g.Nodes() {
			t.Errorf("bank %d at node %d out of range", c, n)
		}
	}
}

func TestBroadcastCoversWorstCase(t *testing.T) {
	g := New(4, 3, 3, 16, 16)
	for b := 0; b < 16; b++ {
		bc := g.BroadcastFromBank(b)
		for c := 0; c < 16; c++ {
			if rt := 2 * g.Latency(g.BankNode(b), g.CoreNode(c)); rt > bc {
				t.Errorf("broadcast from bank %d (%d) < round trip to core %d (%d)", b, bc, c, rt)
			}
		}
	}
	for c := 0; c < 16; c++ {
		bc := g.BroadcastFromCore(c)
		for d := 0; d < 16; d++ {
			if d == c {
				continue
			}
			if rt := 2 * g.Latency(g.CoreNode(c), g.CoreNode(d)); rt > bc {
				t.Errorf("broadcast from core %d < round trip to %d", c, d)
			}
		}
	}
}

func TestDegenerateGridClamped(t *testing.T) {
	g := New(0, 0, 1, 4, 4)
	if g.Nodes() != 1 {
		t.Errorf("clamped grid nodes = %d", g.Nodes())
	}
	if g.Hops(0, 0) != 0 {
		t.Errorf("single-node hops = %d", g.Hops(0, 0))
	}
}

// TestPerturbOncePerMessage pins the fault-injection contract: a
// point-to-point latency passes through the perturbation exactly once,
// and a broadcast once per core it reaches.
func TestPerturbOncePerMessage(t *testing.T) {
	g, ref := New(4, 3, 3, 16, 16), New(4, 3, 3, 16, 16)
	calls := 0
	g.SetPerturb(func(l sim.Cycle) sim.Cycle { calls++; return l + 1 })
	for _, c := range []struct {
		name  string
		lat   func(*Grid) sim.Cycle
		extra sim.Cycle // a round trip doubles the +1
		calls int
	}{
		{"Latency", func(g *Grid) sim.Cycle { return g.Latency(0, 11) }, 1, 1},
		{"CoreToBank", func(g *Grid) sim.Cycle { return g.CoreToBank(3, 9) }, 1, 1},
		{"CoreToCore", func(g *Grid) sim.Cycle { return g.CoreToCore(2, 13) }, 1, 1},
		{"BroadcastFromBank", func(g *Grid) sim.Cycle { return g.BroadcastFromBank(5) }, 2, 16},
		{"BroadcastFromCore", func(g *Grid) sim.Cycle { return g.BroadcastFromCore(5) }, 2, 15},
	} {
		calls = 0
		if got, want := c.lat(g), c.lat(ref)+c.extra; got != want {
			t.Errorf("%s = %d, want %d", c.name, got, want)
		}
		if calls != c.calls {
			t.Errorf("%s called perturb %d times, want %d", c.name, calls, c.calls)
		}
	}
}
