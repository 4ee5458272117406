// Package network models the on-chip interconnect of the baseline CMP: a
// packet-switched grid (Table 1: 4x3 grid, 64-byte links, 3-cycle link
// latency) connecting cores and L2 cache banks.
//
// The model charges per-hop latency along a minimal (Manhattan) route;
// adaptive routing in the paper only changes which minimal path is taken,
// so hop count — and thus uncontended latency — is identical.
package network

import "logtmse/internal/sim"

// Grid is a W x H mesh of routers. Cores and L2 banks attach to routers
// round-robin, matching the paper's layout where 16 cores and 16 banks
// share a 4x3 grid.
//
// Latencies are uncontended, as Table 1 reports them: no message queues
// behind another at a router.
type Grid struct {
	w, h  int
	cores int
	banks int

	// perturb, when set, post-processes every computed traversal latency
	// (fault injection: extra hop latency and jitter). It must be
	// deterministic for a given call sequence; it may return the latency
	// unchanged but never a smaller one.
	perturb func(sim.Cycle) sim.Cycle

	// Precomputed uncontended latencies. A point-to-point latency is
	// its table entry passed through perturbed, one perturb call per
	// message. The broadcast tables are used only while perturb is nil:
	// a set perturbation must see one call per core reached.
	nodes     int         // cached Nodes() for the latTab index
	latTab    []sim.Cycle // router pair a,b at latTab[a*nodes+b]
	bankBcast []sim.Cycle // BroadcastFromBank result per bank
	coreBcast []sim.Cycle // BroadcastFromCore result per core

	coreBankLat []sim.Cycle // CoreToBank at [core*banks+bank]
	coreCoreLat []sim.Cycle // CoreToCore at [a*cores+b]
}

// New returns a grid with the given dimensions and per-link latency,
// hosting the given number of cores and L2 banks.
func New(w, h int, linkLat sim.Cycle, cores, banks int) *Grid {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	g := &Grid{w: w, h: h, cores: cores, banks: banks}
	n := g.Nodes()
	g.nodes = n
	g.latTab = make([]sim.Cycle, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			g.latTab[a*n+b] = linkLat * sim.Cycle(1+g.Hops(a, b))
		}
	}
	g.bankBcast = make([]sim.Cycle, banks)
	for b := range g.bankBcast {
		g.bankBcast[b] = g.broadcastFromBankSlow(b)
	}
	g.coreBcast = make([]sim.Cycle, cores)
	for c := range g.coreBcast {
		g.coreBcast[c] = g.broadcastFromCoreSlow(c)
	}
	g.coreBankLat = make([]sim.Cycle, cores*banks)
	for c := 0; c < cores; c++ {
		for b := 0; b < banks; b++ {
			g.coreBankLat[c*banks+b] = g.latTab[g.CoreNode(c)*n+g.BankNode(b)]
		}
	}
	g.coreCoreLat = make([]sim.Cycle, cores*cores)
	for a := 0; a < cores; a++ {
		for b := 0; b < cores; b++ {
			g.coreCoreLat[a*cores+b] = g.latTab[g.CoreNode(a)*n+g.CoreNode(b)]
		}
	}
	return g
}

// Nodes reports the number of routers.
func (g *Grid) Nodes() int { return g.w * g.h }

// Reset removes any installed perturbation for pooled reuse. The
// precomputed latency tables are immutable and survive.
func (g *Grid) Reset() { g.perturb = nil }

// SetPerturb installs (or, with nil, removes) a latency perturbation: fn
// receives each computed message latency and returns the latency to
// charge instead. The fault injector uses it to add hop delay and jitter;
// a nil perturbation reproduces the unperturbed grid exactly.
func (g *Grid) SetPerturb(fn func(sim.Cycle) sim.Cycle) { g.perturb = fn }

// Perturbed reports whether a latency perturbation is installed.
func (g *Grid) Perturbed() bool { return g.perturb != nil }

func (g *Grid) perturbed(lat sim.Cycle) sim.Cycle {
	if g.perturb == nil {
		return lat
	}
	return g.perturb(lat)
}

// CoreNode returns the router a core attaches to.
func (g *Grid) CoreNode(core int) int { return core % g.Nodes() }

// BankNode returns the router an L2 bank attaches to. Banks are offset by
// half the grid so a core and its same-numbered bank are not always
// colocated.
func (g *Grid) BankNode(bank int) int { return (bank + g.Nodes()/2) % g.Nodes() }

// Hops returns the Manhattan distance between two routers.
func (g *Grid) Hops(a, b int) int {
	ax, ay := a%g.w, a/g.w
	bx, by := b%g.w, b/g.w
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Latency returns the uncontended latency between two routers: one link to
// enter the network plus one per hop.
func (g *Grid) Latency(a, b int) sim.Cycle {
	return g.perturbed(g.latTab[a*g.nodes+b])
}

// CoreToBank is the latency of a request from a core to an L2 bank.
func (g *Grid) CoreToBank(core, bank int) sim.Cycle {
	return g.perturbed(g.coreBankLat[core*g.banks+bank])
}

// CoreToCore is the latency of a forwarded request between cores.
func (g *Grid) CoreToCore(a, b int) sim.Cycle {
	return g.perturbed(g.coreCoreLat[a*g.cores+b])
}

// BroadcastFromBank is the latency for a bank to reach every core and
// collect responses: the round trip to the farthest core.
func (g *Grid) BroadcastFromBank(bank int) sim.Cycle {
	if g.perturb == nil && bank >= 0 && bank < len(g.bankBcast) {
		return g.bankBcast[bank]
	}
	return g.broadcastFromBankSlow(bank)
}

func (g *Grid) broadcastFromBankSlow(bank int) sim.Cycle {
	worst := sim.Cycle(0)
	for c := 0; c < g.cores; c++ {
		if l := g.Latency(g.BankNode(bank), g.CoreNode(c)); l > worst {
			worst = l
		}
	}
	return 2 * worst
}

// BroadcastFromCore is the latency for a core to reach every other core
// and collect responses (snooping-protocol request).
func (g *Grid) BroadcastFromCore(core int) sim.Cycle {
	if g.perturb == nil && core >= 0 && core < len(g.coreBcast) {
		return g.coreBcast[core]
	}
	return g.broadcastFromCoreSlow(core)
}

func (g *Grid) broadcastFromCoreSlow(core int) sim.Cycle {
	worst := sim.Cycle(0)
	for c := 0; c < g.cores; c++ {
		if c == core {
			continue
		}
		if l := g.Latency(g.CoreNode(core), g.CoreNode(c)); l > worst {
			worst = l
		}
	}
	return 2 * worst
}
