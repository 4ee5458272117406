// Package cache models set-associative cache tag arrays with MESI line
// states and LRU replacement.
//
// LogTM-SE never stores speculative data differently from committed data
// (eager version management updates memory in place and logs old values),
// so the caches carry no transactional state at all — exactly the paper's
// point. The model therefore tracks tags and coherence states only; data
// lives in the simulated physical memory, which is always coherent because
// every state change is applied atomically at a simulation event.
package cache

import (
	"fmt"

	"logtmse/internal/addr"
)

// State is a MESI coherence state.
type State int

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// line is kept to 16 bytes (the L2 alone has 64Ki of them, zeroed on
// every construction): the MESI state fits a byte and the LRU clock 32
// bits — it counts cache touches, which stay far below 2^32 per run.
type line struct {
	tag     uint64 // block index (address >> BlockShift)
	lastUse uint32
	state   uint8
}

// Cache is a set-associative tag array. The zero value is not usable;
// construct with New.
type Cache struct {
	sets    int
	setMask uint64 // sets-1; sets is a power of two, so index by mask
	ways    int
	lines   []line // sets*ways, row-major
	useClk  uint32
	banked  int // number of banks (for bank-of-address queries); >=1
	evicted uint64
}

// New constructs a cache of totalBytes capacity with the given
// associativity, carved into banks (1 for a private L1). totalBytes must
// be a multiple of ways*BlockBytes.
func New(totalBytes, ways, banks int) (*Cache, error) {
	if banks < 1 {
		banks = 1
	}
	blocks := totalBytes / addr.BlockBytes
	if blocks <= 0 || ways <= 0 || blocks%ways != 0 {
		return nil, fmt.Errorf("cache: invalid geometry %dB/%d-way", totalBytes, ways)
	}
	sets := blocks / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return &Cache{
		sets:    sets,
		setMask: uint64(sets - 1),
		ways:    ways,
		lines:   make([]line, sets*ways),
		banked:  banks,
	}, nil
}

// MustNew is New for geometries known to be valid.
func MustNew(totalBytes, ways, banks int) *Cache {
	c, err := New(totalBytes, ways, banks)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways reports the associativity.
func (c *Cache) Ways() int { return c.ways }

// Bank returns the bank a block maps to (interleaved by block address,
// per Table 1).
func (c *Cache) Bank(a addr.PAddr) int { return int(a.BlockIndex() % uint64(c.banked)) }

// setOf indexes by mask: the set count is a power of two (enforced in
// New), and find runs on every simulated memory reference, so this must
// not pay a hardware divide.
func (c *Cache) setOf(tag uint64) int { return int(tag & c.setMask) }

func (c *Cache) find(a addr.PAddr) *line {
	tag := a.BlockIndex()
	base := c.setOf(tag) * c.ways
	set := c.lines[base : base+c.ways]
	for i := range set {
		l := &set[i]
		if l.tag == tag && l.state != uint8(Invalid) {
			return l
		}
	}
	return nil
}

// Lookup returns the state of the block containing a (Invalid on miss) and
// refreshes its LRU position on a hit.
func (c *Cache) Lookup(a addr.PAddr) State {
	if l := c.find(a); l != nil {
		c.useClk++
		l.lastUse = c.useClk
		return State(l.state)
	}
	return Invalid
}

// Peek returns the state without disturbing LRU.
func (c *Cache) Peek(a addr.PAddr) State {
	if l := c.find(a); l != nil {
		return State(l.state)
	}
	return Invalid
}

// SetState changes the state of a resident block; it is a no-op if the
// block is not resident.
func (c *Cache) SetState(a addr.PAddr, s State) {
	if l := c.find(a); l != nil {
		l.state = uint8(s)
	}
}

// Invalidate removes the block containing a.
func (c *Cache) Invalidate(a addr.PAddr) { c.SetState(a, Invalid) }

// Victim describes a block displaced by Insert.
type Victim struct {
	Addr  addr.PAddr
	State State
}

// Insert places the block containing a in state s, evicting the LRU line
// of its set if the set is full. It reports the victim, if any.
func (c *Cache) Insert(a addr.PAddr, s State) (Victim, bool) {
	tag := a.BlockIndex()
	base := c.setOf(tag) * c.ways
	c.useClk++
	// Already resident: just update.
	if l := c.find(a); l != nil {
		l.state = uint8(s)
		l.lastUse = c.useClk
		return Victim{}, false
	}
	// Free way?
	for i := 0; i < c.ways; i++ {
		l := &c.lines[base+i]
		if l.state == uint8(Invalid) {
			*l = line{tag: tag, state: uint8(s), lastUse: c.useClk}
			return Victim{}, false
		}
	}
	// Evict LRU.
	victim := &c.lines[base]
	for i := 1; i < c.ways; i++ {
		if c.lines[base+i].lastUse < victim.lastUse {
			victim = &c.lines[base+i]
		}
	}
	v := Victim{Addr: addr.PAddr(victim.tag << addr.BlockShift), State: State(victim.state)}
	*victim = line{tag: tag, state: uint8(s), lastUse: c.useClk}
	c.evicted++
	return v, true
}

// Evictions reports how many lines have been displaced since construction.
func (c *Cache) Evictions() uint64 { return c.evicted }

// EvictNth removes the n'th valid line in fixed (set, way) scan order and
// returns it as a victim. n wraps modulo the number of valid lines, so
// any n deterministically selects some line of a non-empty cache. It
// reports false if the cache holds no valid lines. The fault injector
// uses it for victimization storms; callers must run the same victim
// bookkeeping a capacity eviction would (sticky states, writebacks).
func (c *Cache) EvictNth(n int) (Victim, bool) {
	valid := c.Occupancy()
	if valid == 0 {
		return Victim{}, false
	}
	n %= valid
	if n < 0 {
		n += valid
	}
	for i := range c.lines {
		l := &c.lines[i]
		if l.state == uint8(Invalid) {
			continue
		}
		if n > 0 {
			n--
			continue
		}
		v := Victim{Addr: addr.PAddr(l.tag << addr.BlockShift), State: State(l.state)}
		*l = line{}
		c.evicted++
		return v, true
	}
	return Victim{}, false // unreachable: n < valid
}

// Occupancy reports how many lines are valid.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state != uint8(Invalid) {
			n++
		}
	}
	return n
}

// Clear invalidates every line.
func (c *Cache) Clear() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
}

// Reset returns the cache to its just-constructed state for pooled
// reuse: every line invalid, LRU clock and eviction counter at zero.
// A Reset cache is indistinguishable from a fresh New.
func (c *Cache) Reset() {
	c.Clear()
	c.useClk = 0
	c.evicted = 0
}

// Snapshot is a restorable copy of a cache's dynamic state (tags, MESI
// states, LRU clock, eviction count). Geometry is captured only to
// validate Restore targets.
type Snapshot struct {
	sets, ways int
	lines      []line
	useClk     uint32
	evicted    uint64
}

// Snapshot captures the cache's dynamic state.
func (c *Cache) Snapshot() *Snapshot {
	return &Snapshot{
		sets: c.sets, ways: c.ways,
		lines:   append([]line(nil), c.lines...),
		useClk:  c.useClk,
		evicted: c.evicted,
	}
}

// Restore overwrites the cache's dynamic state from a snapshot taken
// from a cache of identical geometry.
func (c *Cache) Restore(s *Snapshot) error {
	if s.sets != c.sets || s.ways != c.ways {
		return fmt.Errorf("cache: snapshot geometry %dx%d does not match %dx%d", s.sets, s.ways, c.sets, c.ways)
	}
	copy(c.lines, s.lines)
	c.useClk = s.useClk
	c.evicted = s.evicted
	return nil
}
