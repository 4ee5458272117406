// Package sig implements LogTM-SE read/write-set signatures.
//
// A signature conservatively summarizes a set of physical block addresses.
// Per the paper (§2), it supports INSERT(O, A), CONFLICT(O, A) and
// CLEAR(O): membership tests may return false positives but never false
// negatives. Four implementations are provided, matching Figure 3 plus the
// idealized baseline used in the evaluation:
//
//   - Perfect: exact set (unimplementable in hardware; evaluation baseline)
//   - BitSelect (BS): decode the n least-significant block-address bits
//   - DoubleBitSelect (DBS): decode two address fields into two banks;
//     conflict only when both bits are set (Bulk-style)
//   - CoarseBitSelect (CBS): BitSelect at macroblock (1 KB) granularity
//
// Signatures are software accessible: they can be cloned (saved to a log
// frame header), unioned (summary signatures, §4.1) and walked against a
// page to support relocation (§4.2).
package sig

import (
	"fmt"
	"math/bits"

	"logtmse/internal/addr"
)

// Kind identifies a filter implementation.
type Kind int

// Filter kinds.
const (
	KindPerfect Kind = iota
	KindBitSelect
	KindDoubleBitSelect
	KindCoarseBitSelect
	// KindH3 is a k-hash Bloom filter using H3-style hash functions —
	// the "more creative signatures" the paper anticipates for larger
	// transactions (and the design the follow-on signature literature
	// adopted).
	KindH3
)

func (k Kind) String() string {
	switch k {
	case KindPerfect:
		return "Perfect"
	case KindBitSelect:
		return "BS"
	case KindDoubleBitSelect:
		return "DBS"
	case KindCoarseBitSelect:
		return "CBS"
	case KindH3:
		return "H3"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Filter is one conservative address-set summary (the hardware for one of
// the read- or write-set halves of a signature).
type Filter interface {
	// Insert adds the block containing a to the set.
	Insert(a addr.PAddr)
	// MayContain reports whether the block containing a may be in the
	// set. False positives are allowed; false negatives are not.
	MayContain(a addr.PAddr) bool
	// Clear empties the set.
	Clear()
	// Empty reports whether no address has been inserted since the last
	// Clear. (For bit-vector filters this is exact: no bits set.)
	Empty() bool
	// Union merges other into the receiver. Both filters must have the
	// same kind and geometry.
	Union(other Filter) error
	// Clone returns an independent copy.
	Clone() Filter
	// Kind reports the implementation.
	Kind() Kind
	// SizeBits reports the hardware cost in bits (0 for Perfect).
	SizeBits() int
	// PopCount reports how many bits are set (len of the exact set for
	// Perfect); used by the evaluation to characterize occupancy.
	PopCount() int
}

// --- Perfect ---------------------------------------------------------------

// perfect records the exact block set in a small open-addressed hash set
// (linear probing over a power-of-two array). Keys are stored as block
// address + 1 so the zero word marks an empty slot; the hot Insert and
// MayContain paths are a multiply, a mask and a short probe — no map
// hashing, no allocation once the table has grown to its working set.
type perfect struct {
	keys []uint64 // block address + 1; 0 = empty
	n    int      // occupied slots
}

const perfectMinSlots = 16

// NewPerfect returns an exact filter.
func NewPerfect() Filter { return &perfect{} }

func perfectHash(k uint64, mask uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> 32 & mask
}

func (p *perfect) grow() {
	old := p.keys
	n := 2 * len(old)
	if n < perfectMinSlots {
		n = perfectMinSlots
	}
	p.keys = make([]uint64, n)
	mask := uint64(n - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := perfectHash(k, mask)
		for p.keys[i] != 0 {
			i = (i + 1) & mask
		}
		p.keys[i] = k
	}
}

func (p *perfect) insertKey(k uint64) {
	if 4*(p.n+1) > 3*len(p.keys) { // load factor 3/4
		p.grow()
	}
	mask := uint64(len(p.keys) - 1)
	i := perfectHash(k, mask)
	for {
		switch p.keys[i] {
		case 0:
			p.keys[i] = k
			p.n++
			return
		case k:
			return
		}
		i = (i + 1) & mask
	}
}

func (p *perfect) Insert(a addr.PAddr) { p.insertKey(uint64(a.Block()) + 1) }

func (p *perfect) MayContain(a addr.PAddr) bool {
	if p.n == 0 {
		return false
	}
	k := uint64(a.Block()) + 1
	mask := uint64(len(p.keys) - 1)
	for i := perfectHash(k, mask); ; i = (i + 1) & mask {
		switch p.keys[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

func (p *perfect) Clear() {
	if p.n == 0 {
		return
	}
	clear(p.keys)
	p.n = 0
}

func (p *perfect) Empty() bool   { return p.n == 0 }
func (p *perfect) Kind() Kind    { return KindPerfect }
func (p *perfect) SizeBits() int { return 0 }
func (p *perfect) PopCount() int { return p.n }

func (p *perfect) Union(other Filter) error {
	o, ok := other.(*perfect)
	if !ok {
		return fmt.Errorf("sig: union of Perfect with %v", other.Kind())
	}
	for _, k := range o.keys {
		if k != 0 {
			p.insertKey(k)
		}
	}
	return nil
}

func (p *perfect) Clone() Filter {
	c := &perfect{keys: make([]uint64, len(p.keys)), n: p.n}
	copy(c.keys, p.keys)
	return c
}

// --- bit vector helpers ----------------------------------------------------

type bitvec []uint64

func newBitvec(n int) bitvec { return make(bitvec, (n+63)/64) }

func (b bitvec) set(i uint64)      { b[i/64] |= 1 << (i % 64) }
func (b bitvec) get(i uint64) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitvec) clear() {
	for i := range b {
		b[i] = 0
	}
}

func (b bitvec) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b bitvec) popcount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b bitvec) union(o bitvec) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitvec) clone() bitvec {
	c := make(bitvec, len(b))
	copy(c, b)
	return c
}

func log2(n int) (uint, error) {
	if n <= 0 || n&(n-1) != 0 {
		return 0, fmt.Errorf("sig: size %d is not a positive power of two", n)
	}
	return uint(bits.TrailingZeros(uint(n))), nil
}

// --- BitSelect ---------------------------------------------------------------

// bitSelect decodes the n least-significant bits of the block address
// (Figure 3a).
type bitSelect struct {
	bitsVec bitvec
	n       uint // log2(size)
	shift   uint // address bits dropped before indexing
}

// NewBitSelect returns a bit-select filter of sizeBits bits (a power of
// two) indexed by block address.
func NewBitSelect(sizeBits int) (Filter, error) {
	n, err := log2(sizeBits)
	if err != nil {
		return nil, err
	}
	return &bitSelect{bitsVec: newBitvec(sizeBits), n: n, shift: addr.BlockShift}, nil
}

// NewCoarseBitSelect returns a bit-select filter indexed by macroblock
// (1 KB) address, Figure 3c. It tracks conflicts at a coarser granularity,
// targeting large transactions.
func NewCoarseBitSelect(sizeBits int) (Filter, error) {
	n, err := log2(sizeBits)
	if err != nil {
		return nil, err
	}
	return &bitSelect{bitsVec: newBitvec(sizeBits), n: n, shift: addr.MacroBlockShift}, nil
}

func (s *bitSelect) index(a addr.PAddr) uint64 {
	return (uint64(a) >> s.shift) & ((1 << s.n) - 1)
}

func (s *bitSelect) Insert(a addr.PAddr)          { s.bitsVec.set(s.index(a)) }
func (s *bitSelect) MayContain(a addr.PAddr) bool { return s.bitsVec.get(s.index(a)) }
func (s *bitSelect) Clear()                       { s.bitsVec.clear() }
func (s *bitSelect) Empty() bool                  { return s.bitsVec.empty() }
func (s *bitSelect) SizeBits() int                { return 1 << s.n }
func (s *bitSelect) PopCount() int                { return s.bitsVec.popcount() }

func (s *bitSelect) Kind() Kind {
	if s.shift == addr.MacroBlockShift {
		return KindCoarseBitSelect
	}
	return KindBitSelect
}

func (s *bitSelect) Union(other Filter) error {
	o, ok := other.(*bitSelect)
	if !ok || o.n != s.n || o.shift != s.shift {
		return fmt.Errorf("sig: union of incompatible bit-select filters")
	}
	s.bitsVec.union(o.bitsVec)
	return nil
}

func (s *bitSelect) Clone() Filter {
	return &bitSelect{bitsVec: s.bitsVec.clone(), n: s.n, shift: s.shift}
}

// --- DoubleBitSelect ---------------------------------------------------------

// doubleBitSelect decodes two fields of the block address into two banks;
// an address may be present only if both its bits are set (Figure 3b).
type doubleBitSelect struct {
	lo, hi bitvec
	nLo    uint
	nHi    uint
}

// NewDoubleBitSelect returns a double-bit-select filter of sizeBits total
// bits, split into two equal banks. Bank 0 decodes the least-significant
// block-address bits; bank 1 decodes the next field up.
func NewDoubleBitSelect(sizeBits int) (Filter, error) {
	if sizeBits < 2 {
		return nil, fmt.Errorf("sig: DBS size %d too small", sizeBits)
	}
	half := sizeBits / 2
	n, err := log2(half)
	if err != nil {
		return nil, fmt.Errorf("sig: DBS size must be 2*power-of-two: %v", err)
	}
	return &doubleBitSelect{
		lo:  newBitvec(half),
		hi:  newBitvec(half),
		nLo: n,
		nHi: n,
	}, nil
}

func (s *doubleBitSelect) idx(a addr.PAddr) (uint64, uint64) {
	blk := uint64(a) >> addr.BlockShift
	lo := blk & ((1 << s.nLo) - 1)
	hi := (blk >> s.nLo) & ((1 << s.nHi) - 1)
	return lo, hi
}

func (s *doubleBitSelect) Insert(a addr.PAddr) {
	lo, hi := s.idx(a)
	s.lo.set(lo)
	s.hi.set(hi)
}

func (s *doubleBitSelect) MayContain(a addr.PAddr) bool {
	lo, hi := s.idx(a)
	return s.lo.get(lo) && s.hi.get(hi)
}

func (s *doubleBitSelect) Clear()        { s.lo.clear(); s.hi.clear() }
func (s *doubleBitSelect) Empty() bool   { return s.lo.empty() && s.hi.empty() }
func (s *doubleBitSelect) Kind() Kind    { return KindDoubleBitSelect }
func (s *doubleBitSelect) SizeBits() int { return (1 << s.nLo) + (1 << s.nHi) }
func (s *doubleBitSelect) PopCount() int { return s.lo.popcount() + s.hi.popcount() }

func (s *doubleBitSelect) Union(other Filter) error {
	o, ok := other.(*doubleBitSelect)
	if !ok || o.nLo != s.nLo || o.nHi != s.nHi {
		return fmt.Errorf("sig: union of incompatible DBS filters")
	}
	s.lo.union(o.lo)
	s.hi.union(o.hi)
	return nil
}

func (s *doubleBitSelect) Clone() Filter {
	return &doubleBitSelect{lo: s.lo.clone(), hi: s.hi.clone(), nLo: s.nLo, nHi: s.nHi}
}

// --- configuration ----------------------------------------------------------

// Config selects a signature implementation and size for a system build.
type Config struct {
	Kind Kind
	// Bits is the per-filter hardware budget in bits (ignored for
	// Perfect). A "2 Kb signature" in the paper means 2048 bits for each
	// of the read- and write-set filters.
	Bits int
	// Hashes is the hash-function count for KindH3 (0 = default 4).
	Hashes int
}

// String formats the config the way the paper labels its bars (e.g.
// "BS_2048", "Perfect").
func (c Config) String() string {
	if c.Kind == KindPerfect {
		return "Perfect"
	}
	if c.Kind == KindH3 {
		h := c.Hashes
		if h == 0 {
			h = 4
		}
		return fmt.Sprintf("H3x%d_%d", h, c.Bits)
	}
	return fmt.Sprintf("%v_%d", c.Kind, c.Bits)
}

// New builds one filter per the config.
func (c Config) New() (Filter, error) {
	switch c.Kind {
	case KindPerfect:
		return NewPerfect(), nil
	case KindBitSelect:
		return NewBitSelect(c.Bits)
	case KindDoubleBitSelect:
		return NewDoubleBitSelect(c.Bits)
	case KindCoarseBitSelect:
		return NewCoarseBitSelect(c.Bits)
	case KindH3:
		return NewH3(c.Bits, c.Hashes)
	default:
		return nil, fmt.Errorf("sig: unknown kind %v", c.Kind)
	}
}
