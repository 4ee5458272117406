// Package mem models physical memory and per-process virtual memory.
//
// Physical memory stores data at cache-block granularity so the LogTM-SE
// undo log can capture and restore whole blocks (eager version
// management). Page tables translate virtual to physical pages and support
// relocation, which drives the paper's §4.2 paging experiments: when a page
// moves, transactional signatures must be re-populated with the new
// physical addresses.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"logtmse/internal/addr"
	"logtmse/internal/ptable"
)

// Block is one cache block of data.
type Block [addr.BlockBytes]byte

// Memory is a sparse physical memory backed by page-granular
// open-addressed storage (see internal/ptable). It is owned by the
// single simulation goroutine and is deliberately unsynchronized: a word
// access is a few loads on the hot path, with no mutex and no per-block
// map hashing. Callers that genuinely share a Memory across goroutines
// (rare, test-only) must go through Locked().
type Memory struct {
	blocks ptable.Table[Block]
}

// NewMemory returns an empty physical memory.
func NewMemory() *Memory {
	return &Memory{}
}

func (m *Memory) block(a addr.PAddr) *Block {
	b, _ := m.blocks.GetOrCreate(a)
	return b
}

// ReadBlock copies the block containing a into out.
func (m *Memory) ReadBlock(a addr.PAddr, out *Block) {
	*out = *m.block(a)
}

// WriteBlock replaces the block containing a with data.
func (m *Memory) WriteBlock(a addr.PAddr, data *Block) {
	*m.block(a) = *data
}

// ReadWord reads the 8-byte word at a (a must be word-aligned within its
// block; misaligned addresses are rounded down).
func (m *Memory) ReadWord(a addr.PAddr) uint64 {
	blk := m.block(a)
	off := a.BlockOffset() &^ (addr.WordBytes - 1)
	return binary.LittleEndian.Uint64(blk[off:])
}

// WriteWord writes the 8-byte word at a.
func (m *Memory) WriteWord(a addr.PAddr, v uint64) {
	blk := m.block(a)
	off := a.BlockOffset() &^ (addr.WordBytes - 1)
	binary.LittleEndian.PutUint64(blk[off:], v)
}

// CopyPage copies PageBytes of data from physical page src to dst.
func (m *Memory) CopyPage(src, dst addr.PAddr) {
	src, dst = src.Page(), dst.Page()
	for off := uint64(0); off < addr.PageBytes; off += addr.BlockBytes {
		s := m.block(src + addr.PAddr(off))
		d := m.block(dst + addr.PAddr(off))
		*d = *s
	}
}

// Reset forgets every block and page while keeping the underlying
// storage for pooled reuse; a Reset memory reads all-zero everywhere,
// exactly like a fresh NewMemory.
func (m *Memory) Reset() {
	m.blocks.Reset()
}

// Snapshot is a copy-on-write capture of a physical memory: page arrays
// are shared with the live memory until either side writes them, so
// taking one is cheap regardless of footprint.
type Snapshot struct {
	blocks ptable.Table[Block]
}

// Snapshot captures the memory contents copy-on-write.
func (m *Memory) Snapshot() *Snapshot {
	return &Snapshot{blocks: m.blocks.Snapshot()}
}

// RestoreFrom resets the memory to a snapshot's contents, again sharing
// pages copy-on-write; the snapshot can seed any number of restores.
func (m *Memory) RestoreFrom(s *Snapshot) {
	m.blocks.RestoreFrom(&s.blocks)
}

// ForEachBlock calls fn for every touched block, in the deterministic
// slot order of the underlying page table. The invariant checker uses it
// to seed its shadow copy.
func (m *Memory) ForEachBlock(fn func(a addr.PAddr, b *Block)) {
	m.blocks.ForEach(fn)
}

// Locked returns a mutex-guarded view of m for the rare uses that share
// a Memory across goroutines (concurrency tests). All simulation-path
// accessors stay on the unsynchronized Memory, which is owned by the
// single simulation goroutine.
func (m *Memory) Locked() *LockedMemory {
	return &LockedMemory{m: m}
}

// LockedMemory serializes access to an underlying Memory. Each call
// locks, so it is safe for concurrent use — and measurably slower, which
// is why the simulation never routes through it.
type LockedMemory struct {
	mu sync.Mutex
	m  *Memory
}

// ReadBlock is Memory.ReadBlock under the lock.
func (l *LockedMemory) ReadBlock(a addr.PAddr, out *Block) {
	l.mu.Lock()
	l.m.ReadBlock(a, out)
	l.mu.Unlock()
}

// WriteBlock is Memory.WriteBlock under the lock.
func (l *LockedMemory) WriteBlock(a addr.PAddr, data *Block) {
	l.mu.Lock()
	l.m.WriteBlock(a, data)
	l.mu.Unlock()
}

// ReadWord is Memory.ReadWord under the lock.
func (l *LockedMemory) ReadWord(a addr.PAddr) uint64 {
	l.mu.Lock()
	v := l.m.ReadWord(a)
	l.mu.Unlock()
	return v
}

// WriteWord is Memory.WriteWord under the lock.
func (l *LockedMemory) WriteWord(a addr.PAddr, v uint64) {
	l.mu.Lock()
	l.m.WriteWord(a, v)
	l.mu.Unlock()
}

// tlbSize is the number of entries in the direct-mapped translation
// cache in front of the page map. Translate runs on every simulated
// memory reference, and the contexts of a machine interleave accesses
// to many pages, so a one-entry MRU thrashes; 512 entries cover the
// working set of every modeled workload while costing 8KiB per table.
const tlbSize = 512

// tlbEntry caches one translation. vtag holds vpn+1 so the zero value
// means empty (physical page numbers start at 1, but custom allocators
// may hand out 0, so the tag carries the valid bit instead).
type tlbEntry struct {
	vtag uint64
	ppn  uint64
}

// PageTable maps one address space's virtual pages to physical pages.
type PageTable struct {
	ASID    addr.ASID
	entries map[uint64]uint64 // virtual page number -> physical page number
	nextPhy uint64            // simple bump allocator of physical pages
	alloc   func() uint64     // overrideable physical page allocator

	// Direct-mapped translation cache: most Translate calls skip the
	// map lookup. Relocate invalidates the affected slot.
	tlb [tlbSize]tlbEntry
}

// NewPageTable returns a page table for the given address space. Physical
// pages are handed out by the allocator alloc; if alloc is nil a private
// bump allocator starting at page 1 is used.
func NewPageTable(asid addr.ASID, alloc func() uint64) *PageTable {
	pt := &PageTable{ASID: asid, entries: make(map[uint64]uint64), nextPhy: 1}
	if alloc == nil {
		alloc = func() uint64 {
			p := pt.nextPhy
			pt.nextPhy++
			return p
		}
	}
	pt.alloc = alloc
	return pt
}

// Translate maps a virtual address to a physical address, allocating a
// fresh physical page on first touch (demand allocation).
func (pt *PageTable) Translate(v addr.VAddr) addr.PAddr {
	vpn := v.PageIndex()
	e := &pt.tlb[vpn&(tlbSize-1)]
	if e.vtag == vpn+1 {
		return addr.PAddr(e.ppn<<addr.PageShift | v.PageOffset())
	}
	ppn, ok := pt.entries[vpn]
	if !ok {
		ppn = pt.alloc()
		pt.entries[vpn] = ppn
	}
	e.vtag, e.ppn = vpn+1, ppn
	return addr.PAddr(ppn<<addr.PageShift | v.PageOffset())
}

// Lookup is like Translate but reports whether the page is mapped instead
// of allocating.
func (pt *PageTable) Lookup(v addr.VAddr) (addr.PAddr, bool) {
	ppn, ok := pt.entries[v.PageIndex()]
	if !ok {
		return 0, false
	}
	return addr.PAddr(ppn<<addr.PageShift | v.PageOffset()), true
}

// Relocate remaps the virtual page containing v to a new physical page and
// returns the old and new physical page base addresses. The caller is
// responsible for copying data (Memory.CopyPage) and for re-inserting
// transactional signature state, per paper §4.2.
func (pt *PageTable) Relocate(v addr.VAddr) (oldBase, newBase addr.PAddr, err error) {
	vpn := v.PageIndex()
	ppn, ok := pt.entries[vpn]
	if !ok {
		return 0, 0, fmt.Errorf("mem: relocate of unmapped page %v", v.Page())
	}
	np := pt.alloc()
	pt.entries[vpn] = np
	pt.tlb[vpn&(tlbSize-1)] = tlbEntry{}
	return addr.PAddr(ppn << addr.PageShift), addr.PAddr(np << addr.PageShift), nil
}

// PageTableState is a restorable copy of a page table's mappings. The
// TLB is deliberately absent: it is a pure translation cache with no
// timing or behavioral effect, so restore just leaves it cold.
type PageTableState struct {
	Entries map[uint64]uint64
	NextPhy uint64
}

// State captures the page table's mappings.
func (pt *PageTable) State() PageTableState {
	entries := make(map[uint64]uint64, len(pt.entries))
	for k, v := range pt.entries {
		entries[k] = v
	}
	return PageTableState{Entries: entries, NextPhy: pt.nextPhy}
}

// RestoreState overwrites the mappings from a capture and invalidates
// the TLB. The allocator closure is kept — on a forked system it is the
// fork's own, bound to the fork's allocation counter.
func (pt *PageTable) RestoreState(st PageTableState) {
	pt.entries = make(map[uint64]uint64, len(st.Entries))
	for k, v := range st.Entries {
		pt.entries[k] = v
	}
	pt.nextPhy = st.NextPhy
	pt.tlb = [tlbSize]tlbEntry{}
}

// MappedPages reports the number of mapped virtual pages.
func (pt *PageTable) MappedPages() int { return len(pt.entries) }

// MappedVPages returns the base virtual address of every mapped page in
// ascending order — a deterministic candidate list for fault-injected
// page relocations.
func (pt *PageTable) MappedVPages() []addr.VAddr {
	out := make([]addr.VAddr, 0, len(pt.entries))
	for vpn := range pt.entries {
		out = append(out, addr.VAddr(vpn<<addr.PageShift))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
