// Package check implements opt-in runtime invariant oracles for the
// LogTM-SE model: executable versions of the correctness arguments the
// paper makes informally (HPCA-13 §3–4), continuously evaluated while the
// simulation runs.
//
//   - Shadow oracle: a shadow copy of physical memory updated only by
//     committed work. Every committed transaction is replayed against the
//     shadow at its commit point — each read it performed must match what
//     an atomic execution at that point would have returned — and its
//     writes are then applied. Non-transactional accesses are verified and
//     applied immediately (eager conflict detection isolates uncommitted
//     state, so a granted plain access must observe committed values).
//   - Signature-membership oracle: signatures may false-positive but must
//     NEVER false-negative — every block in an exact read/write set must
//     test positive in the corresponding signature, at insertion and after
//     every signature restore (nested abort, open commit, reschedule).
//   - Undo-log oracle: an abort's LIFO log walk must restore, for every
//     block the frame logged, exactly the pre-frame contents (the oldest
//     record per block wins — a FIFO walk would leave a newer value).
//   - Sticky-state audit (driven by the core engine): every block in an
//     active transaction's exact sets must still be reachable by remote
//     conflict checks through the directory (owner/sharer/sticky pointer,
//     check-all mode, or a rebuild broadcast).
//   - Progress watchdog: flags windows with active transactions but no
//     outermost commit and records the engine's wait-for diagnosis.
//
// The oracles only observe: they add no latency, schedule no strong
// events and draw no randomness, so enabling them leaves Stats and event
// streams bit-identical to an unchecked run. Violations are recorded as
// Failure values (deterministically ordered) rather than panics, so a
// chaos campaign can report every seed's outcome.
package check

import (
	"fmt"
	"sort"

	"logtmse/internal/addr"
	"logtmse/internal/mem"
	"logtmse/internal/sig"
	"logtmse/internal/sim"
)

// Config selects the oracles to run. The zero value disables everything.
type Config struct {
	// Shadow enables the shadow-memory serializability oracle.
	Shadow bool
	// SigMembership enables the exact-set vs. signature membership
	// oracle (no false negatives, ever).
	SigMembership bool
	// UndoLIFO enables undo-log restore verification on abort.
	UndoLIFO bool
	// StickyAudit enables the periodic sticky-state/directory
	// consistency audit (single-chip directory protocol only).
	StickyAudit bool
	// WatchdogWindow, when nonzero, arms the progress watchdog: a
	// window of that many cycles with active transactions but no
	// outermost commit records a failure with the wait-for diagnosis.
	WatchdogWindow sim.Cycle
	// AuditEvery is the period, in cycles, of the weak audit/watchdog
	// tick the engine schedules (0 = 2048).
	AuditEvery sim.Cycle
	// MaxFailures caps the recorded failures (0 = 64); further
	// violations only increment the dropped counter.
	MaxFailures int
}

// All returns a Config with every oracle enabled and the given watchdog
// window (0 leaves the watchdog disarmed).
func All(window sim.Cycle) Config {
	return Config{
		Shadow: true, SigMembership: true, UndoLIFO: true, StickyAudit: true,
		WatchdogWindow: window,
	}
}

// Any reports whether at least one oracle is enabled.
func (c Config) Any() bool {
	return c.Shadow || c.SigMembership || c.UndoLIFO || c.StickyAudit || c.WatchdogWindow > 0
}

func (c Config) withDefaults() Config {
	if c.AuditEvery == 0 {
		c.AuditEvery = 2048
	}
	if c.MaxFailures == 0 {
		c.MaxFailures = 64
	}
	return c
}

// Failure is one recorded invariant violation.
type Failure struct {
	Cycle  sim.Cycle `json:"cycle"`
	Oracle string    `json:"oracle"` // shadow | signature | undo | sticky | watchdog
	TID    int       `json:"tid"`    // software thread id; -1 for system-wide
	Detail string    `json:"detail"`
}

func (f Failure) String() string {
	return fmt.Sprintf("cycle %d [%s] tid %d: %s", f.Cycle, f.Oracle, f.TID, f.Detail)
}

// AccessMode classifies a memory access for the shadow oracle.
type AccessMode uint8

// Access modes.
const (
	// ModePlain: outside any transaction — verified against and applied
	// to the shadow immediately.
	ModePlain AccessMode = iota
	// ModeTx: transactional — buffered in the frame and validated at
	// commit.
	ModeTx
	// ModeEscaped: inside an escape action — applied to the shadow but
	// never verified (an escaped load may legally observe the thread's
	// own uncommitted transactional stores).
	ModeEscaped
)

type op struct {
	write bool
	word  addr.PAddr
	val   uint64
}

type undoRec struct {
	va  addr.VAddr
	old mem.Block
}

// frame mirrors one txlog frame: the ordered word-level operation trace,
// the accumulated last-write map, and the logged undo records.
type frame struct {
	open   bool
	ops    []op
	writes map[addr.PAddr]uint64
	undo   []undoRec
}

type txState struct {
	frames []*frame
}

func (st *txState) top() *frame {
	if len(st.frames) == 0 {
		return nil
	}
	return st.frames[len(st.frames)-1]
}

// Checker evaluates the configured oracles against one System. It must
// only be driven from the simulation goroutine.
type Checker struct {
	cfg     Config
	now     func() sim.Cycle
	name    func(tid int) string
	shadow  map[addr.PAddr]*mem.Block
	threads map[int]*txState

	failures []Failure
	dropped  int

	// onOuterCommit, when set, is told the thread of every outermost
	// commit, in engine order.
	onOuterCommit func(tid int)

	// Watchdog state.
	activeTx     int
	lastProgress sim.Cycle
	tripped      bool
}

// New builds a checker; now supplies the cycle stamp for failures (the
// engine's clock).
func New(cfg Config, now func() sim.Cycle) *Checker {
	if now == nil {
		now = func() sim.Cycle { return 0 }
	}
	return &Checker{
		cfg:          cfg.withDefaults(),
		now:          now,
		shadow:       make(map[addr.PAddr]*mem.Block),
		threads:      make(map[int]*txState),
		lastProgress: now(),
	}
}

// Config returns the (defaulted) configuration.
func (c *Checker) Config() Config { return c.cfg }

// SetNamer installs a tid -> thread-name resolver used in failure details.
func (c *Checker) SetNamer(fn func(tid int) string) { c.name = fn }

// SetOuterCommitHook installs fn to receive the software thread id of
// every outermost commit, in engine order — the serial order a
// differential oracle replays. Unlike an event sink, a checker leaves
// NACK retry replay on, so the recorded run is the production path.
func (c *Checker) SetOuterCommitHook(fn func(tid int)) { c.onOuterCommit = fn }

// SeedShadow initializes the shadow from the current physical memory;
// call it after workload setup writes but before the run starts. When
// the checker attaches to a machine mid-run (a restore-from-snapshot
// probe), follow with AdoptFrame/AdoptUndo for every open transaction
// so the shadow rewinds to committed state and the frame stacks match
// the engine's.
func (c *Checker) SeedShadow(m *mem.Memory) {
	if !c.cfg.Shadow {
		return
	}
	m.ForEachBlock(func(a addr.PAddr, b *mem.Block) {
		cp := *b
		c.shadow[a] = &cp
	})
}

// AdoptFrame registers one already-open transaction frame for tid —
// called outermost first, mirroring OnBegin's bookkeeping, when the
// checker attaches to a running machine whose threads are mid-
// transaction. depth is the frame's nesting level (1 = outermost).
func (c *Checker) AdoptFrame(tid, depth int, open bool) {
	if depth == 1 {
		c.activeTx++
	}
	if !c.tracksFrames() {
		return
	}
	st := c.thread(tid)
	st.frames = append(st.frames, &frame{open: open, writes: make(map[addr.PAddr]uint64)})
	if len(st.frames) != depth {
		c.fail("shadow", tid, "frame stack depth %d does not match engine depth %d at adoption",
			len(st.frames), depth)
	}
}

// AdoptUndo attaches one engine-logged undo record to tid's innermost
// adopted frame. old is the record's pre-frame block contents and cur
// the block's contents now; pa is the record's current translation.
// rewind is set for the oldest record of each block across the thread's
// frames: that record holds the committed contents, so the shadow — a
// copy of current memory — is rewound to it. The frame's individual
// pre-attach stores are unobservable, but their net effect is exactly
// cur, so the frame adopts cur as synthetic writes: commit replays them
// into the shadow, abort discards them, and the real undo records keep
// the LIFO oracle armed either way.
func (c *Checker) AdoptUndo(tid int, va addr.VAddr, pa addr.PAddr, old, cur *mem.Block, rewind bool) {
	if !c.tracksFrames() {
		return
	}
	st := c.thread(tid)
	f := st.top()
	if f == nil {
		c.fail("undo", tid, "undo adoption for %v with no adopted frame", va.Block())
		return
	}
	if c.cfg.UndoLIFO {
		f.undo = append(f.undo, undoRec{va: va.Block(), old: *old})
	}
	if !c.cfg.Shadow {
		return
	}
	blk := pa.Block()
	if rewind {
		b, ok := c.shadow[blk]
		if !ok {
			b = new(mem.Block)
			c.shadow[blk] = b
		}
		*b = *old
	}
	for off := uint64(0); off < addr.BlockBytes; off += addr.WordBytes {
		w := blk + addr.PAddr(off)
		var v uint64
		for i := 0; i < addr.WordBytes; i++ {
			v |= uint64(cur[off+uint64(i)]) << (8 * uint(i))
		}
		f.ops = append(f.ops, op{write: true, word: w, val: v})
		f.writes[w] = v
	}
}

// Failures returns the recorded violations in detection order.
func (c *Checker) Failures() []Failure { return c.failures }

// Dropped reports violations discarded beyond MaxFailures.
func (c *Checker) Dropped() int { return c.dropped }

// Err returns nil if every oracle held, or an error summarizing the
// recorded failures.
func (c *Checker) Err() error {
	if len(c.failures) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violations (+%d dropped), first: %s",
		len(c.failures), c.dropped, c.failures[0])
}

func (c *Checker) fail(oracle string, tid int, format string, args ...interface{}) {
	if len(c.failures) >= c.cfg.MaxFailures {
		c.dropped++
		return
	}
	detail := fmt.Sprintf(format, args...)
	if c.name != nil && tid >= 0 {
		detail = c.name(tid) + ": " + detail
	}
	c.failures = append(c.failures, Failure{
		Cycle: c.now(), Oracle: oracle, TID: tid, Detail: detail,
	})
}

func (c *Checker) thread(tid int) *txState {
	st, ok := c.threads[tid]
	if !ok {
		st = &txState{}
		c.threads[tid] = st
	}
	return st
}

func (c *Checker) tracksFrames() bool { return c.cfg.Shadow || c.cfg.UndoLIFO }

// --- shadow word helpers ------------------------------------------------------

func wordOf(a addr.PAddr) addr.PAddr { return a &^ (addr.WordBytes - 1) }

func (c *Checker) shadowWord(w addr.PAddr) uint64 {
	b, ok := c.shadow[w.Block()]
	if !ok {
		return 0
	}
	off := w.BlockOffset() &^ (addr.WordBytes - 1)
	var v uint64
	for i := 0; i < addr.WordBytes; i++ {
		v |= uint64(b[off+uint64(i)]) << (8 * uint(i))
	}
	return v
}

func (c *Checker) setShadowWord(w addr.PAddr, v uint64) {
	blk := w.Block()
	b, ok := c.shadow[blk]
	if !ok {
		b = new(mem.Block)
		c.shadow[blk] = b
	}
	off := w.BlockOffset() &^ (addr.WordBytes - 1)
	for i := 0; i < addr.WordBytes; i++ {
		b[off+uint64(i)] = byte(v >> (8 * uint(i)))
	}
}

// expectRead resolves the value an atomic execution would return for a
// read by the innermost frame: the nearest enclosing frame that wrote the
// word, falling back to the committed shadow state.
func (c *Checker) expectRead(st *txState, w addr.PAddr) uint64 {
	for i := len(st.frames) - 1; i >= 0; i-- {
		if v, ok := st.frames[i].writes[w]; ok {
			return v
		}
	}
	return c.shadowWord(w)
}

// --- lifecycle hooks (called by the core engine) ------------------------------

// OnBegin records a transaction begin; depth is the resulting nesting
// depth (1 = outermost).
func (c *Checker) OnBegin(tid, depth int, open bool) {
	if depth == 1 {
		c.activeTx++
	}
	if !c.tracksFrames() {
		return
	}
	st := c.thread(tid)
	st.frames = append(st.frames, &frame{open: open, writes: make(map[addr.PAddr]uint64)})
	if len(st.frames) != depth {
		c.fail("shadow", tid, "frame stack depth %d does not match engine depth %d at begin",
			len(st.frames), depth)
	}
}

// OnRead records (ModeTx) or verifies (ModePlain) one word-sized load.
// Escaped loads are ignored: they may legally observe the thread's own
// uncommitted stores.
func (c *Checker) OnRead(tid int, mode AccessMode, a addr.PAddr, val uint64) {
	if !c.cfg.Shadow || mode == ModeEscaped {
		return
	}
	w := wordOf(a)
	if mode == ModePlain {
		if want := c.shadowWord(w); val != want {
			c.fail("shadow", tid, "non-transactional load %v = %d, committed state has %d", w, val, want)
		}
		return
	}
	st := c.thread(tid)
	f := st.top()
	if f == nil {
		c.fail("shadow", tid, "transactional load %v with no open frame", w)
		return
	}
	if want := c.expectRead(st, w); val != want {
		c.fail("shadow", tid, "transactional load %v = %d, atomic execution would return %d", w, val, want)
	}
	f.ops = append(f.ops, op{word: w, val: val})
}

// OnWrite records (ModeTx) or applies (ModePlain/ModeEscaped) one
// word-sized store; val is the value left in memory.
func (c *Checker) OnWrite(tid int, mode AccessMode, a addr.PAddr, val uint64) {
	if !c.cfg.Shadow {
		return
	}
	w := wordOf(a)
	if mode != ModeTx {
		c.setShadowWord(w, val)
		return
	}
	st := c.thread(tid)
	f := st.top()
	if f == nil {
		c.fail("shadow", tid, "transactional store %v with no open frame", w)
		return
	}
	f.ops = append(f.ops, op{write: true, word: w, val: val})
	f.writes[w] = val
}

// OnLogAppend records one undo record written by the engine (the
// pre-store contents of a block, first store per block per frame modulo
// filter evictions).
func (c *Checker) OnLogAppend(tid int, va addr.VAddr, old *mem.Block) {
	if !c.cfg.UndoLIFO {
		return
	}
	st := c.thread(tid)
	f := st.top()
	if f == nil {
		c.fail("undo", tid, "log append for %v with no open frame", va.Block())
		return
	}
	f.undo = append(f.undo, undoRec{va: va.Block(), old: *old})
}

// OnCommit validates and retires the frame at the given depth (the depth
// before the engine decrements it).
func (c *Checker) OnCommit(tid, depth int, open bool) {
	if depth == 1 {
		c.activeTx--
		c.lastProgress = c.now()
		c.tripped = false
		if c.onOuterCommit != nil {
			c.onOuterCommit(tid)
		}
	}
	if !c.tracksFrames() {
		return
	}
	st := c.thread(tid)
	f := st.top()
	if f == nil {
		c.fail("shadow", tid, "commit at depth %d with no open frame", depth)
		return
	}
	st.frames = st.frames[:len(st.frames)-1]
	switch {
	case depth == 1:
		c.replayAndApply(tid, st, f, "commit")
	case open:
		// Open commit: the child's updates become permanent now and its
		// undo records are discarded; validate it as its own committed
		// transaction (reads may consult the parents' uncommitted
		// writes, which the paper's semantics make visible to the child).
		c.replayAndApply(tid, st, f, "open commit")
	default:
		// Closed commit: merge into the parent; the union keeps
		// accumulating until the outermost commit or an abort.
		parent := st.top()
		if parent == nil {
			c.fail("shadow", tid, "closed commit at depth %d with no parent frame", depth)
			return
		}
		parent.ops = append(parent.ops, f.ops...)
		for w, v := range f.writes {
			parent.writes[w] = v
		}
		parent.undo = append(parent.undo, f.undo...)
	}
}

// replayAndApply re-executes a committing frame's operation trace against
// the shadow: every read must return what an atomic execution at this
// commit point would, then the writes become the new committed state.
func (c *Checker) replayAndApply(tid int, st *txState, f *frame, what string) {
	if !c.cfg.Shadow {
		return
	}
	local := make(map[addr.PAddr]uint64, len(f.writes))
	for _, o := range f.ops {
		if o.write {
			local[o.word] = o.val
			continue
		}
		want, ok := local[o.word]
		if !ok {
			// Fall back to enclosing (still-uncommitted) frames, then
			// the committed shadow. For an outermost commit st.frames
			// is empty and this is exactly the shadow.
			want = c.expectRead(st, o.word)
		}
		if o.val != want {
			c.fail("shadow", tid, "%s replay: load %v observed %d, serial order requires %d",
				what, o.word, o.val, want)
		}
	}
	for w, v := range local {
		c.setShadowWord(w, v)
	}
}

// OnAbortFrame verifies one aborted frame immediately after the engine's
// LIFO log walk restored it: for every block the frame logged, memory
// (through the thread's current translations) must hold the pre-frame
// contents — the OLDEST record per block, which only a LIFO walk leaves.
func (c *Checker) OnAbortFrame(tid int, translate func(addr.VAddr) addr.PAddr, read func(addr.PAddr, *mem.Block)) {
	if !c.tracksFrames() {
		return
	}
	st := c.thread(tid)
	f := st.top()
	if f == nil {
		c.fail("undo", tid, "abort with no open frame")
		return
	}
	st.frames = st.frames[:len(st.frames)-1]
	if !c.cfg.UndoLIFO {
		return
	}
	seen := make(map[addr.VAddr]bool, len(f.undo))
	for _, rec := range f.undo {
		if seen[rec.va] {
			continue // a later record for the block must NOT win (LIFO)
		}
		seen[rec.va] = true
		var got mem.Block
		read(translate(rec.va).Block(), &got)
		if got != rec.old {
			c.fail("undo", tid, "abort restore of %v left post-frame data (LIFO walk violated)", rec.va)
		}
	}
}

// OnAbortDone records the end of one abort; depth is the nesting depth
// after unwinding (0 = the outermost transaction aborted).
func (c *Checker) OnAbortDone(tid, depth int) {
	if depth == 0 {
		c.activeTx--
		// An abort releases isolation and makes room for a competitor:
		// for watchdog purposes the interesting pathology is "no commits
		// at all", so aborts do not reset the progress clock.
	}
	if !c.tracksFrames() {
		return
	}
	st := c.thread(tid)
	if depth == 0 && len(st.frames) != 0 {
		c.fail("shadow", tid, "outermost abort left %d tracked frames", len(st.frames))
		st.frames = nil
	}
}

// --- signature membership -----------------------------------------------------

// OnSigInsert verifies that the block just inserted for op o tests
// positive in the signature — the cheap per-access half of the
// no-false-negatives oracle.
func (c *Checker) OnSigInsert(tid int, sg *sig.Signature, o sig.Op, a addr.PAddr) {
	if !c.cfg.SigMembership || sg == nil {
		return
	}
	half := sg.ReadSet()
	if o == sig.Write {
		half = sg.WriteSet()
	}
	if !half.MayContain(a) {
		c.fail("signature", tid, "%v set lost block %v immediately after insert (false negative)", o, a.Block())
	}
}

// SigCovers verifies that a signature covers both exact sets — the full
// audit run after every signature restore (nested abort, open commit,
// reschedule, page relocation) and by the periodic audit tick.
func (c *Checker) SigCovers(tid int, where string, sg *sig.Signature, read, write map[addr.PAddr]bool) {
	if !c.cfg.SigMembership || sg == nil {
		return
	}
	var missing []string
	for a := range read {
		if !sg.ReadSet().MayContain(a) {
			missing = append(missing, fmt.Sprintf("R %v", a))
		}
	}
	for a := range write {
		if !sg.WriteSet().MayContain(a) {
			missing = append(missing, fmt.Sprintf("W %v", a))
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	if len(missing) > 8 {
		missing = append(missing[:8], fmt.Sprintf("... %d more", len(missing)-8))
	}
	c.fail("signature", tid, "%s: signature lost exact-set blocks (false negatives): %v", where, missing)
}

// StickyFail records one sticky-state/directory audit violation (the
// audit itself runs in the core engine, which owns the directory state).
func (c *Checker) StickyFail(tid int, detail string) {
	c.fail("sticky", tid, "%s", detail)
}

// --- paging -------------------------------------------------------------------

// OnPageRelocate rekeys all physical-address state from the old page to
// the new one after an OS page relocation (the data was copied, so values
// are unchanged; only the addresses moved).
func (c *Checker) OnPageRelocate(oldBase, newBase addr.PAddr) {
	if !c.cfg.Shadow {
		return
	}
	oldBase, newBase = oldBase.Page(), newBase.Page()
	remap := func(a addr.PAddr) (addr.PAddr, bool) {
		if a >= oldBase && a < oldBase+addr.PageBytes {
			return newBase + (a - oldBase), true
		}
		return a, false
	}
	for off := addr.PAddr(0); off < addr.PageBytes; off += addr.BlockBytes {
		if b, ok := c.shadow[oldBase+off]; ok {
			c.shadow[newBase+off] = b
			delete(c.shadow, oldBase+off)
		}
	}
	for _, st := range c.threads {
		for _, f := range st.frames {
			changed := false
			for i := range f.ops {
				if w, ok := remap(f.ops[i].word); ok {
					f.ops[i].word = w
					changed = true
				}
			}
			if !changed && len(f.writes) == 0 {
				continue
			}
			writes := make(map[addr.PAddr]uint64, len(f.writes))
			for w, v := range f.writes {
				w, _ = remap(w)
				writes[w] = v
			}
			f.writes = writes
		}
	}
}

// --- watchdog -----------------------------------------------------------------

// Evaluate runs the progress watchdog: with transactions active but no
// outermost commit for longer than the window, it records one failure
// carrying the engine's wait-for diagnosis, then stays quiet until the
// next commit. Driven by the engine's weak audit tick.
func (c *Checker) Evaluate(diagnose func() string) {
	if c.cfg.WatchdogWindow == 0 {
		return
	}
	now := c.now()
	if c.activeTx == 0 {
		c.lastProgress = now
		c.tripped = false
		return
	}
	if c.tripped || now-c.lastProgress <= c.cfg.WatchdogWindow {
		return
	}
	c.tripped = true
	detail := ""
	if diagnose != nil {
		detail = diagnose()
	}
	c.fail("watchdog", -1,
		"no outermost commit for %d cycles with %d active transactions (possible livelock/starvation)\n%s",
		now-c.lastProgress, c.activeTx, detail)
}

// ActiveTx reports the checker's view of currently active outermost
// transactions (tests).
func (c *Checker) ActiveTx() int { return c.activeTx }
