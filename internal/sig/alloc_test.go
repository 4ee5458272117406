package sig

import (
	"testing"

	"logtmse/internal/addr"
)

// allocConfigs covers every filter kind on the hot Insert/Conflict path.
func allocConfigs() []Config {
	return []Config{
		{Kind: KindPerfect},
		{Kind: KindBitSelect, Bits: 2048},
		{Kind: KindDoubleBitSelect, Bits: 2048},
		{Kind: KindCoarseBitSelect, Bits: 2048},
		{Kind: KindH3, Bits: 2048, Hashes: 4},
	}
}

// TestInsertConflictZeroAlloc guards the signature hot path: once warmed
// to its working set, INSERT and CONFLICT must not allocate for any
// filter kind.
func TestInsertConflictZeroAlloc(t *testing.T) {
	for _, c := range allocConfigs() {
		t.Run(c.String(), func(t *testing.T) {
			s := MustSignature(c)
			// Warm: grow the perfect filter's table to the working set.
			for i := 0; i < 256; i++ {
				s.Insert(Read, addr.PAddr(i*addr.BlockBytes))
				s.Insert(Write, addr.PAddr((i+4096)*addr.BlockBytes))
			}
			i := 0
			if n := testing.AllocsPerRun(1000, func() {
				a := addr.PAddr((i % 256) * addr.BlockBytes)
				s.Insert(Read, a)
				s.Insert(Write, a)
				i++
			}); n != 0 {
				t.Errorf("Insert allocated %.1f/op, want 0", n)
			}
			i = 0
			if n := testing.AllocsPerRun(1000, func() {
				a := addr.PAddr((i % 512) * addr.BlockBytes)
				_ = s.Conflict(Read, a)
				_ = s.Conflict(Write, a)
				i++
			}); n != 0 {
				t.Errorf("Conflict allocated %.1f/op, want 0", n)
			}
		})
	}
}

// TestPerfectMatchesMap cross-checks the open-addressed perfect filter
// against a reference map under a deterministic mixed workload.
func TestPerfectMatchesMap(t *testing.T) {
	p := NewPerfect()
	ref := map[addr.PAddr]struct{}{}
	x := uint64(0x2545F4914F6CDD1D)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a := addr.PAddr((x % 4096) * addr.BlockBytes)
		switch x % 3 {
		case 0:
			p.Insert(a)
			ref[a.Block()] = struct{}{}
		default:
			_, want := ref[a.Block()]
			if got := p.MayContain(a); got != want {
				t.Fatalf("step %d: MayContain(%v) = %v, want %v", i, a, got, want)
			}
		}
	}
	if p.PopCount() != len(ref) {
		t.Fatalf("PopCount = %d, want %d", p.PopCount(), len(ref))
	}
	p.Clear()
	if !p.Empty() || p.PopCount() != 0 {
		t.Fatalf("Clear did not empty the filter")
	}
	for a := range ref {
		if p.MayContain(a) {
			t.Fatalf("cleared filter still contains %v", a)
		}
	}
}

// TestPerfectUnionClone exercises the set-level operations of the
// open-addressed perfect filter.
func TestPerfectUnionClone(t *testing.T) {
	a := NewPerfect()
	b := NewPerfect()
	for i := 0; i < 100; i++ {
		a.Insert(addr.PAddr(i * addr.BlockBytes))
		b.Insert(addr.PAddr((i + 50) * addr.BlockBytes))
	}
	c := a.Clone()
	if err := c.Union(b); err != nil {
		t.Fatal(err)
	}
	if c.PopCount() != 150 {
		t.Fatalf("union PopCount = %d, want 150", c.PopCount())
	}
	for i := 0; i < 150; i++ {
		if !c.MayContain(addr.PAddr(i * addr.BlockBytes)) {
			t.Fatalf("union missing block %d", i)
		}
	}
	if a.PopCount() != 100 {
		t.Fatalf("Clone mutated the source: PopCount = %d", a.PopCount())
	}
}

func BenchmarkSignatureInsert(b *testing.B) {
	for _, c := range allocConfigs() {
		b.Run(c.String(), func(b *testing.B) {
			s := MustSignature(c)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Insert(Read, addr.PAddr((i%1024)*addr.BlockBytes))
			}
		})
	}
}

func BenchmarkSignatureConflict(b *testing.B) {
	for _, c := range allocConfigs() {
		b.Run(c.String(), func(b *testing.B) {
			s := MustSignature(c)
			for i := 0; i < 512; i++ {
				s.Insert(Write, addr.PAddr(i*addr.BlockBytes))
			}
			b.ReportAllocs()
			b.ResetTimer()
			var hits int
			for i := 0; i < b.N; i++ {
				if s.Conflict(Read, addr.PAddr((i%1024)*addr.BlockBytes)) {
					hits++
				}
			}
			_ = hits
		})
	}
}

// mustFilter builds one filter from c, panicking on a bad config (all
// configs here are valid by construction).
func mustFilter(c Config) Filter {
	f, err := c.New()
	if err != nil {
		panic(err)
	}
	return f
}

// BenchmarkInsert times the Insert loop per filter kind in the undo-log
// walk / summary-rebuild shape: dozens of blocks back to back into one
// filter.
func BenchmarkInsert(b *testing.B) {
	as := make([]addr.PAddr, 64)
	for i := range as {
		as[i] = addr.PAddr(i * 17 * addr.BlockBytes)
	}
	for _, c := range allocConfigs() {
		f := mustFilter(c)
		b.Run(c.String()+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, a := range as {
					f.Insert(a)
				}
			}
		})
	}
}

// BenchmarkMayContain times membership per filter kind in the broadcast
// shape: one address tested against many same-geometry filters.
func BenchmarkMayContain(b *testing.B) {
	const filters = 32 // Contexts on the default machine
	for _, c := range allocConfigs() {
		fs := make([]Filter, filters)
		for i := range fs {
			fs[i] = mustFilter(c)
			for j := 0; j < 256; j++ {
				fs[i].Insert(addr.PAddr((i + j*31) * addr.BlockBytes))
			}
		}
		b.Run(c.String()+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			var hits int
			for i := 0; i < b.N; i++ {
				a := addr.PAddr((i % 4096) * addr.BlockBytes)
				for _, f := range fs {
					if f.MayContain(a) {
						hits++
					}
				}
			}
			_ = hits
		})
	}
}
