package sig

import (
	"math/rand"
	"testing"

	"logtmse/internal/addr"
)

func TestH3DefaultsAndValidation(t *testing.T) {
	f, err := NewH3(2048, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Insert(0x40)
	if got := f.PopCount(); got != 4 {
		t.Errorf("default hash count sets %d bits, want 4", got)
	}
	if _, err := NewH3(100, 4); err == nil {
		t.Errorf("non-power-of-two size accepted")
	}
	if _, err := NewH3(64, 9); err == nil {
		t.Errorf("hash count 9 accepted")
	}
	if _, err := NewH3(64, -1); err == nil {
		t.Errorf("negative hash count accepted")
	}
}

func TestH3FewerFalsePositivesThanBSAtSameSize(t *testing.T) {
	// The point of multi-hash signatures: at equal bit budget and
	// moderate occupancy, H3 aliases less than bit-select.
	const bits = 1024
	const members = 48
	rng := rand.New(rand.NewSource(17))
	bs, _ := NewBitSelect(bits)
	h, _ := NewH3(bits, 4)
	inserted := make(map[addr.PAddr]bool)
	for i := 0; i < members; i++ {
		a := addr.PAddr(rng.Uint64() % (1 << 32)).Block()
		bs.Insert(a)
		h.Insert(a)
		inserted[a] = true
	}
	bsFP, h3FP := 0, 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		a := addr.PAddr(rng.Uint64() % (1 << 32)).Block()
		if inserted[a] {
			continue
		}
		if bs.MayContain(a) {
			bsFP++
		}
		if h.MayContain(a) {
			h3FP++
		}
	}
	if h3FP >= bsFP {
		t.Errorf("H3 false positives (%d) not below BS (%d) at %d members / %d bits",
			h3FP, bsFP, members, bits)
	}
}

func TestH3Saturation(t *testing.T) {
	// A tiny H3 with many members saturates: everything aliases — the
	// conservative (never false-negative) extreme.
	f, _ := NewH3(64, 4)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		f.Insert(addr.PAddr(rng.Uint64() % (1 << 32)))
	}
	hits := 0
	for i := 0; i < 100; i++ {
		if f.MayContain(addr.PAddr(rng.Uint64() % (1 << 32))) {
			hits++
		}
	}
	if hits < 95 {
		t.Errorf("saturated H3 only matched %d/100 probes", hits)
	}
}

func TestH3ConfigString(t *testing.T) {
	if got := (Config{Kind: KindH3, Bits: 2048}).String(); got != "H3x4_2048" {
		t.Errorf("config string = %q", got)
	}
	if got := (Config{Kind: KindH3, Bits: 64, Hashes: 2}).String(); got != "H3x2_64" {
		t.Errorf("config string = %q", got)
	}
	if KindH3.String() != "H3" {
		t.Errorf("kind string = %q", KindH3.String())
	}
}
