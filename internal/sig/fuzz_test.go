package sig

import (
	"testing"

	"logtmse/internal/addr"
)

// FuzzNoFalseNegatives drives arbitrary insert/probe interleavings at
// every filter implementation: an inserted block must always test
// positive until the next Clear — the correctness property everything
// else rests on.
func FuzzNoFalseNegatives(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		filters := map[string]Filter{}
		for _, cfg := range []Config{
			{Kind: KindPerfect},
			{Kind: KindBitSelect, Bits: 128},
			{Kind: KindCoarseBitSelect, Bits: 128},
			{Kind: KindDoubleBitSelect, Bits: 128},
			{Kind: KindH3, Bits: 128, Hashes: 3},
		} {
			fl, err := cfg.New()
			if err != nil {
				t.Fatal(err)
			}
			filters[cfg.String()] = fl
		}
		live := map[addr.PAddr]bool{}
		for i := 0; i+8 <= len(data); i += 8 {
			var a addr.PAddr
			for j := 0; j < 8; j++ {
				a |= addr.PAddr(data[i+j]) << (8 * j)
			}
			a = (a % (1 << 34)).Block()
			switch data[i] % 4 {
			case 0, 1: // insert
				for _, fl := range filters {
					fl.Insert(a)
				}
				live[a] = true
			case 2: // probe all live members
				for name, fl := range filters {
					for m := range live {
						if !fl.MayContain(m) {
							t.Fatalf("%s: false negative for %v", name, m)
						}
					}
				}
			case 3: // clear
				for _, fl := range filters {
					fl.Clear()
				}
				live = map[addr.PAddr]bool{}
			}
		}
	})
}
