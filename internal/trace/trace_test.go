package trace

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"logtmse/internal/addr"
	"logtmse/internal/core"
)

func buildSample() *Trace {
	t := &Trace{}
	t.Begin()
	t.Load(0x1000)
	t.Store(0x1000, 7)
	t.Begin()
	t.FetchAdd(0x2000, 3)
	t.Commit()
	t.BeginOpen()
	t.FetchAdd(0x3000, 1)
	t.Commit()
	t.Compute(50)
	t.Commit()
	t.WorkUnit()
	return t
}

func TestValidate(t *testing.T) {
	if err := buildSample().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Trace{}
	bad.Commit()
	if bad.Validate() == nil {
		t.Errorf("commit without begin accepted")
	}
	bad2 := &Trace{}
	bad2.Begin()
	if bad2.Validate() == nil {
		t.Errorf("unclosed begin accepted")
	}
	bad3 := &Trace{Ops: []Op{{Kind: Kind(99)}}}
	if bad3.Validate() == nil {
		t.Errorf("bad kind accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := buildSample()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(tr.Ops) {
		t.Fatalf("op count %d != %d", len(got.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if got.Ops[i] != tr.Ops[i] {
			t.Errorf("op %d: %+v != %+v", i, got.Ops[i], tr.Ops[i])
		}
	}
}

func TestEncodeDecodeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		tr := &Trace{}
		depth := 0
		for i := 0; i < 200; i++ {
			switch rng.Intn(7) {
			case 0:
				tr.Load(addr.VAddr(rng.Uint64() % (1 << 30)))
			case 1:
				tr.Store(addr.VAddr(rng.Uint64()%(1<<30)), rng.Uint64())
			case 2:
				tr.FetchAdd(addr.VAddr(rng.Uint64()%(1<<30)), rng.Uint64()%100)
			case 3:
				tr.Compute(rng.Uint64() % 1000)
			case 4:
				if depth < 3 {
					tr.Begin()
					depth++
				}
			case 5:
				if depth > 0 {
					tr.Commit()
					depth--
				}
			case 6:
				tr.WorkUnit()
			}
		}
		for ; depth > 0; depth-- {
			tr.Commit()
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ops) != len(tr.Ops) {
			t.Fatalf("trial %d: op count mismatch", trial)
		}
		for i := range tr.Ops {
			if got.Ops[i] != tr.Ops[i] {
				t.Fatalf("trial %d op %d mismatch", trial, i)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(strings.NewReader("")); err == nil {
		t.Errorf("empty input accepted")
	}
	if _, err := Decode(strings.NewReader("XXXXXX")); err == nil {
		t.Errorf("bad magic accepted")
	}
	// Truncated body.
	tr := buildSample()
	var buf bytes.Buffer
	tr.Encode(&buf)
	if _, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()-2])); err == nil {
		t.Errorf("truncated trace accepted")
	}
	// Unbalanced trace rejected at decode (Validate runs).
	unbal := &Trace{}
	unbal.Begin()
	unbal.Load(0x40)
	var b2 bytes.Buffer
	unbal.Encode(&b2)
	if _, err := Decode(&b2); err == nil {
		t.Errorf("unbalanced trace accepted by Decode")
	}
}

func smallParams() core.Params {
	p := core.DefaultParams()
	p.Cores = 4
	p.GridW, p.GridH = 2, 2
	p.L2Banks = 4
	return p
}

func TestPlayExecutesTrace(t *testing.T) {
	s, err := core.NewSystem(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	pt := s.NewPageTable(1)
	tr := buildSample()
	var playErr error
	s.SpawnOn(0, 0, "player", 1, pt, func(a *core.API) {
		playErr = Play(a, tr)
	})
	s.Run()
	if !s.AllDone() {
		t.Fatalf("stuck: %v", s.Stuck())
	}
	if playErr != nil {
		t.Fatal(playErr)
	}
	if got := s.Mem.ReadWord(pt.Translate(0x1000)); got != 7 {
		t.Errorf("store lost: %d", got)
	}
	if got := s.Mem.ReadWord(pt.Translate(0x2000)); got != 3 {
		t.Errorf("nested fetchadd lost: %d", got)
	}
	if got := s.Mem.ReadWord(pt.Translate(0x3000)); got != 1 {
		t.Errorf("open fetchadd lost: %d", got)
	}
	st := s.Stats()
	if st.Commits != 1 || st.NestedCommits != 2 || st.OpenCommits != 1 || st.WorkUnits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPlayInvalidTrace(t *testing.T) {
	s, err := core.NewSystem(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	pt := s.NewPageTable(1)
	bad := &Trace{}
	bad.Begin()
	var playErr error
	s.SpawnOn(0, 0, "player", 1, pt, func(a *core.API) {
		playErr = Play(a, bad)
	})
	s.Run()
	if playErr == nil {
		t.Errorf("unbalanced trace played without error")
	}
}

// Conflicting traces on two threads: replay must survive aborts and
// preserve atomicity (the counter ends exactly at the traced total).
func TestPlayConflictingTracesAtomic(t *testing.T) {
	s, err := core.NewSystem(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	pt := s.NewPageTable(1)
	mk := func(n int) *Trace {
		tr := &Trace{}
		for i := 0; i < n; i++ {
			tr.Begin()
			tr.FetchAdd(0x9000, 1)
			tr.Compute(30)
			tr.FetchAdd(0xa000, 1)
			tr.Commit()
			tr.Compute(40)
		}
		return tr
	}
	for c := 0; c < 4; c++ {
		tr := mk(20)
		s.SpawnOn(c, 0, "p", 1, pt, func(a *core.API) {
			if err := Play(a, tr); err != nil {
				t.Error(err)
			}
		})
	}
	s.Run()
	if !s.AllDone() {
		t.Fatalf("stuck: %v", s.Stuck())
	}
	if got := s.Mem.ReadWord(pt.Translate(0x9000)); got != 80 {
		t.Errorf("counter = %d, want 80", got)
	}
	if got := s.Mem.ReadWord(pt.Translate(0xa000)); got != 80 {
		t.Errorf("counter2 = %d, want 80", got)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindLoad, KindStore, KindFetchAdd, KindCompute, KindBegin, KindBeginOpen, KindCommit, KindWorkUnit}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d string %q empty or duplicate", k, s)
		}
		seen[s] = true
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Errorf("unknown kind string")
	}
}

// TestDecodeForgedCountAllocatesLittle: a header claiming ~100M ops
// followed by almost nothing must fail without first reserving memory
// for every claimed op (about 2.5 GB for this input).
func TestDecodeForgedCountAllocatesLittle(t *testing.T) {
	data := []byte("LTMT\x01\xaa\xaa\xaa1\xaa\xaa\xaa0")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Decode(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated trace decoded")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<22 {
		t.Fatalf("decoding a %d-byte input allocated %d bytes", len(data), got)
	}
}
