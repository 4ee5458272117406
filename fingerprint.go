package logtmse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"

	"logtmse/internal/sig"
	"logtmse/internal/workload"
)

// FingerprintSchemaVersion versions the cell fingerprint. It must be
// bumped whenever simulated behavior changes — a new Params field, a
// protocol fix, a workload recalibration, anything that can alter the
// Stats a (RunConfig, seed) cell produces — so persisted cache entries
// written by older code can never be replayed as current results.
// Adding a field to RunConfig/Params already changes the hash by
// itself (the canonical encoding covers every field by name); the
// version exists for behavior changes that leave the config schema
// untouched. See DESIGN.md §9 for the policy.
//
// v2: Stats gained PossibleCycleAborts (the possible_cycle abort
// counter), changing the cached gob payload.
const FingerprintSchemaVersion = 2

// Cacheable reports whether a cell's result may be served from (or
// stored into) a result cache. Cells with an observer attached — an
// event Sink (a Profiler included), a Metrics registry or a
// FlightRecorder — are excluded: their value is the event stream, which
// the cache does not store. Stats are bit-identical with observers on
// or off, so excluding observed cells costs nothing but re-simulation
// time. Sabotaged cells are excluded too: a deliberately broken run
// must never be stored under (nor served from) the key of the correct
// cell the fingerprint names.
func Cacheable(rc RunConfig) bool {
	return !rc.observed() && !rc.Sabotage.Active()
}

// Fingerprint returns the canonical content address of one simulation
// cell: a stable hash over everything that determines its result — the
// schema version, workload, synchronization mode, signature config,
// scale, thread count, cycle bound, machine Params, oracle config and
// fault plan, plus the seed. Two cells hash equal iff the determinism
// guarantee makes their results byte-identical.
//
// Deliberately excluded: Variant.Name (a display label — Table 3's
// "Perfect" and Figure 4's "Perfect" are the same cell), Seeds and Jobs
// (orchestration, not behavior), and the observers (uncacheable; see
// Cacheable). Lock-mode cells additionally canonicalize the signature
// config to a fixed value: without a transaction, signatures are never
// inserted into nor consulted, so every variant's lock baseline is one
// shared cell.
func Fingerprint(rc RunConfig, seed int64) (string, error) {
	if !Cacheable(rc) {
		return "", fmt.Errorf("logtmse: cell with an observer or sabotage attached has no fingerprint")
	}
	rc = rc.withDefaults()
	p := *rc.Params
	p.Seed = seed
	p.Signature = rc.Variant.Sig
	if rc.Variant.Mode == workload.Lock {
		p.Signature = sig.Config{Kind: sig.KindPerfect}
	}

	h := sha256.New()
	fmt.Fprintf(h, "logtmse-cell-v%d;", FingerprintSchemaVersion)
	fmt.Fprintf(h, "workload=%q;mode=%d;", rc.Workload, rc.Variant.Mode)
	if err := canonical(h, "scale", reflect.ValueOf(rc.Scale)); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "threads=%d;max=%d;", rc.Threads, rc.MaxCycles)
	if err := canonical(h, "params", reflect.ValueOf(p)); err != nil {
		return "", err
	}
	if err := canonical(h, "checks", reflect.ValueOf(rc.Checks)); err != nil {
		return "", err
	}
	if err := canonical(h, "fault", reflect.ValueOf(rc.Fault)); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// canonical writes a stable, field-sensitive encoding of v: every
// scalar is emitted with its field path, so no two distinct configs
// share an encoding and flipping any single field changes the hash.
// Kinds that cannot be canonicalized (non-nil funcs, interfaces,
// channels, maps) are errors rather than silent omissions — a new
// uncoverable field must be excluded here explicitly or it poisons
// every fingerprint, never silently aliases two different cells.
func canonical(w io.Writer, name string, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		fmt.Fprintf(w, "%s=%t;", name, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%s=%d;", name, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "%s=%d;", name, v.Uint())
	case reflect.Float32, reflect.Float64:
		// Exact bit pattern: 0.1+0.2 and 0.3 are different cells.
		fmt.Fprintf(w, "%s=%016x;", name, math.Float64bits(v.Float()))
	case reflect.String:
		fmt.Fprintf(w, "%s=%q;", name, v.String())
	case reflect.Struct:
		fmt.Fprintf(w, "%s{", name)
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if err := canonical(w, t.Field(i).Name, v.Field(i)); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "};")
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(w, "%s=nil;", name)
			return nil
		}
		return canonical(w, name, v.Elem())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "%s[%d]{", name, v.Len())
		for i := 0; i < v.Len(); i++ {
			if err := canonical(w, fmt.Sprintf("%d", i), v.Index(i)); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "};")
	case reflect.Func, reflect.Interface, reflect.Chan, reflect.Map:
		if v.IsNil() {
			fmt.Fprintf(w, "%s=nil;", name)
			return nil
		}
		return fmt.Errorf("logtmse: field %s (kind %v) cannot be fingerprinted", name, v.Kind())
	default:
		return fmt.Errorf("logtmse: field %s (kind %v) cannot be fingerprinted", name, v.Kind())
	}
	return nil
}
