package core

// LaneState reports how many continuations the lane holds in its wheel
// and in far, how many threads have a continuation pending, of any kind
// (each must be one of the lane's entries), and how many of those are
// NACK retries.
func LaneState(s *System) (wheel, far, pending, retrying int) {
	for i := 1; i <= laneSpan; i++ {
		for c := s.lane.cells[i].next; c != 0; c = s.lane.cells[c].next {
			wheel++
		}
	}
	for _, t := range s.threads {
		if t.pendKind != pendNone {
			pending++
		}
		if t.pendKind == pendRetry {
			retrying++
		}
	}
	return wheel, s.lane.far.Len(), pending, retrying
}

// PerRetry makes every lane step run through runCont, so each NACK
// retry re-validates its verdict and no retry runs as a storm step.
func PerRetry(s *System) { s.laneStep = s.runCont }

// StormMarked reports how many threads wait on a retry whose lane cell
// is marked for a storm step.
func StormMarked(s *System) (n int) {
	for _, t := range s.threads {
		if t.pendKind == pendRetry && s.lane.cells[laneAnchors+t.ID].gen == s.replayGen+1 {
			n++
		}
	}
	return n
}
