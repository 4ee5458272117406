package core

// LaneState reports how many retries the retry lane holds in its wheel
// and in far, and how many threads' pending continuation is a NACK
// retry (each must be one of the lane's entries).
func LaneState(s *System) (wheel, far, retrying int) {
	if len(s.lane.cells) != 0 {
		for i := 1; i <= laneSpan; i++ {
			for c := s.lane.cells[i].next; c != 0; c = s.lane.cells[c].next {
				wheel++
			}
		}
	}
	for _, t := range s.threads {
		if t.pendKind == pendRetry {
			retrying++
		}
	}
	return wheel, len(s.lane.far), retrying
}
