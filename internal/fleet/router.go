package fleet

// Candidate is one replica's routing snapshot: whether its chip is up, the
// in-flight load, and the health penalty (0 = perfectly healthy). Pick is
// a pure function over candidates so the live router (Group.Acquire) and
// the harness's virtual-time fleet simulation (E24) share one scoring
// implementation.
type Candidate struct {
	Available bool
	Load      float64
	Health    float64
}

// Pick selects the candidate index to route to, or -1 when none is
// available.
//
//   - RoundRobin starts at rr mod n and takes the first available
//     candidate — blind to both load and health.
//   - HealthAware minimizes load + HealthWeight·health; ties break to the
//     lowest index, so scoring is deterministic for a given snapshot.
func Pick(policy Policy, rr int64, cands []Candidate) int {
	n := len(cands)
	if n == 0 {
		return -1
	}
	if policy == HealthAware {
		best := -1
		var bestScore float64
		for i, c := range cands {
			if !c.Available {
				continue
			}
			score := c.Load + float64(HealthWeight*c.Health)
			if best < 0 || score < bestScore {
				best, bestScore = i, score
			}
		}
		return best
	}
	start := int(rr % int64(n))
	if start < 0 {
		start += n
	}
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if cands[i].Available {
			return i
		}
	}
	return -1
}
