package harness

import (
	"math"
	"testing"

	"nora/internal/analog"
	"nora/internal/engine"
	"nora/internal/fleet"
)

// TestSimulateRoutingRoundRobin pins the round-robin arm of the virtual
// queueing sim: with every replica available the stream alternates exactly,
// blind to health and load.
func TestSimulateRoutingRoundRobin(t *testing.T) {
	reps := []SimReplica{{Health: 0, Service: 1}, {Health: 5, Service: 2}}
	stats := SimulateRouting(fleet.RoundRobin, reps, 100, 2)
	if stats.Served[0] != 50 || stats.Served[1] != 50 {
		t.Fatalf("round-robin should alternate exactly: served %v", stats.Served)
	}
	if stats.Share(1) != 0.5 {
		t.Fatalf("Share(1) = %g, want 0.5", stats.Share(1))
	}
}

// TestSimulateRoutingHealthAware pins the health arm: under light load all
// traffic lands on the healthy replica, and under sustained pressure the
// queue on the healthy replica eventually outweighs the health penalty and
// traffic spills to the worn one.
func TestSimulateRoutingHealthAware(t *testing.T) {
	reps := []SimReplica{{Health: 0, Service: 1}, {Health: 0.1, Service: 1.5}}

	// Arrival gap 2 > service 1: the healthy replica is always idle when
	// the next request lands, so nothing ever spills.
	light := SimulateRouting(fleet.HealthAware, reps, 50, 2)
	if light.Served[1] != 0 {
		t.Fatalf("light load should never touch the worn replica: served %v", light.Served)
	}
	if light.MeanWait != 0 || light.MaxWait != 0 {
		t.Fatalf("light load should never queue: mean %g max %g", light.MeanWait, light.MaxWait)
	}

	// Gap 0: everything arrives at once, the healthy queue builds past
	// HealthWeight·health = 10 and requests spill to the worn replica.
	burst := SimulateRouting(fleet.HealthAware, reps, 50, 0)
	if burst.Served[0] == 0 || burst.Served[1] == 0 {
		t.Fatalf("burst should spill across both replicas: served %v", burst.Served)
	}
	if burst.Served[0] <= burst.Served[1] {
		t.Fatalf("healthy replica should still carry the majority: served %v", burst.Served)
	}
	if burst.MaxWait <= burst.MeanWait || burst.MeanWait <= 0 {
		t.Fatalf("burst should queue: mean %g max %g", burst.MeanWait, burst.MaxWait)
	}
}

// TestSimulateRoutingDeterministic pins that the sim is a pure function:
// identical inputs give identical stats, including the saturation regime.
func TestSimulateRoutingDeterministic(t *testing.T) {
	reps := []SimReplica{{Health: 0.1, Service: 1.1}, {Health: 0, Service: 1}}
	a := SimulateRouting(fleet.HealthAware, reps, 300, 0.4)
	b := SimulateRouting(fleet.HealthAware, reps, 300, 0.4)
	if a.MeanWait != b.MeanWait || a.MaxWait != b.MaxWait || a.Served[0] != b.Served[0] {
		t.Fatalf("sim not deterministic: %+v vs %+v", a, b)
	}
	if a.MeanWait <= 0 {
		t.Fatal("two replicas at gap 0.4 with service >= 1 must saturate")
	}
}

// TestFleetSweep runs E24 end-to-end on the trained fixture and pins its
// qualitative contract: round-robin splits traffic evenly across the
// gradient fleet while the health arm shifts it off worn chips, and the
// whole study is bit-identical across fresh engines (content-keyed chip
// deployments, deterministic sim).
func TestFleetSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("needs trained fixture")
	}
	ws := []*Workload{tinyWorkload(t)}
	base := analog.PaperPreset()
	sizes := []int{1, 2}
	rates := []float64{0, 0.05}

	run := func() []FleetRow {
		return FleetSweep(engine.New(engine.Config{}), ws, base, sizes, rates, 200, 0.6)
	}
	rows := run()
	// A 1-chip fleet is the fresh implicit chip whatever the worst rate, so
	// size 1 runs at rate 0 only: 2 policies × (1 + 2) points.
	if want := 6; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	byKey := func(chips int, rate float64, policy string) FleetRow {
		for _, r := range rows {
			if r.Chips == chips && r.WorstRate == rate && r.Policy == policy {
				return r
			}
		}
		t.Fatalf("missing row (%d, %g, %s)", chips, rate, policy)
		return FleetRow{}
	}

	for _, r := range rows {
		if r.Digital < 0.9 {
			t.Errorf("row %+v: fixture digital accuracy too low", r)
		}
		if r.Accuracy <= 0 || r.Accuracy > 1 {
			t.Errorf("row %+v: served accuracy out of range", r)
		}
		if r.Chips == 1 && (r.WornShare != 0 || r.WorstRate > 0) {
			t.Errorf("row %+v: a 1-chip fleet is the fresh implicit chip, with no worst rate", r)
		}
	}

	rr := byKey(2, 0.05, fleet.RoundRobin.String())
	ha := byKey(2, 0.05, fleet.HealthAware.String())
	if rr.WornShare != 0.5 {
		t.Errorf("round-robin worn share = %g, want exactly 0.5", rr.WornShare)
	}
	if ha.WornShare >= rr.WornShare {
		t.Errorf("health-aware should route less traffic to the worn chip: %g >= %g", ha.WornShare, rr.WornShare)
	}

	// The fault-free point routes over identical fresh replicas: both
	// policies see the same accuracy.
	if a, b := byKey(2, 0, "roundrobin").Accuracy, byKey(2, 0, "health").Accuracy; math.Abs(a-b) > 1e-12 {
		t.Errorf("fault-free arms should agree on accuracy: %g vs %g", a, b)
	}

	again := run()
	for i := range rows {
		if rows[i] != again[i] {
			t.Fatalf("E24 not deterministic across fresh engines:\n  %+v\n  %+v", rows[i], again[i])
		}
	}
}

// TestGradientChips pins the canonical heterogeneous fleet builder.
func TestGradientChips(t *testing.T) {
	if got := fleet.GradientChips(1, 0.5); len(got) != 1 || got[0] != (fleet.ChipSpec{}) {
		t.Fatalf("1-chip fleet must be the implicit fresh chip, got %+v", got)
	}
	chips := fleet.GradientChips(4, 0.09)
	if chips[0] != (fleet.ChipSpec{}) {
		t.Fatalf("chip 0 must stay implicit, got %+v", chips[0])
	}
	for i := 1; i < 4; i++ {
		want := float32(0.09 * float64(i) / 3)
		if chips[i].ID != "chip"+string(rune('0'+i)) || chips[i].FaultRate != want || chips[i].FaultSA1Frac != 0.5 {
			t.Errorf("chip %d = %+v, want ID chip%d rate %g sa1 0.5", i, chips[i], i, want)
		}
	}
	for _, c := range fleet.GradientChips(3, 0)[1:] {
		if c.FaultRate != 0 || c.FaultSA1Frac != 0 {
			t.Errorf("zero gradient must keep chips fresh: %+v", c)
		}
	}
}
