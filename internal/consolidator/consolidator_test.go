package consolidator

import (
	"slices"
	"testing"

	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

func inst(id int, name string, batch int) *engine.Instance {
	m := model.Llama2_7B
	m.Name = name
	i := &engine.Instance{
		ID: id, Model: m, Class: hwsim.A100, Share: 1,
		Cache: kvcache.NewCache(m, 1), State: engine.Active,
	}
	i.Cache.SetCapacity(64 * model.GiB)
	for k := 0; k < batch; k++ {
		r := engine.NewRequest(workload.Request{ID: int64(id*1000 + k), InputLen: 128, OutputLen: 50})
		i.Admit(r)
		i.CompletePrefill(r, sim.Time(0.1))
	}
	return i
}

func TestPreemptionVictimsOnlySmallerBatches(t *testing.T) {
	grower := inst(1, "A", 4)
	n1 := inst(2, "B", 2) // smaller: eligible
	n2 := inst(3, "C", 6) // larger: protected
	n3 := inst(4, "D", 1) // smallest: first victim
	n4 := inst(5, "A", 1) // same model: never a victim
	victims := PreemptionVictims(grower, []*engine.Instance{n1, n2, n3, n4, grower})
	if len(victims) != 2 {
		t.Fatalf("victims = %d, want 2", len(victims))
	}
	if victims[0] != n3 || victims[1] != n1 {
		t.Fatalf("victim order wrong: got IDs %d, %d", victims[0].ID, victims[1].ID)
	}
}

func TestPreemptionSkipsNonActive(t *testing.T) {
	grower := inst(1, "A", 4)
	v := inst(2, "B", 1)
	v.State = engine.Loading
	if got := PreemptionVictims(grower, []*engine.Instance{v}); len(got) != 0 {
		t.Fatal("a loading neighbour must not be preempted")
	}
}

func TestRouteOrderLargestFirst(t *testing.T) {
	a := inst(1, "A", 2)
	b := inst(2, "A", 5)
	c := inst(3, "A", 3)
	order := []*engine.Instance{a, b, c}
	SortRoute(order)
	if order[0] != b || order[1] != c || order[2] != a {
		t.Fatalf("order = %d,%d,%d, want 2,3,1", order[0].ID, order[1].ID, order[2].ID)
	}
}

func TestSortPlaceBestFitCPUFirst(t *testing.T) {
	cands := func() []NodeScore {
		return []NodeScore{
			{NodeIdx: 0, FreeBytes: 100, IsCPU: false},
			{NodeIdx: 1, FreeBytes: 50, IsCPU: false},
			{NodeIdx: 2, FreeBytes: 70, IsCPU: true},
			{NodeIdx: 3, FreeBytes: 50, IsCPU: false}, // ties node 1: index breaks it
		}
	}
	order := func(got []NodeScore) []int {
		var idx []int
		for _, c := range got {
			idx = append(idx, c.NodeIdx)
		}
		return idx
	}
	got := cands()
	SortPlace(got, true)
	if want := []int{2, 1, 3, 0}; !slices.Equal(order(got), want) {
		t.Fatalf("CPU-first best-fit order = %v, want %v", order(got), want)
	}
	// Without CPU preference, pure best fit.
	got = cands()
	SortPlace(got, false)
	if want := []int{1, 3, 2, 0}; !slices.Equal(order(got), want) {
		t.Fatalf("best-fit order = %v, want %v", order(got), want)
	}
	// Dropping a candidate leaves the others in the same relative order.
	got = append(cands()[:1], cands()[2:]...)
	SortPlace(got, true)
	if want := []int{2, 3, 0}; !slices.Equal(order(got), want) {
		t.Fatalf("order without node 1 = %v, want %v", order(got), want)
	}
}
