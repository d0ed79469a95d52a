package main

import (
	"reflect"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	var s sampleSet
	for v := 100; v >= 1; v-- { // added out of order on purpose
		s.add(float64(v))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.01, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {0.999, 100}, {1, 100},
	}
	for _, c := range cases {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s.n() != 100 || s.mean() != 50.5 {
		t.Errorf("n=%d mean=%v", s.n(), s.mean())
	}
	// Adding after a sort must re-sort.
	s.add(0)
	if got := s.quantile(0.001); got != 0 {
		t.Errorf("after add(0): min = %v, want 0", got)
	}
}

func TestQuantileSmallSets(t *testing.T) {
	var empty sampleSet
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	one := sampleSet{vals: []float64{7}}
	if got := one.quantile(0.99); got != 7 {
		t.Errorf("single-sample p99 = %v, want 7", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		want  float64
		label string
	}{
		{10000, 0.999, "p99.9"},
		{1000, 0.99, "p99"},
		{999, 0.95, "p95"},
		{200, 0.95, "p95"},
		{100, 0.9, "p90"},
		{40, 0.75, "p75"},
		{20, 0.5, "p50"},
		{12, 1, "max"},
	}
	for _, c := range cases {
		q := tailQuantile(c.n, 10)
		if q != c.want || quantileLabel(q) != c.label {
			t.Errorf("tailQuantile(%d) = %v (%s), want %v (%s)", c.n, q, quantileLabel(q), c.want, c.label)
		}
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	if a, b := genStream(7, 1), genStream(7, 1); !reflect.DeepEqual(a, b) {
		t.Fatal("genStream differs for one seed")
	}
	if a, b := genStream(7, 1), genStream(8, 1); reflect.DeepEqual(a, b) {
		t.Fatal("genStream ignores the seed")
	}
	if a, b := genChurn(7, 500), genChurn(7, 500); !reflect.DeepEqual(a, b) {
		t.Fatal("genChurn differs for one seed")
	}
}

func TestStreamCycleIsBalanced(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		jobs := genStream(seed, 2)
		if len(jobs) != 2*streamCycle {
			t.Fatalf("seed %d: %d jobs, want %d", seed, len(jobs), 2*streamCycle)
		}
		for c := 0; c < 2; c++ {
			pairs := map[[2]int]bool{}
			tenantGang := map[[2]int]bool{}
			for i, j := range jobs[c*streamCycle : (c+1)*streamCycle] {
				quarter := int((j.factor - 0.5) * 4)
				pairs[[2]int{j.learners, quarter}] = true
				tenantGang[[2]int{j.tenant, j.learners}] = true
				if i%4 == 3 {
					block := jobs[c*streamCycle+i-3 : c*streamCycle+i+1]
					seen := map[int]bool{}
					for _, bj := range block {
						seen[bj.learners] = true
					}
					if len(seen) != 4 {
						t.Fatalf("seed %d: block ending at %d has gang sizes %v", seed, i, block)
					}
				}
			}
			if len(pairs) != 16 || len(tenantGang) != 16 {
				t.Fatalf("seed %d cycle %d: %d (gang, quarter) pairs and %d (tenant, gang) pairs, want 16 each",
					seed, c, len(pairs), len(tenantGang))
			}
		}
		for i := 1; i < len(jobs); i++ {
			if jobs[i].arrival < jobs[i-1].arrival || jobs[i].arrival > streamSpan(len(jobs)) {
				t.Fatalf("seed %d: arrival %d out of order or past the span", seed, i)
			}
		}
	}
}

func TestModuleAttribution(t *testing.T) {
	cases := map[string]string{
		"repro/internal/raft.(*Node).run":                "raft",
		"repro/internal/core/guardian.(*Guardian).watch": "core",
		"repro.(*Client).WaitForState":                   "rpc",
		"repro/internal/etcd.(*Store).batchLoop":         "etcd",
		"repro/internal/trainsim.Run":                    "other",
		"main.(*streamRun).observe":                      "bench",
	}
	for fn, want := range cases {
		if got := moduleOf(funcPackage(fn)); got != want {
			t.Errorf("module of %s = %s, want %s", fn, got, want)
		}
	}
}
