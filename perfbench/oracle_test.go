package main

import (
	"encoding/json"
	"maps"
	"os"
	"strings"
	"testing"

	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// small is a contended-shaped workload small enough for unit tests.
func small() *spec {
	return &spec{name: "small", groupShift: 6, groupSize: 8, transfers: 1, reads: 2,
		auditPct: 10, zipfS: 1.5, rounds: 4}
}

// correctEpoch applies epoch e's transfers to a fresh bank one at a time,
// outside any runtime: the final state a correct program leaves.
func correctEpoch(w *spec, seed uint64, e int) bank {
	bk := newBank(w)
	g := newGen(w, seed)
	var o op
	for r := 0; r < w.rounds; r++ {
		g.startRound(e, r)
		for i := 0; i < roundOps; i++ {
			g.next(&o)
			if o.audit {
				continue
			}
			base := bk.base + mem.Addr(o.group)*mem.Addr(w.groupSize)
			for k := 0; k < w.transfers; k++ {
				from, to := base+mem.Addr(o.offs[2*k]), base+mem.Addr(o.offs[2*k+1])
				bk.heap.Store(from, bk.heap.Load(from)-1)
				bk.heap.Store(to, bk.heap.Load(to)+1)
			}
		}
	}
	return bk
}

// groupsBy returns two groups the epoch's ledger shows touched by at least
// two transfers, and one it shows untouched.
func groupsBy(t *testing.T, l *ledger) (hot1, hot2, cold uint64) {
	t.Helper()
	var hot []uint64
	cold = ^uint64(0)
	for g, n := range l.touched {
		if n >= 2 {
			hot = append(hot, uint64(g))
		}
		if n == 0 && cold == ^uint64(0) {
			cold = uint64(g)
		}
	}
	if len(hot) < 2 || cold == ^uint64(0) {
		t.Fatalf("epoch too small to plant faults: %d hot groups, cold %d", len(hot), cold)
	}
	return hot[0], hot[1], cold
}

func TestLedgerCountsPlantedFaults(t *testing.T) {
	w := small()
	bk := correctEpoch(w, 7, 3)
	l := newLedger(w)
	l.replay(newGen(w, 7), 3, w.rounds)
	if v, err := l.verify(bk.heap, bk.base, nil); err != nil || v != (verdict{}) {
		t.Fatalf("correct state: verdict %+v, err %v; want none", v, err)
	}

	lost, intact, _ := groupsBy(t, l)
	a := bk.base + mem.Addr(lost)*mem.Addr(w.groupSize)
	// Three lost units: one word short by 2, another over by 1.
	bk.heap.Store(a, bk.heap.Load(a)-2)
	bk.heap.Store(a+1, bk.heap.Load(a+1)+1)
	// A wrong audit on the intact group is one torn audit; one on the
	// group that lost units is already counted there.
	v, err := l.verify(bk.heap, bk.base, []uint64{intact, lost})
	if err != nil {
		t.Fatal(err)
	}
	if v.lostUnits != 3 || v.tornAudits != 1 {
		t.Fatalf("verdict %+v, want 3 lost units and 1 torn audit", v)
	}
}

func TestLedgerRejectsUnexplainedChanges(t *testing.T) {
	w := small()
	l := newLedger(w)
	l.replay(newGen(w, 7), 3, w.rounds)
	hot, _, cold := groupsBy(t, l)

	bk := correctEpoch(w, 7, 3)
	a := bk.base + mem.Addr(cold)*mem.Addr(w.groupSize)
	bk.heap.Store(a, bk.heap.Load(a)+1)
	if _, err := l.verify(bk.heap, bk.base, nil); err == nil || !strings.Contains(err.Error(), "no committed transfer") {
		t.Fatalf("changed word in an untouched group: err %v", err)
	}

	bk = correctEpoch(w, 7, 3)
	a = bk.base + mem.Addr(hot)*mem.Addr(w.groupSize)
	bk.heap.Store(a, bk.heap.Load(a)+mem.Word(2*l.touched[hot]+1))
	if _, err := l.verify(bk.heap, bk.base, nil); err == nil || !strings.Contains(err.Error(), "more than") {
		t.Fatalf("group off by more than its transfers moved: err %v", err)
	}
}

func TestGeneratorIsAFunctionOfSeedEpochRound(t *testing.T) {
	w := small()
	a, b := newLedger(w), newLedger(w)
	a.replay(newGen(w, 11), 2, w.rounds)
	b.replay(newGen(w, 11), 2, w.rounds)
	if !equal(a, b) {
		t.Fatal("same seed and epoch gave different transfers")
	}
	b.replay(newGen(w, 12), 2, w.rounds)
	if equal(a, b) {
		t.Fatal("different seeds gave the same transfers")
	}
}

func equal(a, b *ledger) bool {
	for i := range a.delta {
		if a.delta[i] != b.delta[i] {
			return false
		}
	}
	return true
}

// TestRecoveredHeapMismatchFails commits updates on one thread into a
// durable runtime, recovers its WAL, and checks that the recovery check
// passes as recovered and fails once one recovered word differs.
func TestRecoveredHeapMismatchFails(t *testing.T) {
	w := small()
	w.durable = true
	b := newBench(w, 5, false)
	if err := b.setUp(); err != nil {
		t.Fatal(err)
	}
	b.m = b.rt
	c := b.cl[0]
	const updates = 100
	for i := 0; i < updates; i++ {
		c.addr[0] = b.base + mem.Addr(i%w.words())
		c.addr[1] = b.base + mem.Addr((i*7+3)%w.words())
		if c.addr[0] == c.addr[1] {
			c.addr[1]++
		}
		if err := tm.Run(b.m, 0, c.updFn); err != nil {
			t.Fatal(err)
		}
	}
	b.rt.Close()

	fresh, _, records, err := b.recoverBank()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRecovered(b.bank, fresh, w.words(), records, updates); err != nil {
		t.Fatalf("faithful recovery rejected: %v", err)
	}
	a := fresh.base + 17
	fresh.heap.Store(a, fresh.heap.Load(a)+1)
	if err := checkRecovered(b.bank, fresh, w.words(), records, updates); err == nil {
		t.Fatal("recovered heap with one differing word accepted")
	}
	if err := checkRecovered(b.bank, fresh, w.words(), records, updates+1); err == nil {
		t.Fatal("WAL missing a committed update accepted")
	}
}

// declared reads the workloads and metrics BENCHMARK.json declares.
func declared(t *testing.T) (names []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return names, endToEnd, perLayer
}

// TestMeasureSmoke runs each workload shape at unit-test size through the
// whole measurement, traced and not, and checks that each run reports
// exactly the metrics BENCHMARK.json declares, with their units. The
// lost-update fault may show here, so only the other checks are asserted.
func TestMeasureSmoke(t *testing.T) {
	names, endToEnd, perLayer := declared(t)
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v, program runs %s at %d", names, w.name, i)
		}
	}
	shapes := []*spec{
		small(),
		{name: "wide-small", groupShift: 4, groupSize: 256, transfers: 8, reads: 48, auditPct: 10, rounds: 2},
		{name: "durable-small", groupShift: 6, groupSize: 8, transfers: 1, reads: 2, auditPct: 10, durable: true, rounds: 4},
	}
	for _, w := range shapes {
		for _, traced := range []bool{false, true} {
			var out strings.Builder
			res, err := measure(w, 3, 0.01, traced, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			epochOps := uint64(w.rounds * roundOps)
			if !res.Correct || res.Attempted == 0 || res.Attempted%epochOps != 0 || res.Failed != 0 {
				t.Fatalf("%s traced=%v: %+v", w.name, traced, res)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !maps.Equal(got, want) {
				t.Fatalf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", w.name, traced, got, want)
			}
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
