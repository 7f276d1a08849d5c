package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/runner"
)

// runFleetWith drives the fleet in-process under arb, detaching one
// member a quarter of the way in so id-keyed arbiter state matters, and
// returns the records digest.
func runFleetWith(t *testing.T, f *fleet, arb cluster.Arbiter) string {
	t.Helper()
	members := make([]cluster.Member, len(f.members))
	for i, m := range f.members {
		ses, err := f.session(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = cluster.Member{ID: m.id, TargetBIPS: m.target, Session: ses}
	}
	c, err := cluster.New(cluster.Config{BudgetW: fleetBudget * f.peak, Arbiter: arb, Workers: 1}, members)
	if err != nil {
		t.Fatal(err)
	}
	var recs []cluster.EpochRecord
	for e := 0; ; e++ {
		if e == fleetEpochs/4 {
			if _, err := c.Detach(f.members[0].id); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := c.Step(context.Background())
		if errors.Is(err, cluster.ErrDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	d := newDigest()
	d.cluster(recs)
	return d.sum()
}

// bareArbiter exposes only the Arbiter interface, hiding the optional
// seams a forwarding wrapper must keep.
type bareArbiter struct{ cluster.Arbiter }

func TestTracedArbiterMatchesUnwrapped(t *testing.T) {
	f, err := buildFleet(1)
	if err != nil {
		t.Fatal(err)
	}
	want := runFleetWith(t, f, cluster.NewPredictiveArbiter())
	lay := &layers{}
	if got := runFleetWith(t, f, wrapArbiter(cluster.NewPredictiveArbiter(), lay)); got != want {
		t.Fatalf("traced arbiter records digest %s, unwrapped %s", got, want)
	}
	if lay.rebalance == 0 {
		t.Fatal("traced arbiter recorded no rebalance calls")
	}
	// The check is sensitive: a wrapper that drops the optional seams
	// sends the predictive arbiter to positional state, and the records
	// change once a member departs.
	if got := runFleetWith(t, f, bareArbiter{cluster.NewPredictiveArbiter()}); got == want {
		t.Fatal("a non-forwarding wrapper produced identical records; the fixture does not exercise id-keyed state")
	}
}

func TestTracedSessionMatchesUnwrapped(t *testing.T) {
	classes, err := simPaperClasses(1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(lay *layers) string {
		cfg := classes[0].cfg
		cfg.Epochs = 4
		cfg.Policy = wrapPolicy(policy.NewFastCap(), lay)
		var opts []runner.SessionOption
		if lay != nil {
			opts = append(opts, lay.profile())
		}
		ses, err := runner.NewSession(cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := ses.Step(context.Background()); errors.Is(err, runner.ErrDone) {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		d := newDigest()
		d.session(ses.Result().Epochs)
		return d.sum()
	}
	lay := &layers{}
	if got, want := run(lay), run(nil); got != want {
		t.Fatalf("traced session records digest %s, unwrapped %s", got, want)
	}
	if lay.epochs != 4 || lay.decides != 4 {
		t.Fatalf("traced %d platform epochs and %d decisions, want 4 each", lay.epochs, lay.decides)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables this command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit string
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a command workload", w.Name)
		}
	}
}
