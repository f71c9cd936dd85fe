package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalog in step: same workloads, same metric names, units and directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, driver has %s", got, want)
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, catalog %d", kind, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}

// TestToyRunsEmitEveryMetric runs every workload untraced and traced at toy
// size and checks the result line: correct, and exactly the catalog's
// metrics with their units.
func TestToyRunsEmitEveryMetric(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 7, seconds: 1, trace: traced, out: t.TempDir(), size: toySizes()}
			res, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			var buf bytes.Buffer
			if err := report(&buf, cfg, res); err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var out struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, traced, err)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d (%v)", name, traced, out.Correct, out.Attempted, res.checkErr)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or mis-unit: %+v", name, traced, d.Name, m)
				}
				if !traced && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, *m.Value)
				}
			}
		}
	}
}

// TestCorruptedOutputsFailTheirChecks corrupts each workload's output and
// expects its check to fail.
func TestCorruptedOutputsFailTheirChecks(t *testing.T) {
	size := toySizes()
	cfg := runConfig{seed: 3, seconds: 1, out: t.TempDir(), size: size}

	t.Run("offline_devex", func(t *testing.T) {
		in := toyInstance(t, size)
		res, err := core.LPPacking(in, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		o := newOutcome()
		checkOffline(o, in, res.Arrangement, res.Utility, res.LPObjective)
		if o.checkErr != nil {
			t.Fatalf("clean output failed: %v", o.checkErr)
		}
		o = newOutcome()
		checkOffline(o, in, res.Arrangement, res.Utility, res.Utility/2)
		if o.checkErr == nil {
			t.Error("utility above the LP bound passed")
		}
		o = newOutcome()
		bad := res.Arrangement.Clone()
		addUnbidEvent(in, bad)
		checkOffline(o, in, bad, res.Utility, res.LPObjective)
		if o.checkErr == nil {
			t.Error("arrangement with an event nobody bid on passed")
		}
	})

	t.Run("replan_churn", func(t *testing.T) {
		in, p, _, err := newPlannerFor(cfg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		ch := newChurn(in, 1)
		res, err := p.Update(ch.next())
		if err != nil {
			t.Fatal(err)
		}
		o := newOutcome()
		checkReplan(o, p, in, res)
		if o.checkErr != nil {
			t.Fatalf("clean output failed: %v", o.checkErr)
		}
		bad := *res
		bad.Utility += 1e-9
		o = newOutcome()
		checkReplan(o, p, in, &bad)
		if o.checkErr == nil {
			t.Error("Update result with altered utility passed")
		}
	})

	for _, p := range []profile{
		{zipfS: 1.1, readShare: 0.2, rebidShare: 0.01, build: newSingleStack},
		{build: newClusterStack},
	} {
		st, err := p.build(cfg, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		g := newGen(cfg, p, st, nil)
		granted := -1
		for u := 0; u < size.serveUsers && granted < 0; u++ {
			status, n := g.do(opBid, u)
			if status == 200 && n > 0 {
				granted = u
			}
		}
		g.close()
		if granted < 0 {
			st.close()
			t.Fatal("no bid was granted")
		}
		o := newOutcome()
		checkStack(o, st)
		if o.checkErr != nil {
			t.Errorf("clean deployment failed: %v", o.checkErr)
		}
		// close every event the user holds: the served arrangement is now
		// over capacity for the instance it is validated against
		for v := range st.in.Events {
			st.in.Events[v].Capacity = 0
		}
		o = newOutcome()
		checkStack(o, st)
		if o.checkErr == nil {
			t.Error("over-capacity deployment passed")
		}
		st.close()
	}
}

func toyInstance(t *testing.T, size sizes) *model.Instance {
	t.Helper()
	in, err := workload.Synthetic(workload.SyntheticConfig{
		NumUsers: size.offlineUsers, NumEvents: size.offlineEvents, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// addUnbidEvent gives the first user an event they did not bid on.
func addUnbidEvent(in *model.Instance, a *model.Arrangement) {
	for v := range in.Events {
		if !model.Contains(in.Users[0].Bids, v) {
			a.Sets[0] = append(a.Sets[0], v)
			return
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// toySizes keep the self-test fast.
func toySizes() sizes {
	return sizes{
		offlineUsers: 120, offlineEvents: 16,
		replanUsers: 80, replanEvents: 12,
		serveUsers: 200, serveEvents: 20,
		refRate:    300,
		checkEvery: 4,
	}
}
