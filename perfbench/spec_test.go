package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestScheduleDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a, err := newSpec(w, 7, 10, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := newSpec(w, 7, 10, 0)
			c, _ := newSpec(w, 8, 10, 0)
			if !bytes.Equal(a.schedules(), b.schedules()) {
				t.Error("same seed gave different request or update schedules")
			}
			if bytes.Equal(a.schedules(), c.schedules()) {
				t.Error("different seeds gave identical schedules")
			}
			if len(a.reqs) != int(a.rate*a.seconds) {
				t.Errorf("scheduled %d requests, want %v", len(a.reqs), a.rate*a.seconds)
			}
			if last := a.reqs[len(a.reqs)-1].at.Seconds(); last > a.seconds {
				t.Errorf("last request due at %vs, past the %vs phase", last, a.seconds)
			}
			for i := range a.objects {
				o := &a.objects[i]
				for r := 1; r < len(o.updates); r++ {
					if o.updates[r]-o.updates[r-1] < minUpdateGap {
						t.Fatalf("%s: updates %v apart", o.path, o.updates[r]-o.updates[r-1])
					}
				}
				if !bytes.Equal(a.body(nil, i, o.revisions()-1), b.body(nil, i, o.revisions()-1)) {
					t.Fatalf("%s: body not reproducible", o.path)
				}
			}
		})
	}
}

func TestUpdateMixShape(t *testing.T) {
	s, err := newSpec("update-mix", 1, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	var updates, pagesUpdated int
	for i := range s.objects {
		o := &s.objects[i]
		updates += len(o.updates)
		if o.kind == kindQuote {
			continue
		}
		if o.size < 256 {
			t.Fatalf("%s: %d-byte body is below the delta floor", o.path, o.size)
		}
		if len(o.updates) > 0 {
			pagesUpdated++
			// An edit is a small in-place change.
			prev, cur := s.body(nil, i, 0), s.body(nil, i, 1)
			diff := 0
			for j := range prev {
				if prev[j] != cur[j] {
					diff++
				}
			}
			if len(prev) != len(cur) || diff == 0 || diff > 48 {
				t.Fatalf("%s: revision 1 changes %d of %d bytes", o.path, diff, len(prev))
			}
		}
	}
	if updates == 0 || pagesUpdated == 0 {
		t.Fatalf("no updates scheduled (%d, %d pages)", updates, pagesUpdated)
	}
}

// TestManifest keeps BENCHMARK.json's workload and metric lists in step
// with the names the benchmark prints.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: manifest %q/%q, benchmark %q/%q", i, w.Name, w.Why, workloads[i], workloadWhy[workloads[i]])
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s %d: manifest %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}
