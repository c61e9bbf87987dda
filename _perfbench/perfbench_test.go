package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	pact "repro"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/stamp"
)

func TestSameSeedGivesIdenticalDecks(t *testing.T) {
	for _, w := range reduceWorkloads {
		a, err := seededDeck(w.deck, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := seededDeck(w.deck, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 7 gave two different decks", w.name)
		}
	}
	a, err := mixDecks(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mixDecks(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.decks) != len(b.decks) {
		t.Fatalf("rcfitd-mix: %d decks, then %d", len(a.decks), len(b.decks))
	}
	for i := range a.decks {
		if a.decks[i].text != b.decks[i].text || query(a.decks[i].opts) != query(b.decks[i].opts) {
			t.Fatalf("rcfitd-mix: request %s differs between two set-ups from seed 7", a.decks[i].name)
		}
	}
}

func TestOtherSeedKeepsTopologyAndPorts(t *testing.T) {
	parse := func(seed int64) (*netlist.Deck, []string) {
		text, err := seededDeck(wideband256, seed)
		if err != nil {
			t.Fatal(err)
		}
		d, err := netlist.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := stamp.Extract(d)
		if err != nil {
			t.Fatal(err)
		}
		return d, ex.PortNames
	}
	a, pa := parse(1)
	b, pb := parse(2)
	if len(pa) != 256 || len(pa) != len(pb) {
		t.Fatalf("ports: %d and %d, want 256", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("port %d: %s and %s", i, pa[i], pb[i])
		}
	}
	if len(a.Elements) != len(b.Elements) {
		t.Fatalf("%d and %d elements", len(a.Elements), len(b.Elements))
	}
	differ := 0
	for i, ea := range a.Elements {
		eb := b.Elements[i]
		if ea.Name() != eb.Name() || !sameNodes(ea.Nodes(), eb.Nodes()) {
			t.Fatalf("element %d: %s %v and %s %v", i, ea.Name(), ea.Nodes(), eb.Name(), eb.Nodes())
		}
		va, vb := value(ea), value(eb)
		if va == 0 {
			continue
		}
		if r := vb / va; r < 0.99/1.01 || r > 1.01/0.99 {
			t.Fatalf("%s: values %g and %g are more than the jitter apart", ea.Name(), va, vb)
		}
		if va != vb {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("seeds 1 and 2 gave the same values")
	}
}

func sameNodes(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func value(e netlist.Element) float64 {
	switch el := e.(type) {
	case *netlist.Resistor:
		return el.Value
	case *netlist.Capacitor:
		return el.Value
	}
	return 0
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the helper must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		value   float64
		q       float64
		comment string
	}{
		{1000, 990, 0.99, "enough samples for p99"},
		{50, 40, 0.8, "p80 is the highest with ten beyond"},
		{20, 10.5, 0.5, "never below the median"},
		{5, 3, 0.5, "a small sample reports its median"},
	} {
		v, q := tailPercentile(seq(tc.n), 0.99)
		if v != tc.value || q != tc.q {
			t.Errorf("n=%d (%s): got %g at q=%g, want %g at q=%g", tc.n, tc.comment, v, q, tc.value, tc.q)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > v {
				beyond++
			}
		}
		if q > 0.5 && beyond < minTail {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", tc.n, beyond)
		}
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 20 * ms, end: 50 * ms},  // overlaps a: counted once
		{name: "c", parent: 0, start: 90 * ms, end: 120 * ms}, // clipped to the parent
		{name: "a1", parent: 1, start: 12 * ms, end: 14 * ms}, // a grandchild: not root's child
	}
	if got := selfTime(spans, 0); got != 50*ms {
		t.Errorf("root self time %v, want 50ms", got)
	}
	if got := selfTime(spans, 1); got != 18*ms {
		t.Errorf("a self time %v, want 18ms", got)
	}
	if got := coverage(spans, 0); got != 0.5 {
		t.Errorf("root coverage %g, want 0.5", got)
	}

	r := newRecorder()
	p := r.begin("p", -1)
	r.end(p)
	r.spans[p].end = r.spans[p].start + 10*ms
	r.stage(p, "s1", int64(3*ms))
	r.stage(p, "s2", int64(4*ms))
	if got := selfTime(r.spans, p); got != 3*ms {
		t.Errorf("stage children laid end to end leave %v self time, want 3ms", got)
	}
}

func TestTracedPathMatchesPublicFlow(t *testing.T) {
	text := netgen.Ladder(200, 250, 1.35e-12).String()
	for _, opts := range []pact.Options{
		{FMax: 5e9, SparsifyTol: rcfitSparsify, Seed: 3},
		{FMax: 5e9, Shifts: []float64{5e9, 0}, MaxPoles: 8, Seed: 3},
	} {
		ctx := context.Background()
		u, err := untracedOp(ctx, text, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr, r, err := tracedOp(ctx, text, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sameModel(u.model, tr.model) || u.text != tr.text {
			t.Errorf("shifts %v: traced reduction differs from the public flow", opts.Shifts)
		}
		if u.counts() != tr.counts() {
			t.Errorf("shifts %v: counts %+v and %+v", opts.Shifts, u.counts(), tr.counts())
		}
		if err := checkOutput(tr); err != nil {
			t.Error(err)
		}
		if c := coverage(r.spans, 0); c < 0.95 {
			t.Errorf("shifts %v: top-level spans cover %.3f of the operation", opts.Shifts, c)
		}
		if tr.replayable() {
			if _, _, err := replayLanczos(ctx, tr, opts); err != nil {
				t.Error(err)
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricsMatchBenchmarkJSON checks every metric name's form and
// that the metrics the program prints are the ones BENCHMARK.json
// declares, with the same units, in the same order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(names))
	}
	for i, w := range spec.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, names[i])
		}
	}
}
