package main

import (
	"fmt"
	"math/rand"

	pact "repro"
	"repro/internal/netgen"
	"repro/internal/netlist"
)

// rcfitSparsify is rcfit's default -sparsify threshold; the reduction
// workloads run the same flow rcfit does.
const rcfitSparsify = 1e-8

// reduceWorkload is a deck family reduced one deck at a time in a
// closed loop: parse, reduce, write, repeat.
type reduceWorkload struct {
	name string
	deck func() (*netlist.Deck, error)
	opts pact.Options
	// errDraws is how many jitter draws of the deck max_rel_err is the
	// mean over (0 means 1): where the kept poles change with the
	// values, one draw's error says little about the workload's.
	errDraws int
	// extra marks a workload that runs by name but is not declared in
	// BENCHMARK.json: the declared set's runs must fit the benchmark's
	// time budget (README.md, "Workloads").
	extra bool
}

var reduceWorkloads = []reduceWorkload{
	{
		// 317×317 grid, 16 ports, 100,473 internal nodes: the front end
		// (parse, stamp, order, factor) carries most of the time.
		name: "grid100k",
		deck: func() (*netlist.Deck, error) {
			d, _, err := netgen.PowerGrid(netgen.PowerGridPreset(100_000))
			return d, err
		},
		opts: pact.Options{FMax: 1e9, Tol: 0.05, SparsifyTol: rcfitSparsify},
	},
	{
		// 24×24 graded grid, 256 ports, 320 internal nodes, single
		// point, no pole cap: the Lanczos convergence checks dominate.
		name:  "wideband-sp",
		deck:  wideband256,
		opts:  pact.Options{FMax: 20e9, Tol: 0.05, SparsifyTol: rcfitSparsify},
		extra: true,
	},
	{
		// The same deck on the multi-point path with two expansion
		// points and 48 poles: shifted factorizations and basis union.
		name: "wideband-mp",
		deck: wideband256,
		opts: pact.Options{FMax: 20e9, Tol: 0.05, SparsifyTol: rcfitSparsify,
			Shifts: []float64{0, 20e9}, MaxPoles: 48},
		// The error of a 48-pole cap moves by ±20% between draws.
		errDraws: 8,
		extra:    true,
	},
}

func wideband256() (*netlist.Deck, error) {
	d, _, err := netgen.WideBand(netgen.WideBandPreset(256))
	return d, err
}

func findReduceWorkload(name string) (reduceWorkload, bool) {
	for _, w := range reduceWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return reduceWorkload{}, false
}

// jitter scales every resistor and capacitor value by its own factor
// drawn uniformly from [0.99, 1.01]. Elements are visited in deck
// order, so one seed always gives the same deck; topology, node names
// and ports are untouched.
func jitter(d *netlist.Deck, rng *rand.Rand) {
	for _, e := range d.Elements {
		switch el := e.(type) {
		case *netlist.Resistor:
			el.Value *= 0.99 + 0.02*rng.Float64()
		case *netlist.Capacitor:
			el.Value *= 0.99 + 0.02*rng.Float64()
		}
	}
}

// seededDeck builds a deck, jitters it with seed and returns its text.
func seededDeck(build func() (*netlist.Deck, error), seed int64) (string, error) {
	d, err := build()
	if err != nil {
		return "", err
	}
	jitter(d, rand.New(rand.NewSource(seed)))
	return d.String(), nil
}

// withProbes marks nodes as ports the way netgen's text decks do: a
// zero-current source from each node to ground.
func withProbes(d *netlist.Deck, ports []string) *netlist.Deck {
	for i, p := range ports {
		d.Elements = append(d.Elements, &netlist.ISource{Ident: fmt.Sprintf("ip%d", i), N1: p, N2: netlist.Ground})
	}
	return d
}

// meshDeck is a small 3-D substrate mesh with probed surface contacts.
func meshDeck(nx, ny, nz, ports int) (*netlist.Deck, error) {
	d, names, err := netgen.Mesh3D(netgen.MeshOpts{NX: nx, NY: ny, NZ: nz, REdge: 630, CSurf: 30e-15, NPorts: ports})
	if err != nil {
		return nil, err
	}
	return withProbes(d, names), nil
}
