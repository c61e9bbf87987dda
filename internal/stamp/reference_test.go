package stamp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sparse"
)

// extractReference is the string-keyed extractor that Extract replaced,
// kept as the oracle Extract must match exactly: port and internal name
// order, the RC/other/dropped element lists, the deck counts, the error
// text, and the bits of every partitioned block. It classifies, prunes
// and stamps by node name through maps and a recursive map-based
// union-find, stamps serially through sparse.Builder.Add, and counts
// the deck with Deck.NodeNames and Deck.ElementsOfType.
func extractReference(deck *netlist.Deck, extraPorts ...string) (*Extraction, error) {
	ex := &Extraction{}
	touchOther := map[string]bool{}
	for _, e := range deck.Elements {
		switch e.(type) {
		case *netlist.Resistor, *netlist.Capacitor:
			ex.RCElements = append(ex.RCElements, e)
		default:
			ex.OtherElements = append(ex.OtherElements, e)
			for _, n := range e.Nodes() {
				touchOther[n] = true
			}
		}
	}
	force := map[string]bool{}
	for _, p := range extraPorts {
		force[p] = true
	}
	// Node order: first appearance among RC elements; ports first.
	index := map[string]int{}
	var portNames, internalNames []string
	for _, e := range ex.RCElements {
		for _, n := range e.Nodes() {
			if n == netlist.Ground {
				continue
			}
			if _, seen := index[n]; seen {
				continue
			}
			index[n] = -1 // placeholder
			if touchOther[n] || force[n] {
				portNames = append(portNames, n)
			} else {
				internalNames = append(internalNames, n)
			}
		}
	}
	for _, p := range extraPorts {
		if _, seen := index[p]; !seen {
			return nil, fmt.Errorf("stamp: requested port %q does not touch the RC network", p)
		}
	}
	// Drop RC components not reachable from any port or ground. Union-find
	// over RC nodes, with ground and every port in one "anchored" group.
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	for _, n := range portNames {
		union(n, netlist.Ground)
	}
	for _, e := range ex.RCElements {
		ns := e.Nodes()
		union(ns[0], ns[1])
	}
	anchored := find(netlist.Ground)
	var kept []netlist.Element
	for _, e := range ex.RCElements {
		if find(e.Nodes()[0]) == anchored {
			kept = append(kept, e)
		} else {
			ex.DroppedElements = append(ex.DroppedElements, e)
		}
	}
	ex.RCElements = kept
	keepInternal := internalNames[:0]
	for _, n := range internalNames {
		if find(n) == anchored {
			keepInternal = append(keepInternal, n)
		} else {
			delete(index, n)
		}
	}
	internalNames = keepInternal

	m, n := len(portNames), len(internalNames)
	for i, name := range portNames {
		index[name] = i
	}
	for i, name := range internalNames {
		index[name] = m + i
	}
	gb := sparse.NewBuilder(m+n, m+n)
	cb := sparse.NewBuilder(m+n, m+n)
	for _, e := range ex.RCElements {
		b := cb
		var val float64
		switch el := e.(type) {
		case *netlist.Resistor:
			if el.Value <= 0 {
				return nil, fmt.Errorf("stamp: resistor %s has non-positive value %g (network must be passive)", el.Ident, el.Value)
			}
			b, val = gb, 1/el.Value
		case *netlist.Capacitor:
			if el.Value < 0 {
				return nil, fmt.Errorf("stamp: capacitor %s has negative value %g (network must be passive)", el.Ident, el.Value)
			}
			val = el.Value
		}
		ns := e.Nodes()
		i, iOK := index[ns[0]]
		j, jOK := index[ns[1]]
		isGndI := ns[0] == netlist.Ground
		isGndJ := ns[1] == netlist.Ground
		switch {
		case isGndI && isGndJ:
			// both terminals grounded: no effect
		case isGndI:
			b.Add(j, j, val)
		case isGndJ:
			b.Add(i, i, val)
		default:
			if !iOK || !jOK {
				return nil, fmt.Errorf("stamp: internal error, unindexed node on %s", e.Name())
			}
			if i == j {
				continue // element shorted on one node
			}
			b.Add(i, i, val)
			b.Add(j, j, val)
			b.Add(i, j, -val)
			b.Add(j, i, -val)
		}
	}
	ports := make([]int, m)
	for i := range ports {
		ports[i] = i
	}
	sys, err := core.Partition(gb.Build(), cb.Build(), ports)
	if err != nil {
		return nil, err
	}
	ex.Sys = sys
	ex.PortNames = portNames
	ex.InternalNames = internalNames
	ex.DeckNodes = len(deck.NodeNames())
	ex.DeckR = len(deck.ElementsOfType('r'))
	ex.DeckC = len(deck.ElementsOfType('c'))
	return ex, nil
}
