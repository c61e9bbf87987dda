// Package stamp connects SPICE decks to the PACT matrix world: Extract
// loads the RC elements of a deck into the partitioned conductance and
// susceptance matrices (with automatic port detection, as in the RCFIT
// flow of the paper's Figure 1), and Realize unstamps a reduced model
// back into SPICE R and C cards.
package stamp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/resilience"
	"repro/internal/resilience/inject"
	"repro/internal/sparse"
)

// Extraction is the result of pulling the RC network out of a deck.
type Extraction struct {
	// Sys is the partitioned system (ports first).
	Sys *core.System
	// PortNames maps System port index to node name.
	PortNames []string
	// InternalNames maps System internal index to node name.
	InternalNames []string
	// RCElements are the extracted resistor/capacitor cards (to be
	// replaced by the reduced network).
	RCElements []netlist.Element
	// OtherElements is everything else (sources, MOSFETs, ...).
	OtherElements []netlist.Element
	// DroppedElements are RC cards in components not connected to any
	// port; they cannot affect the ports and are removed.
	DroppedElements []netlist.Element
	// DeckNodes, DeckR and DeckC count the whole input deck: its
	// distinct non-ground nodes (len(deck.NodeNames())) and its elements
	// whose names start with 'r' and 'c' (len(deck.ElementsOfType('r'))
	// and 'c'). They are tallied in the interning pass, so callers need
	// not walk the deck again.
	DeckNodes, DeckR, DeckC int
	// StampNs is the wall time of the node-interning pass (element
	// classification and deck counts), port detection, connectivity
	// pruning on node IDs and the (parallel) triplet stamping loop;
	// AssembleNs covers the triplet-to-CSR builds and the port/internal
	// partition. Together they are the front end's share of core.Stats
	// stage accounting.
	StampNs    int64
	AssembleNs int64
}

// stampChunk is the number of RC elements a stamping worker processes
// per triplet bucket. Bucket boundaries depend only on the element
// count, never the worker count, and buckets are merged in index order,
// so the assembled triplet sequence — and therefore the built CSR, bit
// for bit — is identical at every GOMAXPROCS.
const stampChunk = 2048

// errAssembleFault marks an injected stamping-chunk failure (inject
// point stamp.assemble, pactcheck builds only).
var errAssembleFault = errors.New("stamp: injected assembly fault")

// Extract separates the RC network of a deck and stamps it into a
// partitioned System. Following RCFIT, a node becomes a port when it is
// connected to a resistor or capacitor and also to a device other than a
// resistor or capacitor; ground is the implicit common node. ExtraPorts
// lets the caller force nodes (e.g. observation points) to be ports.
//
// Node names are hashed once, in a single interning pass over the deck;
// port detection, connectivity pruning and stamping then run on dense
// node IDs.
func Extract(deck *netlist.Deck, extraPorts ...string) (*Extraction, error) {
	tStamp := time.Now()
	ex := &Extraction{}
	// Pre-size the element lists, the interner and the triplet buffers
	// from the deck's element counts: growing them from zero showed up
	// as allocation churn in the million-node profile.
	nRC := 0
	for _, e := range deck.Elements {
		switch e.(type) {
		case *netlist.Resistor, *netlist.Capacitor:
			nRC++
		}
	}
	ex.RCElements = make([]netlist.Element, 0, nRC)
	if rest := len(deck.Elements) - nRC; rest > 0 {
		ex.OtherElements = make([]netlist.Element, 0, rest)
	}
	// Intern every node: ground is ID 0, the RC elements' nodes follow in
	// order of first appearance among the RC cards (the node order of the
	// partitioned system), then the nodes only other devices touch. Each
	// RC element's terminals land in terms, index-aligned with
	// RCElements. The same pass tallies the deck counts.
	in := newInterner(nRC/2 + 1)
	terms := make([][2]int32, 0, nRC)
	for _, e := range deck.Elements {
		if name := e.Name(); name != "" {
			switch name[0] {
			case 'r':
				ex.DeckR++
			case 'c':
				ex.DeckC++
			}
		}
		switch el := e.(type) {
		case *netlist.Resistor:
			ex.RCElements = append(ex.RCElements, e)
			terms = append(terms, [2]int32{in.id(el.N1), in.id(el.N2)})
		case *netlist.Capacitor:
			ex.RCElements = append(ex.RCElements, e)
			terms = append(terms, [2]int32{in.id(el.N1), in.id(el.N2)})
		default:
			ex.OtherElements = append(ex.OtherElements, e)
		}
	}
	nRCNodes := int32(len(in.names)) // RC nodes are IDs 1..nRCNodes-1
	isPort := make([]bool, nRCNodes)
	for _, e := range ex.OtherElements {
		for _, name := range e.Nodes() {
			if id := in.id(name); id < nRCNodes {
				isPort[id] = true
			}
		}
	}
	ex.DeckNodes = len(in.names) - 1
	for _, p := range extraPorts {
		id, ok := in.ids[p]
		if !ok || id == 0 || id >= nRCNodes {
			return nil, fmt.Errorf("stamp: requested port %q does not touch the RC network", p)
		}
		isPort[id] = true
	}
	// Drop RC components not reachable from any port or ground:
	// union-find over the RC node IDs, with ground and every port in one
	// anchored set.
	uf := newUnionFind(nRCNodes)
	for id := int32(1); id < nRCNodes; id++ {
		if isPort[id] {
			uf.union(id, 0)
		}
	}
	for _, t := range terms {
		uf.union(t[0], t[1])
	}
	anchored := uf.find(0)
	kept := 0
	for k, e := range ex.RCElements {
		if uf.find(terms[k][0]) == anchored {
			ex.RCElements[kept], terms[kept] = e, terms[k]
			kept++
		} else {
			ex.DroppedElements = append(ex.DroppedElements, e)
		}
	}
	ex.RCElements, terms = ex.RCElements[:kept], terms[:kept]

	// Ports take slots 0..m-1 and kept internal nodes m..m+n-1, each in
	// node-ID order; ground and pruned nodes get no slot (-1).
	m, n := 0, 0
	for id := int32(1); id < nRCNodes; id++ {
		if isPort[id] {
			m++
		} else if uf.find(id) == anchored {
			n++
		}
	}
	portNames := make([]string, 0, m)
	internalNames := make([]string, 0, n)
	slot := make([]int32, nRCNodes)
	slot[0] = -1
	for id := int32(1); id < nRCNodes; id++ {
		switch {
		case isPort[id]:
			slot[id] = int32(len(portNames))
			portNames = append(portNames, in.names[id])
		case uf.find(id) == anchored:
			slot[id] = int32(m + len(internalNames))
			internalNames = append(internalNames, in.names[id])
		default:
			slot[id] = -1
		}
	}
	// Stamp the element loop in parallel: fixed-size chunks of the
	// element slice fill chunk-indexed triplet buckets (iteration-owned —
	// no two chunks share a bucket), which are then merged in chunk
	// order. The merged triplet sequence is exactly what the serial loop
	// would have appended, so the built matrices are bit-identical at
	// every GOMAXPROCS. Element errors land in the owning bucket and the
	// lowest-indexed one wins, again matching the serial loop.
	type triBucket struct {
		gr, gc []int
		gv     []float64
		cr, cc []int
		cv     []float64
		err    error
	}
	nElems := len(ex.RCElements)
	buckets := make([]triBucket, (nElems+stampChunk-1)/stampChunk)
	par.ForChunks(nElems, stampChunk, func(_, lo, hi int) {
		ci := lo / stampChunk
		bk := &buckets[ci]
		if inject.Enabled && inject.ShouldFail(inject.StampAssemble, ci) {
			bk.err = resilience.NewStageError(resilience.StageExtract,
				fmt.Sprintf("stamping chunk %d failed", ci), nil, errAssembleFault)
			return
		}
		est := 4 * (hi - lo)
		bk.gr = make([]int, 0, est)
		bk.gc = make([]int, 0, est)
		bk.gv = make([]float64, 0, est)
		bk.cr = make([]int, 0, est)
		bk.cc = make([]int, 0, est)
		bk.cv = make([]float64, 0, est)
		for k := lo; k < hi; k++ {
			e := ex.RCElements[k]
			var isG bool
			var val float64
			switch el := e.(type) {
			case *netlist.Resistor:
				if el.Value <= 0 {
					bk.err = fmt.Errorf("stamp: resistor %s has non-positive value %g (network must be passive)", el.Ident, el.Value)
					return
				}
				isG, val = true, 1/el.Value
			case *netlist.Capacitor:
				if el.Value < 0 {
					bk.err = fmt.Errorf("stamp: capacitor %s has negative value %g (network must be passive)", el.Ident, el.Value)
					return
				}
				isG, val = false, el.Value
			}
			r, c, v := bk.cr, bk.cc, bk.cv
			if isG {
				r, c, v = bk.gr, bk.gc, bk.gv
			}
			a, b := terms[k][0], terms[k][1]
			switch {
			case a == 0 && b == 0:
				continue // both terminals grounded: no effect
			case a == 0:
				j := int(slot[b])
				r, c, v = append(r, j), append(c, j), append(v, val)
			case b == 0:
				i := int(slot[a])
				r, c, v = append(r, i), append(c, i), append(v, val)
			default:
				i, j := int(slot[a]), int(slot[b])
				if i < 0 || j < 0 {
					bk.err = fmt.Errorf("stamp: internal error, unindexed node on %s", e.Name())
					return
				}
				if i == j {
					continue // element shorted on one node
				}
				// Same triplet order the serial Builder calls produced:
				// (i,i), (j,j), (i,j), (j,i).
				r = append(r, i, j, i, j)
				c = append(c, i, j, j, i)
				v = append(v, val, val, -val, -val)
			}
			if isG {
				bk.gr, bk.gc, bk.gv = r, c, v
			} else {
				bk.cr, bk.cc, bk.cv = r, c, v
			}
		}
	})
	sumG, sumC := 0, 0
	for bi := range buckets {
		if err := buckets[bi].err; err != nil {
			return nil, err
		}
		sumG += len(buckets[bi].gv)
		sumC += len(buckets[bi].cv)
	}
	gb := sparse.NewBuilder(m+n, m+n)
	cb := sparse.NewBuilder(m+n, m+n)
	gb.Reserve(sumG)
	cb.Reserve(sumC)
	for bi := range buckets {
		gb.Append(buckets[bi].gr, buckets[bi].gc, buckets[bi].gv)
		cb.Append(buckets[bi].cr, buckets[bi].cc, buckets[bi].cv)
	}
	ex.StampNs = time.Since(tStamp).Nanoseconds()

	tAssemble := time.Now()
	g, c := gb.BuildPar(), cb.BuildPar()
	if check.Enabled {
		check.SymmetricCSR("stamped conductance matrix", g, check.DefaultTol)
		check.SymmetricCSR("stamped susceptance matrix", c, check.DefaultTol)
	}
	ports := make([]int, m)
	for i := range ports {
		ports[i] = i
	}
	sys, err := core.Partition(g, c, ports)
	if err != nil {
		return nil, err
	}
	ex.AssembleNs = time.Since(tAssemble).Nanoseconds()
	ex.Sys = sys
	ex.PortNames = portNames
	ex.InternalNames = internalNames
	return ex, nil
}

// interner gives node names dense int32 IDs in order of first
// appearance, with ground pre-assigned ID 0.
type interner struct {
	ids   map[string]int32
	names []string // names[id] is the node name of ID id
}

func newInterner(hint int) *interner {
	in := &interner{ids: make(map[string]int32, hint), names: make([]string, 1, hint)}
	in.ids[netlist.Ground] = 0
	in.names[0] = netlist.Ground
	return in
}

// id returns name's ID, assigning the next one on first appearance.
func (in *interner) id(name string) int32 {
	if id, ok := in.ids[name]; ok {
		return id
	}
	id := int32(len(in.names))
	in.ids[name] = id
	in.names = append(in.names, name)
	return id
}

// unionFind is a disjoint-set forest over dense IDs with path halving.
type unionFind []int32

func newUnionFind(n int32) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = int32(i)
	}
	return uf
}

func (uf unionFind) find(x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

func (uf unionFind) union(a, b int32) { uf[uf.find(a)] = uf.find(b) }

// RealizeOptions configures unstamping.
type RealizeOptions struct {
	// Prefix names the generated elements and internal nodes (default
	// "pact").
	Prefix string
	// SparsifyTol is the relative threshold of the RCFIT
	// sparsity-enhancement heuristic applied to the realized matrices
	// before unstamping (0 disables it).
	SparsifyTol float64
	// DropTol removes realized elements whose conductance/capacitance is
	// below DropTol times the largest diagonal (default 1e-13): numerical
	// noise that would otherwise bloat the deck.
	DropTol float64
}

// Realize unstamps a reduced model into SPICE R and C cards. Port i of
// the model connects to portNames[i]; each retained pole becomes one
// internal node named <prefix>_i<p>. Off-diagonal entries of the reduced
// matrices may be positive, in which case the corresponding branch
// element has a negative value — legal in SPICE, and harmless here
// because the matrices (hence the network) remain non-negative definite.
func Realize(model *core.ReducedModel, portNames []string, opts RealizeOptions) ([]netlist.Element, []string, error) {
	if len(portNames) != model.M {
		return nil, nil, fmt.Errorf("stamp: %d port names for %d ports", len(portNames), model.M)
	}
	if opts.Prefix == "" {
		opts.Prefix = "pact"
	}
	if opts.DropTol == 0 {
		opts.DropTol = 1e-13
	}
	g, c := model.Matrices()
	if opts.SparsifyTol > 0 {
		core.Sparsify(g, opts.SparsifyTol)
		core.Sparsify(c, opts.SparsifyTol)
	}
	names := append([]string(nil), portNames...)
	var internal []string
	for p := 0; p < model.K(); p++ {
		nm := fmt.Sprintf("%s_i%d", opts.Prefix, p+1)
		names = append(names, nm)
		internal = append(internal, nm)
	}
	var out []netlist.Element
	rIdx, cIdx := 0, 0
	emit := func(mat *dense.Mat, isG bool) {
		n := mat.R
		scale := 0.0
		for i := 0; i < n; i++ {
			if d := math.Abs(mat.At(i, i)); d > scale {
				scale = d
			}
		}
		thresh := opts.DropTol * scale
		for i := 0; i < n; i++ {
			// Branch elements from off-diagonals.
			for j := i + 1; j < n; j++ {
				v := mat.At(i, j)
				if math.Abs(v) <= thresh {
					continue
				}
				if isG {
					rIdx++
					out = append(out, &netlist.Resistor{
						Ident: fmt.Sprintf("r%s%d", opts.Prefix, rIdx),
						N1:    names[i], N2: names[j], Value: -1 / v,
					})
				} else {
					cIdx++
					out = append(out, &netlist.Capacitor{
						Ident: fmt.Sprintf("c%s%d", opts.Prefix, cIdx),
						N1:    names[i], N2: names[j], Value: -v,
					})
				}
			}
			// Element to ground from the diagonal surplus.
			surplus := mat.At(i, i)
			for j := 0; j < n; j++ {
				if j != i {
					surplus += mat.At(i, j)
				}
			}
			if math.Abs(surplus) <= thresh {
				continue
			}
			if isG {
				rIdx++
				out = append(out, &netlist.Resistor{
					Ident: fmt.Sprintf("r%s%d", opts.Prefix, rIdx),
					N1:    names[i], N2: netlist.Ground, Value: 1 / surplus,
				})
			} else {
				cIdx++
				out = append(out, &netlist.Capacitor{
					Ident: fmt.Sprintf("c%s%d", opts.Prefix, cIdx),
					N1:    names[i], N2: netlist.Ground, Value: surplus,
				})
			}
		}
	}
	emit(g, true)
	emit(c, false)
	return out, internal, nil
}

// RealizeSubckt packages the realized reduced network as a .subckt
// definition plus an instance card connecting it to the original port
// nodes — the tidier form of rcfit output. The subcircuit's formal ports
// are p1..pm; internal nodes carry the usual prefix.
func RealizeSubckt(model *core.ReducedModel, portNames []string, opts RealizeOptions) (*netlist.Subckt, *netlist.XInstance, error) {
	if opts.Prefix == "" {
		opts.Prefix = "pact"
	}
	formal := make([]string, model.M)
	for i := range formal {
		formal[i] = fmt.Sprintf("p%d", i+1)
	}
	elems, _, err := Realize(model, formal, opts)
	if err != nil {
		return nil, nil, err
	}
	sub := &netlist.Subckt{
		Ident:    opts.Prefix + "net",
		Ports:    formal,
		Elements: elems,
	}
	inst := &netlist.XInstance{
		Ident:     "x" + opts.Prefix + "1",
		NodeList:  append([]string(nil), portNames...),
		SubcktRef: sub.Ident,
	}
	return sub, inst, nil
}
