package stamp

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/sparse"
)

// diffExtraction reports the first way Extract's result (got, gerr)
// differs from extractReference's (want, werr), or "" when they match
// exactly: error text, port and internal name order, the element lists
// (by identity), the deck counts, and the bits of all six blocks.
func diffExtraction(got, want *Extraction, gerr, werr error) string {
	if (gerr == nil) != (werr == nil) {
		return fmt.Sprintf("error %v, reference error %v", gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			return fmt.Sprintf("error %q, reference error %q", gerr, werr)
		}
		return ""
	}
	if !slices.Equal(got.PortNames, want.PortNames) {
		return fmt.Sprintf("ports %q, reference %q", got.PortNames, want.PortNames)
	}
	if !slices.Equal(got.InternalNames, want.InternalNames) {
		return fmt.Sprintf("internal nodes %q, reference %q", got.InternalNames, want.InternalNames)
	}
	for _, l := range []struct {
		name      string
		got, want []netlist.Element
	}{
		{"RC", got.RCElements, want.RCElements},
		{"other", got.OtherElements, want.OtherElements},
		{"dropped", got.DroppedElements, want.DroppedElements},
	} {
		if !slices.Equal(l.got, l.want) {
			return fmt.Sprintf("%s elements differ: %d vs reference %d", l.name, len(l.got), len(l.want))
		}
	}
	if got.DeckNodes != want.DeckNodes || got.DeckR != want.DeckR || got.DeckC != want.DeckC {
		return fmt.Sprintf("deck counts nodes/R/C %d/%d/%d, reference %d/%d/%d",
			got.DeckNodes, got.DeckR, got.DeckC, want.DeckNodes, want.DeckR, want.DeckC)
	}
	if got.Sys.M != want.Sys.M || got.Sys.N != want.Sys.N {
		return fmt.Sprintf("system %d/%d, reference %d/%d", got.Sys.M, got.Sys.N, want.Sys.M, want.Sys.N)
	}
	for _, b := range []struct {
		name      string
		got, want *sparse.CSR
	}{
		{"A", got.Sys.A, want.Sys.A},
		{"B", got.Sys.B, want.Sys.B},
		{"Q", got.Sys.Q, want.Sys.Q},
		{"R", got.Sys.R, want.Sys.R},
		{"D", got.Sys.D, want.Sys.D},
		{"E", got.Sys.E, want.Sys.E},
	} {
		if !csrBitsEqual(b.got, b.want) {
			return fmt.Sprintf("block %s differs from the reference", b.name)
		}
	}
	return ""
}

// parsed parses deck text or fails the test.
func parsed(t *testing.T, text string) *netlist.Deck {
	t.Helper()
	d, err := netlist.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestExtractMatchesReference pins Extract to the string-keyed
// reference on generated decks and on every degenerate shape the
// interning pass must classify the way the reference does.
func TestExtractMatchesReference(t *testing.T) {
	// Each case builds a deck and the ExtraPorts to extract it with.
	type deckCase struct {
		name string
		deck func(t *testing.T) (*netlist.Deck, []string)
	}
	gen := func(d *netlist.Deck, ports []string, err error) func(*testing.T) (*netlist.Deck, []string) {
		return func(t *testing.T) (*netlist.Deck, []string) {
			if err != nil {
				t.Fatal(err)
			}
			return d, ports
		}
	}
	text := func(s string, extra ...string) func(*testing.T) (*netlist.Deck, []string) {
		return func(t *testing.T) (*netlist.Deck, []string) { return parsed(t, s), extra }
	}
	grid, gridPorts, gridErr := netgen.PowerGrid(netgen.PowerGridPreset(20_000))
	tree, treePorts, treeErr := netgen.ClockTree(netgen.ClockTreePreset(4_000))
	wide, widePorts, wideErr := netgen.WideBand(netgen.WideBandPreset(64))
	cases := []deckCase{
		{name: "grid20k", deck: gen(grid, nil, gridErr)},
		{name: "grid20k/extra-ports", deck: gen(grid, gridPorts, gridErr)},
		{name: "clocktree", deck: gen(tree, treePorts, treeErr)},
		{name: "wideband64", deck: gen(wide, widePorts, wideErr)},
		{name: "mesh/floating-subnet+dangling", deck: func(t *testing.T) (*netlist.Deck, []string) {
			d, ports, err := netgen.Mesh3D(netgen.SmallMeshOpts())
			if err != nil {
				t.Fatal(err)
			}
			// A subnet hanging off the mesh through capacitors only (kept,
			// with no DC path to ground) and an island touching nothing
			// (dropped), interleaved with the mesh cards.
			island := []netlist.Element{
				&netlist.Capacitor{Ident: "cf1", N1: ports[0], N2: "fl1", Value: 1e-15},
				&netlist.Resistor{Ident: "rf1", N1: "fl1", N2: "fl2", Value: 10},
				&netlist.Resistor{Ident: "rd1", N1: "d1", N2: "d2", Value: 5},
				&netlist.Capacitor{Ident: "cf2", N1: "fl2", N2: "fl3", Value: 2e-15},
				&netlist.Capacitor{Ident: "cd1", N1: "d2", N2: "d1", Value: 1e-12},
				&netlist.Resistor{Ident: "rd2", N1: "d3", N2: "d1", Value: -5}, // non-passive but dropped
			}
			elems := slices.Clone(d.Elements)
			for k, e := range island {
				at := (k + 1) * len(elems) / (len(island) + 1)
				elems = slices.Insert(elems, at, e)
			}
			d.Elements = elems
			return d, ports
		}},
		{name: "degenerate-cards", deck: text(`degenerate cards
v1 a 0 dc 1
r1 a b 10
r2 0 0 5
c1 0 0 1p
r3 b b 7
c2 c c 1p
r4 b c 20
r5 b c 20
c3 b c 1p
c4 b c 1p
c5 c 0 0
r6 c 0 1k
r7 0 d 3
c6 d 0 2p
.end
`, "c", "d")},
		{name: "other-device-nodes", deck: text(`devices beyond the rc network
v1 in 0 dc 5
m1 drv in 0 0 nch w=10u l=1u
r1 drv mid 100
c1 mid 0 1p
l1 mid out 1n
r2 out far 100
c2 far 0 1p
d1 far 0 dmod
i1 lonely 0 dc 1m
m2 sink out 0 bulk nch w=10u l=1u
rload sink 0 1k
.model nch nmos vto=0.7
.model dmod d is=1e-14
.end
`)},
		{name: "subckt-flattened", deck: text(`flattened hierarchy
.subckt seg a b
r1 a m 50
c1 m 0 1f
r2 m b 50
.ends
v1 in 0 dc 1
x1 in n1 seg
x2 n1 n2 seg
c9 n2 0 2f
.end
`)},
		{name: "odd-element-names", deck: func(*testing.T) (*netlist.Deck, []string) {
			// RC elements named by hierarchy path rather than type letter,
			// and devices whose names start with r or c.
			return &netlist.Deck{Title: "odd names", Elements: []netlist.Element{
				&netlist.VSource{Ident: "rail", N1: "a", N2: netlist.Ground, DC: 1},
				&netlist.Resistor{Ident: "x1.r1", N1: "a", N2: "b", Value: 10},
				&netlist.Capacitor{Ident: "top/c1", N1: "b", N2: netlist.Ground, Value: 1e-12},
				&netlist.ISource{Ident: "cin", N1: "b", N2: "ext", DC: 1},
				&netlist.Resistor{Ident: "r9", N1: "b", N2: "knotenä", Value: 3},
				&netlist.Capacitor{Ident: "c9", N1: "knotenä", N2: netlist.Ground, Value: 1e-12},
			}}, nil
		}},
		{name: "no-rc", deck: text(`no rc
v1 a 0 dc 5
m1 b a 0 0 nch w=1u l=1u
.model nch nmos vto=0.7
.end
`)},
		{name: "empty", deck: func(*testing.T) (*netlist.Deck, []string) { return &netlist.Deck{}, nil }},
		{name: "error/zero-resistor", deck: text("bad\nv1 a 0 dc 1\nr1 a b 0\nr2 b 0 1\nr3 b 0 -1\n.end\n")},
		{name: "error/negative-resistor", deck: text("bad\nv1 a 0 dc 1\nr2 b 0 1\nr1 a b -5\n.end\n")},
		{name: "error/negative-capacitor", deck: text("bad\nv1 a 0 dc 1\nr1 a b 1\nc1 a b -1p\n.end\n")},
		{name: "error/unknown-extra-port", deck: text("x\nv1 a 0 dc 1\nr1 a b 1\n.end\n", "b", "nosuch")},
		{name: "error/ground-extra-port", deck: text("x\nv1 a 0 dc 1\nr1 a b 1\n.end\n", "0")},
		{name: "error/device-only-extra-port", deck: text("x\nv1 a 0 dc 1\nv2 q 0 dc 1\nr1 a b 1\n.end\n", "q")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deck, ports := tc.deck(t)
			want, werr := extractReference(deck, ports...)
			if wantErr := strings.HasPrefix(tc.name, "error/"); wantErr != (werr != nil) {
				t.Fatalf("reference error %v; the case expects an error: %v", werr, wantErr)
			}
			got, gerr := Extract(deck, ports...)
			if d := diffExtraction(got, want, gerr, werr); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// fuzzNodes is the node pool FuzzExtract draws from: ground (twice, so
// grounded terminals are common), plain names, a non-ASCII name, a name
// the parser would have normalized to ground, and dotted hierarchy
// names.
var fuzzNodes = []string{
	netlist.Ground, netlist.Ground, "a", "b", "c", "d", "e", "f", "g",
	"knotenä", "gnd", "x1.n", "x1.m", "p", "q", "z",
}

// fuzzDeck decodes fuzz bytes into a small deck and its ExtraPorts.
// Byte 0 picks up to three extra ports from the following bytes; the
// rest come in groups of four — kind, two node picks, a value — giving
// resistors and capacitors (some with hierarchy-path names, some with
// zero or negative values) among sources, inductors and MOSFETs, so
// ports, floating pieces, shorted and doubly grounded elements and
// pruned islands all arise.
func fuzzDeck(data []byte) (*netlist.Deck, []string) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	node := func(b byte) string { return fuzzNodes[int(b)%len(fuzzNodes)] }
	var extra []string
	for k := int(next() % 4); k > 0; k-- {
		extra = append(extra, node(next()))
	}
	deck := &netlist.Deck{Title: "fuzz"}
	for i := 1; len(data) > 0; i++ {
		kind, n1, n2, v := next(), node(next()), node(next()), next()
		val := math.Pow(10, float64(v%16)-12) * (1 + float64(v/16)/16)
		switch v {
		case 0:
			val = 0
		case 1:
			val = -val
		}
		prefix := ""
		if kind&0x80 != 0 {
			prefix = "x1."
		}
		var e netlist.Element
		switch kind % 8 {
		case 0, 1, 2:
			e = &netlist.Resistor{Ident: fmt.Sprintf("%sr%d", prefix, i), N1: n1, N2: n2, Value: val}
		case 3, 4, 5:
			e = &netlist.Capacitor{Ident: fmt.Sprintf("%sc%d", prefix, i), N1: n1, N2: n2, Value: val}
		case 6:
			e = &netlist.VSource{Ident: fmt.Sprintf("v%d", i), N1: n1, N2: n2, DC: 1}
		default:
			if kind&0x40 != 0 {
				e = &netlist.Inductor{Ident: fmt.Sprintf("l%d", i), N1: n1, N2: n2, Value: 1e-9}
			} else {
				e = &netlist.MOSFET{Ident: fmt.Sprintf("m%d", i), D: n1, G: n2, S: node(v), B: netlist.Ground, ModelName: "nch"}
			}
		}
		deck.Elements = append(deck.Elements, e)
	}
	return deck, extra
}

// FuzzExtract is the differential fuzz of Extract against the
// string-keyed reference on random small decks.
func FuzzExtract(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 6, 2, 0, 5, 0, 2, 3, 100, 3, 3, 0, 50})
	f.Add([]byte{1, 4, 0, 2, 3, 9, 3, 4, 0, 20, 6, 5, 1, 0})
	f.Add([]byte{2, 5, 13, 1, 5, 6, 7, 1, 0, 7, 13, 7, 30, 3, 14, 15, 2, 0, 2, 2, 40})
	f.Add([]byte{3, 2, 0, 9, 6, 2, 0, 0, 0x82, 2, 9, 33, 0x83, 9, 0, 17, 7, 9, 10, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		deck, extra := fuzzDeck(data)
		want, werr := extractReference(deck, extra...)
		got, gerr := Extract(deck, extra...)
		if d := diffExtraction(got, want, gerr, werr); d != "" {
			t.Fatalf("%s\nextra ports %q\n%s", d, extra, deck)
		}
	})
}

// TestExtractAllocsScaleWithChunks guards the interned front end: on a
// 20k-node grid, Extract's allocation count must stay within a bound
// that grows with the number of stamping chunks (each owns six triplet
// buffers), not with the ~60k elements. A per-element Nodes() slice or
// map entry, or a per-row allocation in the CSR build, would add tens
// of thousands.
func TestExtractAllocsScaleWithChunks(t *testing.T) {
	deck, ports, err := netgen.PowerGrid(netgen.PowerGridPreset(20_000))
	if err != nil {
		t.Fatal(err)
	}
	chunks := (len(deck.Elements) + stampChunk - 1) / stampChunk
	bound := float64(16*chunks + 128)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Extract(deck, ports...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Fatalf("Extract made %.0f allocations over %d elements in %d chunks; bound %.0f",
			allocs, len(deck.Elements), chunks, bound)
	}
}
