package netlist

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzParse: arbitrary text must parse or error, never panic, and any
// successfully parsed deck must survive a write/re-parse round trip.
func FuzzParse(f *testing.F) {
	f.Add("title\nr1 a b 1k\n.end\n")
	f.Add(sampleDeck)
	f.Add("t\n.subckt s a\nr1 a 0 1\n.ends\nx1 n s\nv1 n 0 dc 1\n.end\n")
	f.Add("t\nv1 a 0 dc 0 pulse(0 5 1n 0.1n 0.1n 4n 10n)\n.end\n")
	f.Add("t\n+ broken\n")
	f.Add("t\nl1 a 0 1u\nm1 a b c d mod w=1u l=1u\n.model mod nmos\n.end\n")
	f.Fuzz(func(t *testing.T, input string) {
		deck, err := ParseString(input)
		if err != nil {
			return
		}
		out := deck.String()
		deck2, err := ParseString(out)
		if err != nil {
			t.Fatalf("round trip failed: %v\nfirst output:\n%s", err, out)
		}
		if len(deck2.Elements) != len(deck.Elements) {
			t.Fatalf("round trip changed element count %d -> %d\n%s", len(deck.Elements), len(deck2.Elements), out)
		}
	})
}

// FuzzParseValue: numeric token parsing must never panic and must accept
// its own formatted output.
func FuzzParseValue(f *testing.F) {
	for _, s := range []string{"1k", "-2.5n", "1e-3", "10kohm", "meg", "..", "1e", "5meg"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		v, err := ParseValue(tok)
		if err != nil {
			return
		}
		s := FormatValue(v)
		v2, err := ParseValue(s)
		if err != nil {
			t.Fatalf("FormatValue(%v) = %q does not re-parse: %v", v, s, err)
		}
		if v2 != v {
			t.Fatalf("round trip %q -> %v -> %q -> %v is not exact", tok, v, s, v2)
		}
	})
}

// FuzzTokenize guards the card tokenizer against pathological input:
// tokens never hold white space, and the ASCII fast path splits every
// card exactly as the general rune path does.
func FuzzTokenize(f *testing.F) {
	f.Add("v1 a 0 pulse(0 5, 1n)")
	f.Add("((((")
	f.Add("r1 n1 n2 1k")
	f.Add("c7\tnet_3 0  2.5f\r")
	f.Add("r1 knoten\u00e4 0 1k")       // non-ASCII node name
	f.Add("r1 a\u00a0b 0 1k")           // non-ASCII space (U+00A0)
	f.Add("r1 a\u0085b 0 1k")           // NEL, a Unicode space
	f.Add("r1 a\xff\xfeb 0 1k")         // invalid UTF-8: the rune path writes U+FFFD
	f.Add("r1 a 0 \xe2\x82")            // truncated multi-byte sequence
	f.Add("m1 d g s b nch w=(1u) l=1u") // parentheses
	f.Add("v1 a 0 pwl 0,0 1n,1")        // commas
	f.Fuzz(func(t *testing.T, card string) {
		toks := tokenize(card)
		for _, tk := range toks {
			if strings.ContainsAny(tk, " \t") {
				t.Fatalf("token %q contains whitespace", tk)
			}
		}
		if want := tokenizeRunes(card); !slices.Equal(toks, want) {
			t.Fatalf("tokenize(%q) = %q, want the rune path's %q", card, toks, want)
		}
	})
}

// FuzzFormatValue: every finite float must format to a token that
// ParseValue accepts and that recovers the value bit-exactly.
func FuzzFormatValue(f *testing.F) {
	for _, v := range []float64{0, 630, 30e-15, 1.35e-12, -2.5e-9, 5e6, 1e-3, -1, 2.2250738585072014e-308, 1.7976931348623157e308} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip("only finite values have a SPICE representation")
		}
		s := FormatValue(v)
		if strings.ContainsAny(s, " \t\n(),") {
			t.Fatalf("FormatValue(%v) = %q contains separator characters", v, s)
		}
		v2, err := ParseValue(s)
		if err != nil {
			t.Fatalf("FormatValue(%v) = %q does not parse: %v", v, s, err)
		}
		if v == 0 {
			if v2 != 0 {
				t.Fatalf("FormatValue(0) = %q parsed back as %v", s, v2)
			}
			return
		}
		if v2 != v {
			t.Fatalf("round trip %v -> %q -> %v is not exact", v, s, v2)
		}
	})
}

// FuzzWaveform drives the source-card waveform pipeline: arbitrary
// waveform specifications must parse or error (never panic), evaluate
// without panicking, and survive a Card() round trip with identical
// sample values.
func FuzzWaveform(f *testing.F) {
	f.Add("pulse(0 5 1n 0.1n 0.1n 4n 10n)")
	f.Add("pulse(0 5)")
	f.Add("sin(0 1 1meg)")
	f.Add("sin(2.5 2.5 50meg 1n 1e6)")
	f.Add("pwl(0 0 1n 5 2n 5 3n 0)")
	f.Add("pwl(0 0 0 5)")
	f.Add("pulse(0 5 -1n -2 3 4")
	f.Add("sin(1 2)")
	f.Add("pwl(1 2 3)")
	// Regression: ".1n" parses one ulp above float64 1e-10, and the old
	// ten-digit FormatValue rendered it "100p" — moving a zero-rise edge
	// across the 1e-10 sample point. FormatValue is exact now.
	f.Add("pulse 0 1 .1n 0 10")
	f.Fuzz(func(t *testing.T, spec string) {
		if strings.ContainsAny(spec, "\n\r") {
			t.Skip("a spec cannot span cards")
		}
		deck, err := ParseString("fuzz waveform\nv1 a 0 dc 0 " + spec + "\n.end\n")
		if err != nil {
			return
		}
		var wave Waveform
		for _, e := range deck.Elements {
			if v, ok := e.(*VSource); ok {
				wave = v.Wave
			}
		}
		if wave == nil {
			return
		}
		samples := []float64{0, 1e-10, 1e-9, 2.5e-9, 1e-6, 1}
		for _, ts := range samples {
			wave.At(ts) // must not panic, whatever the parameters
		}
		card := wave.Card()
		deck2, err := ParseString("fuzz waveform\nv1 a 0 dc 0 " + card + "\n.end\n")
		if err != nil {
			t.Fatalf("Card() = %q does not re-parse: %v", card, err)
		}
		var wave2 Waveform
		for _, e := range deck2.Elements {
			if v, ok := e.(*VSource); ok {
				wave2 = v.Wave
			}
		}
		if wave2 == nil {
			t.Fatalf("Card() = %q lost the waveform on re-parse", card)
		}
		for _, ts := range samples {
			a, b := wave.At(ts), wave2.At(ts)
			if math.IsNaN(a) && math.IsNaN(b) {
				continue
			}
			diff := a - b
			scale := math.Abs(a) + math.Abs(b) + 1
			if diff/scale < -1e-6 || diff/scale > 1e-6 {
				t.Fatalf("At(%g) changed across Card round trip: %v vs %v (card %q)", ts, a, b, card)
			}
		}
	})
}
