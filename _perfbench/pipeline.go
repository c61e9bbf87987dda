package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	pact "repro"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/lanczos"
	"repro/internal/netlist"
	"repro/internal/stamp"
)

// opResult is what one deck-to-deck reduction produced.
type opResult struct {
	text  string // the reduced deck as written
	model *core.ReducedModel
	stats *core.Stats
	// realized counts the R and C cards the reduced network became.
	realized int
	dur      time.Duration
	// red is the untraced reduction (nil on the traced path), kept for
	// Verify.
	red *pact.Reduction
	// tr is the traced path's Transform 1 state (single point only),
	// kept for the Lanczos replay.
	tr *core.Transformed
}

// counts are the work counts of one reduction that must repeat exactly
// for a fixed deck and seed.
type counts struct {
	Poles, LanczosIters, Solves, NNZL, BasisKept, RealizedElems int
}

func (o *opResult) counts() counts {
	return counts{
		Poles:         o.model.K(),
		LanczosIters:  o.stats.LanczosIters,
		Solves:        o.stats.Solves,
		NNZL:          o.stats.CholeskyNNZ,
		BasisKept:     o.stats.BasisKept,
		RealizedElems: o.realized,
	}
}

// untracedOp is one reduction through the public flow rcfit uses: deck
// text in, deck text out.
func untracedOp(ctx context.Context, text string, opts pact.Options) (*opResult, error) {
	t0 := time.Now()
	deck, err := pact.ParseString(text)
	if err != nil {
		return nil, err
	}
	red, err := pact.ReduceDeckContext(ctx, deck, opts)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := red.Deck.Write(&b); err != nil {
		return nil, err
	}
	return &opResult{
		text: b.String(), model: red.Model, stats: red.Stats,
		realized: red.ReducedR + red.ReducedC,
		dur:      time.Since(t0), red: red,
	}, nil
}

// coreOptions maps pact options onto the core options the public flow
// passes to core.ReduceContext.
func coreOptions(o pact.Options) core.Options {
	return core.Options{
		FMax: o.FMax, Tol: o.Tol, Ordering: o.Ordering, LanczosMode: o.LanczosMode,
		TwoPass: o.TwoPass, MaxPoles: o.MaxPoles, Seed: o.Seed,
		Shifts: o.Shifts, ShiftMoments: o.ShiftMoments, PortClusters: o.PortClusters,
		ResiduePruneTol: o.ResiduePruneTol,
	}
}

// Span names of the traced path, one per layer call, in call order.
const (
	spanOp         = "op"
	spanParse      = "netlist.ParseString"
	spanExtract    = "stamp.Extract"
	spanTransform1 = "core.Transform1Context"
	spanTransform2 = "core.Transform2Context"
	spanReduce     = "core.ReduceContext"
	spanRealize    = "stamp.Realize"
	spanCounts     = "pact.counts"
	spanWrite      = "netlist.Write"
)

// tracedOp is the same reduction as untracedOp, made by calling each
// layer's public function in turn with a span around each call. The
// stage times the layers return become child spans.
func tracedOp(ctx context.Context, text string, opts pact.Options) (*opResult, *recorder, error) {
	r := newRecorder()
	root := r.begin(spanOp, -1)
	s := r.begin(spanParse, root)
	deck, err := netlist.ParseString(text)
	r.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = r.begin(spanExtract, root)
	ex, err := stamp.Extract(deck, opts.ExtraPorts...)
	r.end(s)
	if err != nil {
		return nil, nil, err
	}
	r.stage(s, "stamp.stamp", ex.StampNs)
	r.stage(s, "stamp.assemble", ex.AssembleNs)

	copts := coreOptions(opts)
	var (
		model *core.ReducedModel
		stats *core.Stats
		tr    *core.Transformed
	)
	if len(opts.Shifts) == 0 {
		s = r.begin(spanTransform1, root)
		tr, stats, err = core.Transform1Context(ctx, ex.Sys, copts)
		r.end(s)
		if err != nil {
			return nil, nil, err
		}
		stageChildren(r, s, stats.Stage)
		s = r.begin(spanTransform2, root)
		model, err = tr.Transform2Context(ctx, copts)
		r.end(s)
	} else {
		s = r.begin(spanReduce, root)
		model, stats, err = core.ReduceContext(ctx, ex.Sys, copts)
		r.end(s)
		if err == nil {
			stageChildren(r, s, stats.Stage)
		}
	}
	if err != nil {
		return nil, nil, err
	}

	s = r.begin(spanRealize, root)
	elems, _, err := stamp.Realize(model, ex.PortNames,
		stamp.RealizeOptions{Prefix: opts.Prefix, SparsifyTol: opts.SparsifyTol})
	r.end(s)
	if err != nil {
		return nil, nil, err
	}
	// The output deck is assembled exactly as pact.ReduceDeckContext
	// assembles it, so both paths must write the same text.
	out := &netlist.Deck{
		Title:    deck.Title + " (pact reduced)",
		Models:   deck.Models,
		Controls: append([]string(nil), deck.Controls...),
	}
	out.Elements = append(out.Elements, ex.OtherElements...)
	out.Elements = append(out.Elements, elems...)
	// pact.ReduceDeckContext also counts the nodes and cards of both
	// decks for its Reduction record; the traced path does the same
	// work so that the two paths differ only by tracing.
	s = r.begin(spanCounts, root)
	bookkeeping(deck, out)
	r.end(s)
	s = r.begin(spanWrite, root)
	var b strings.Builder
	err = out.Write(&b)
	r.end(s)
	r.end(root)
	if err != nil {
		return nil, nil, err
	}
	return &opResult{
		text: b.String(), model: model, stats: stats,
		realized: len(elems), dur: r.spans[root].dur(), tr: tr,
	}, r, nil
}

// bookkeeping does the counting pact.Reduction reports: nodes,
// resistors and capacitors of the original and the reduced deck.
func bookkeeping(in, out *netlist.Deck) {
	for _, d := range []*netlist.Deck{in, out} {
		d.NodeNames()
		d.ElementsOfType('r')
		d.ElementsOfType('c')
	}
}

// stageChildren records the ordering, factorization and multi-point
// stage times a core call returned as children of its span.
func stageChildren(r *recorder, parent int, st core.StageTimes) {
	r.stage(parent, "order.order", st.OrderNs)
	r.stage(parent, "order.symbolic", st.SymbolicNs)
	r.stage(parent, "chol.factor", st.FactorNs)
	r.stage(parent, "core.shift_factor", st.ShiftFactorNs)
	r.stage(parent, "core.basis_union", st.BasisUnionNs)
}

// layerValues charges one traced operation to the layers: span times,
// self times and the work counts the layers reported.
func layerValues(o *opResult, r *recorder) map[string]float64 {
	st := o.stats
	v := map[string]float64{
		"netlist.parse_s":      r.seconds(spanParse),
		"netlist.write_s":      r.seconds(spanWrite),
		"stamp.extract_s":      r.seconds(spanExtract),
		"stamp.stamp_s":        r.seconds("stamp.stamp"),
		"stamp.assemble_s":     r.seconds("stamp.assemble"),
		"stamp.realize_s":      r.seconds(spanRealize),
		"stamp.realized_elems": float64(o.realized),
		"core.transform1_s":    r.seconds(spanTransform1),
		"core.transform2_s":    r.seconds(spanTransform2),
		"order.order_s":        r.seconds("order.order"),
		"order.symbolic_s":     r.seconds("order.symbolic"),
		"chol.factor_s":        r.seconds("chol.factor"),
		"chol.nnz_l":           float64(st.CholeskyNNZ),
		"chol.factor_gflop":    st.FactorFlops / 1e9,
		"core.solves":          float64(st.Solves),
		"core.matvecs":         float64(st.MatVecs),
		"core.poles":           float64(o.model.K()),
		"core.recoveries":      float64(len(st.Recoveries)),
		"lanczos.iters":        float64(st.LanczosIters),
		"lanczos.reorths":      float64(st.Reorths),
		"lanczos.peak_vectors": float64(st.PeakVectors),
		"core.reduce_s":        r.seconds(spanTransform1) + r.seconds(spanTransform2) + r.seconds(spanReduce),
		"core.shift_factor_s":  r.seconds("core.shift_factor"),
		"core.basis_union_s":   r.seconds("core.basis_union"),
		"core.basis_columns":   float64(st.BasisColumns),
		"core.basis_kept":      float64(st.BasisKept),
	}
	if f := v["chol.factor_s"]; f > 0 {
		v["chol.factor_gflop_per_s"] = v["chol.factor_gflop"] / f
	}
	if i := r.find(spanTransform1); i >= 0 {
		v["core.moments_s"] = selfTime(r.spans, i).Seconds()
	}
	if i := r.find(spanReduce); i >= 0 {
		v["core.project_s"] = selfTime(r.spans, i).Seconds()
	}
	v["trace.coverage"] = coverage(r.spans, 0)
	return v
}

// timedOperator wraps the E′ operator and adds up the time spent in its
// applications, splitting a Lanczos run into operator and check time.
type timedOperator struct {
	inner lanczos.Operator
	busy  time.Duration
}

func (o *timedOperator) Dim() int { return o.inner.Dim() }

func (o *timedOperator) Apply(dst, src []float64) {
	t0 := time.Now()
	o.inner.Apply(dst, src)
	o.busy += time.Since(t0)
}

// replayLanczos reruns the pole analysis of a single-point reduction on
// its E′ operator with Transform 2's options, timing the operator
// separately. It must take exactly the iterations the reduction took
// and find the same eigenvalues. It returns operator and check seconds.
func replayLanczos(ctx context.Context, o *opResult, opts pact.Options) (opS, checkS float64, err error) {
	copts := coreOptions(opts)
	if copts.Seed == 0 {
		copts.Seed = 1 // core's default starting-vector seed
	}
	op := &timedOperator{inner: o.tr.EOp()}
	t0 := time.Now()
	res, err := lanczos.FindAboveCtx(ctx, op, lanczos.Options{
		// ConvTol is core's default Ritz tolerance, as Transform 2 passes it.
		Cutoff: o.stats.LambdaC, Mode: copts.LanczosMode, ConvTol: 1e-8, Seed: copts.Seed,
	})
	find := time.Since(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("lanczos replay: %w", err)
	}
	if res.Iterations != o.stats.LanczosIters {
		return 0, 0, fmt.Errorf("lanczos replay took %d iterations, the reduction %d", res.Iterations, o.stats.LanczosIters)
	}
	vals := res.Values
	if copts.MaxPoles > 0 && len(vals) > copts.MaxPoles {
		vals = vals[:copts.MaxPoles]
	}
	if o.stats.PolesPruned == 0 && !sameBits(vals, o.model.Lambda) {
		return 0, 0, fmt.Errorf("lanczos replay found different eigenvalues than the reduction")
	}
	return op.busy.Seconds(), (find - op.busy).Seconds(), nil
}

// replayable reports whether a reduction's poles came from one clean
// Lanczos run that replayLanczos can repeat.
func (o *opResult) replayable() bool {
	return o.tr != nil && !o.stats.DenseEig && o.stats.LanczosIters > 0 && len(o.stats.Recoveries) == 0
}

// sameModel reports whether two models are Float64bits-identical.
func sameModel(a, b *core.ReducedModel) bool {
	return a.M == b.M && sameBits(a.Lambda, b.Lambda) &&
		sameMat(a.A, b.A) && sameMat(a.B, b.B) && sameMat(a.R, b.R)
}

func sameMat(a, b *dense.Mat) bool {
	return a.R == b.R && a.C == b.C && sameBits(a.Data, b.Data)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkOutput re-parses a reduced deck and checks the model is passive.
func checkOutput(o *opResult) error {
	if _, err := netlist.ParseString(o.text); err != nil {
		return fmt.Errorf("reduced deck does not re-parse: %w", err)
	}
	if !o.model.CheckPassive(1e-9) {
		return fmt.Errorf("reduced model is not passive")
	}
	return nil
}

// maxRelErr is the largest relative Y(jω) error of a reduction against
// the exact admittance over Verify's points up to fmax.
func maxRelErr(red *pact.Reduction, fmax float64) (float64, error) {
	pts, err := red.Verify(fmax, verifyPoints)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, p := range pts {
		worst = max(worst, p.RelErr)
	}
	return worst, nil
}

// verifyPoints is the sample count of the accuracy sweep: fmax/100,
// fmax/10 and fmax. The error grows with frequency, so fmax sets the
// maximum; each point on grid100k costs a solve of the 100k-node system.
const verifyPoints = 3
