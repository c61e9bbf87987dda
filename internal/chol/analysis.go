package chol

import (
	"repro/internal/order"
	"repro/internal/sparse"
)

// supernodalMinOrder is the matrix order at and above which Analyze
// selects the supernodal blocked kernel. Below it the scalar up-looking
// kernel is faster: on decks of a few hundred nodes the supernodal
// analysis and the width-1 panels of the blocked solves cost more than
// blocking saves (DESIGN.md §10 records the measurement).
const supernodalMinOrder = 512

// Analysis is the symbolic state for repeated numeric factorizations of
// one pattern: its symbolic factorization and, at supernodal order, the
// amalgamated supernodal analysis. Analyze once, then Factorize (real
// LLᵀ) or FactorizeComplex (complex LDLᵀ) as often as the values
// change — the amortization a frequency sweep or a recovery ladder
// needs. Analysis is the one place that decides which kernel factors a
// pattern.
type Analysis struct {
	pat *sparse.CSR
	sym *order.Symbolic
	ss  *SuperSymbolic // nil: the up-looking kernel
}

// Analyze performs the symbolic analysis for numeric factorizations of
// the given (already ordered) pattern and its symbolic factorization.
// Orders at or above supernodalMinOrder get the supernodal
// amalgamation, so every subsequent factorization runs the blocked
// DAG-scheduled kernel; smaller ones run the up-looking kernel.
func Analyze(pat *sparse.CSR, sym *order.Symbolic) (*Analysis, error) {
	return analyze(pat, sym, pat.Rows >= supernodalMinOrder)
}

// analyze is Analyze with the kernel given explicitly; the tests call it
// to cross-check the two kernels on the same pattern.
func analyze(pat *sparse.CSR, sym *order.Symbolic, supernodal bool) (*Analysis, error) {
	an := &Analysis{pat: pat, sym: sym}
	if supernodal {
		ss, err := AnalyzeSuper(pat, sym, order.SupernodeOptions{})
		if err != nil {
			return nil, err
		}
		an.ss = ss
	}
	return an, nil
}

// NewWorkspace returns a reusable factorization workspace for the
// supernodal kernel, or nil for the up-looking kernel (which allocates
// per call and ignores the workspace).
func (an *Analysis) NewWorkspace() *FactorWorkspace {
	if an.ss == nil {
		return nil
	}
	return an.ss.NewWorkspace()
}

// Factorize computes the real Cholesky factorization A = LLᵀ of a
// matrix carrying exactly the analyzed pattern. A non-nil workspace
// (supernodal kernel only) is reused across calls; the returned factor
// then aliases it and is valid until the next factorization against the
// same workspace.
func (an *Analysis) Factorize(a *sparse.CSR, ws *FactorWorkspace) (*Factor, error) {
	if an.ss != nil {
		return an.ss.Factorize(a, ws)
	}
	return factorizeUpLooking(a, an.sym)
}

// FactorizeComplex runs one complex LDLᵀ numeric factorization of the
// analyzed pattern with entry values supplied per stored pattern
// position, under the workspace contract of Factorize.
func (an *Analysis) FactorizeComplex(val func(p int) complex128, ws *FactorWorkspace) (*ComplexFactor, error) {
	if an.ss != nil {
		return an.ss.FactorizeComplex(val, ws)
	}
	return factorizeComplexUpLooking(an.pat, val, an.sym)
}

// Pencil is the matrix function D + sE of two symmetric matrices, ready
// to be factored at any complex shift s: the fill-reducing ordering of
// their pattern union, both operands permuted into it, the position of
// each union entry in either operand, and the Analysis of the union.
// It is built once per pair; every Factorize afterwards pays only the
// numeric factorization. A Pencil is read-only after NewPencil, so
// factorizations at different shifts may run concurrently, each with
// its own workspace.
type Pencil struct {
	// Perm is the ordering of the union pattern (new index -> old
	// index): solves against a factor of the pencil take right-hand
	// sides permuted by it.
	Perm []int

	d, e       *sparse.CSR // operands in the Perm order
	dPos, ePos []int       // union position -> operand position, -1 if absent
	an         *Analysis
}

// NewPencil orders the pattern union of d and e with method and
// analyzes it for repeated complex factorizations of D + sE. The kernel
// follows Analyze.
func NewPencil(d, e *sparse.CSR, method order.Method) (*Pencil, error) {
	sym := order.Analyze(sparse.PatternUnion(d, e), method)
	dp := d.PermuteSym(sym.Perm)
	ep := e.PermuteSym(sym.Perm)
	pat := sparse.PatternUnion(dp, ep)
	an, err := Analyze(pat, sym)
	if err != nil {
		return nil, err
	}
	p := &Pencil{Perm: sym.Perm, d: dp, e: ep, an: an}
	p.dPos = alignTo(pat, dp)
	p.ePos = alignTo(pat, ep)
	return p, nil
}

// alignTo maps every stored position of the union pattern pat to the
// stored position of the same entry in a, or -1 where a has none.
func alignTo(pat, a *sparse.CSR) []int {
	pos := make([]int, pat.NNZ())
	for i := 0; i < pat.Rows; i++ {
		q := a.RowPtr[i]
		for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
			j := pat.Col[p]
			for q < a.RowPtr[i+1] && a.Col[q] < j {
				q++
			}
			pos[p] = -1
			if q < a.RowPtr[i+1] && a.Col[q] == j {
				pos[p] = q
			}
		}
	}
	return pos
}

// NewWorkspace returns a reusable workspace for Factorize, or nil when
// the pencil factors with the up-looking kernel.
func (p *Pencil) NewWorkspace() *FactorWorkspace { return p.an.NewWorkspace() }

// Factorize computes the complex LDLᵀ factorization of D + sE in the
// Perm order, under the workspace contract of Analysis.Factorize.
func (p *Pencil) Factorize(s complex128, ws *FactorWorkspace) (*ComplexFactor, error) {
	return p.an.FactorizeComplex(func(q int) complex128 {
		var v complex128
		if k := p.dPos[q]; k >= 0 {
			v += complex(p.d.Val[k], 0)
		}
		if k := p.ePos[q]; k >= 0 {
			v += s * complex(p.e.Val[k], 0)
		}
		return v
	}, ws)
}

// SuperSymbolic returns the pencil's supernodal analysis, or nil on the
// up-looking kernel: the panel, fill and flop counts benchmark reports
// quote.
func (p *Pencil) SuperSymbolic() *SuperSymbolic { return p.an.ss }
