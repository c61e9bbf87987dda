package chol

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/order"
	"repro/internal/sparse"
)

// shiftedResidual returns max_i |(D+sE)x − b|_i for the permuted pair.
func shiftedResidual(dp, ep *sparse.CSR, s complex128, x, b []complex128) float64 {
	worst := 0.0
	for i := 0; i < dp.Rows; i++ {
		acc := -b[i]
		cols, vals := dp.Row(i)
		for p, j := range cols {
			acc += complex(vals[p], 0) * x[j]
		}
		cols, vals = ep.Row(i)
		for p, j := range cols {
			acc += s * complex(vals[p], 0) * x[j]
		}
		if a := cmplx.Abs(acc); a > worst {
			worst = a
		}
	}
	return worst
}

// TestPencilSimplicialMatchesDense pins the small-order kernel choice of
// the pencil: below supernodalMinOrder it must take the up-looking
// complex LDLᵀ (nil workspace) and solve D+sE to working precision.
func TestPencilSimplicialMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(25)
		d := randomSPD(rng, n, 2*n)
		e := randomSPD(rng, n, n)
		e.Scale(1e-2)
		s := complex(0, 1+1e2*rng.Float64())
		pen, err := NewPencil(d, e, order.MinimumDegree)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if pen.an.ss != nil {
			t.Fatalf("trial %d: order %d must take the up-looking kernel", trial, n)
		}
		if ws := pen.NewWorkspace(); ws != nil {
			t.Fatalf("trial %d: up-looking pencil must hand out a nil workspace", trial)
		}
		f, err := pen.Factorize(s, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x := append([]complex128(nil), b...)
		if err := f.Solve(x); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r := shiftedResidual(pen.d, pen.e, s, x, b); r > 1e-8 {
			t.Fatalf("trial %d: residual %g", trial, r)
		}
	}
}

// TestPencilSupernodalDispatch pins the large-order kernel choice: at
// supernodalMinOrder and above the pencil must carry a supernodal plan
// and a reusable workspace, and the blocked complex factorization must
// solve multi-RHS blocks to working precision — the path every large
// multi-point shift reuses with one symbolic analysis.
func TestPencilSupernodalDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	n := supernodalMinOrder + 37
	d := randomSPD(rng, n, 3*n)
	e := randomSPD(rng, n, n)
	e.Scale(1e-2)
	s := complex(0, 42.5)
	pen, err := NewPencil(d, e, order.MinimumDegree)
	if err != nil {
		t.Fatal(err)
	}
	if pen.SuperSymbolic() == nil {
		t.Fatalf("order %d must take the supernodal kernel", n)
	}
	ws := pen.NewWorkspace()
	if ws == nil {
		t.Fatal("supernodal pencil must hand out a reusable workspace")
	}
	for round := 0; round < 2; round++ { // workspace must be reusable
		f, err := pen.Factorize(s, ws)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		const nrhs = 3
		rhs := make([]complex128, nrhs*n)
		for i := range rhs {
			rhs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x := append([]complex128(nil), rhs...)
		if err := f.SolveMulti(x, nrhs); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for c := 0; c < nrhs; c++ {
			if r := shiftedResidual(pen.d, pen.e, s, x[c*n:(c+1)*n], rhs[c*n:(c+1)*n]); r > 1e-7 {
				t.Fatalf("round %d: rhs %d residual %g", round, c, r)
			}
		}
	}
}

// pencilPair builds an RC-like pencil of order n: D a random grounded
// conductance matrix, E a capacitance matrix of picofarad scale whose
// pattern reaches entries D lacks — capacitors between node pairs no
// resistor joins — so the union pattern is strictly larger than D's.
func pencilPair(rng *rand.Rand, n int) (d, e *sparse.CSR) {
	d = randomSPD(rng, n, 3*n)
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1e-12*(0.5+rng.Float64()))
	}
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		c := 1e-12 * rng.Float64()
		b.AddSym(i, j, -c)
		b.Add(i, i, c)
		b.Add(j, j, c)
	}
	return d, b.Build()
}

// TestOraclePencil factors D+sE through Pencil on both kernels, at
// orders on either side of the kernel threshold and at shifts from the
// imaginary axis to off it, and compares the solves with a dense LU of
// the assembled matrix.
func TestOraclePencil(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	shifts := []complex128{complex(0, 1e6), complex(0, 1e9), complex(1e8, 1e9)}
	for _, n := range []int{130, 600} {
		d, e := pencilPair(rng, n)
		if sparse.PatternUnion(d, e).NNZ() <= d.NNZ() {
			t.Fatalf("n=%d: E adds no entries to the pattern of D", n)
		}
		pen, err := NewPencil(d, e, order.MinimumDegree)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dd, ed := pen.d.Dense(), pen.e.Dense()
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for _, s := range shifts {
			a := dense.NewC(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Set(i, j, complex(dd[i][j], 0)+s*complex(ed[i][j], 0))
				}
			}
			lu, err := dense.FactorCLU(a)
			if err != nil {
				t.Fatalf("n=%d s=%v: dense oracle: %v", n, s, err)
			}
			want := append([]complex128(nil), b...)
			lu.Solve(want)
			for _, supernodal := range []bool{false, true} {
				an, err := analyze(pen.an.pat, pen.an.sym, supernodal)
				if err != nil {
					t.Fatalf("n=%d supernodal=%v: %v", n, supernodal, err)
				}
				kp := *pen
				kp.an = an
				f, err := kp.Factorize(s, kp.NewWorkspace())
				if err != nil {
					t.Fatalf("n=%d s=%v supernodal=%v: %v", n, s, supernodal, err)
				}
				if got := f.super != nil; got != supernodal {
					t.Fatalf("n=%d: factor supernodal=%v, want %v", n, got, supernodal)
				}
				got := append([]complex128(nil), b...)
				if err := f.Solve(got); err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if cmplx.Abs(got[i]-want[i]) > 1e-9*(1+cmplx.Abs(want[i])) {
						t.Fatalf("n=%d s=%v supernodal=%v: solve[%d] = %v, dense oracle %v",
							n, s, supernodal, i, got[i], want[i])
					}
				}
			}
		}
	}
}
