package chol

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/order"
	"repro/internal/sparse"
)

// analyzeMeshSuper builds the permuted mesh matrix and its supernodal
// symbolic structure under minimum-degree ordering — the production
// configuration of the large-mesh path.
func analyzeMeshSuper(t *testing.T, nx, ny int) (*SuperSymbolic, *sparse.CSR) {
	t.Helper()
	a := meshSPD(nx, ny)
	sym := order.Analyze(a, order.MinimumDegree)
	ap := a.PermuteSym(sym.Perm)
	ss, err := AnalyzeSuper(ap, sym, order.SupernodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ss, ap
}

// TestDAGScheduleBitIdenticalRealFactor pins the determinism contract
// for the real LLᵀ: the packed factor of the DAG schedule is
// Float64bits-identical to the serial run at every GOMAXPROCS, with and
// without a pooled workspace.
func TestDAGScheduleBitIdenticalRealFactor(t *testing.T) {
	ss, ap := analyzeMeshSuper(t, 40, 40)

	serial := runtime.GOMAXPROCS(1)
	ref, err := ss.Factorize(ap, nil)
	runtime.GOMAXPROCS(serial)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), ref.super.val...)

	ws := ss.NewWorkspace()
	for _, procs := range []int{1, 2, 4, 8} {
		old := runtime.GOMAXPROCS(procs)
		fresh, err := ss.Factorize(ap, nil)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "fresh factor", want, fresh.super.val)
		pooled, err := ss.Factorize(ap, ws)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "workspace factor", want, pooled.super.val)
		runtime.GOMAXPROCS(old)
	}
}

// TestDAGScheduleBitIdenticalComplexFactor is the complex LDLᵀ half of
// the pin: packed panels AND the diagonal must be bit-identical across
// GOMAXPROCS and workspace reuse — the YSweep re-factorization
// configuration.
func TestDAGScheduleBitIdenticalComplexFactor(t *testing.T) {
	ss, ap := analyzeMeshSuper(t, 32, 32)
	val := func(p int) complex128 {
		return complex(ap.Val[p], 0.25*ap.Val[p]) // (1+0.25i)·A: symmetric, nonsingular
	}

	serial := runtime.GOMAXPROCS(1)
	ref, err := ss.FactorizeComplex(val, nil)
	runtime.GOMAXPROCS(serial)
	if err != nil {
		t.Fatal(err)
	}
	wantV := append([]complex128(nil), ref.super.val...)
	wantD := append([]complex128(nil), ref.super.d...)

	ws := ss.NewWorkspace()
	for _, procs := range []int{1, 2, 4, 8} {
		old := runtime.GOMAXPROCS(procs)
		for _, useWS := range []bool{false, true} {
			var w *FactorWorkspace
			if useWS {
				w = ws
			}
			f, err := ss.FactorizeComplex(val, w)
			if err != nil {
				t.Fatal(err)
			}
			cbitsEqual(t, "complex panels", wantV, f.super.val)
			cbitsEqual(t, "complex diagonal", wantD, f.super.d)
		}
		runtime.GOMAXPROCS(old)
	}
}

func cbitsEqual(t *testing.T, what string, a, b []complex128) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			t.Fatalf("%s: entry %d differs in bits: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// TestFactorWorkspaceSteadyStateAllocs pins the memory-engineering half
// of the tentpole: repeated factorizations through one workspace must
// allocate only O(1) descriptor objects (the returned factor handles),
// never the panel/scratch/solve storage — the property that makes
// AC-sweep re-factorizations allocation-free in steady state.
func TestFactorWorkspaceSteadyStateAllocs(t *testing.T) {
	ss, ap := analyzeMeshSuper(t, 30, 30)
	val := func(p int) complex128 { return complex(ap.Val[p], 0.25*ap.Val[p]) }

	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	ws := ss.NewWorkspace()
	n := ss.sym.N
	rhs := make([]float64, 4*n)
	crhs := make([]complex128, 4*n)

	// Warm every lazily created buffer once.
	if _, err := ss.Factorize(ap, ws); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.FactorizeComplex(val, ws); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(5, func() {
		f, err := ss.Factorize(ap, ws)
		if err != nil {
			t.Fatal(err)
		}
		f.SolveMulti(rhs, 4)
		cf, err := ss.FactorizeComplex(val, ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := cf.SolveMulti(crhs, 4); err != nil {
			t.Fatal(err)
		}
	})
	// Factor/ComplexFactor handles and scheduler closures are O(1) small
	// objects; the panels (the megabytes) must be pooled.
	if allocs > 16 {
		t.Fatalf("steady-state factorize+solve allocates %v objects/op, want O(1) descriptors only", allocs)
	}
}

// TestDAGScheduleErrorDeterministic: a non-SPD matrix must fail with
// the same typed error (single failing panel) at several worker counts,
// with no early exit corrupting the report.
func TestDAGScheduleErrorDeterministic(t *testing.T) {
	a := meshSPD(24, 24)
	// Flip one diagonal deep in the matrix: that column's pivot goes
	// negative during elimination.
	for p := a.RowPtr[400]; p < a.RowPtr[401]; p++ {
		if a.Col[p] == 400 {
			a.Val[p] = -5
		}
	}
	sym := order.Analyze(a, order.MinimumDegree)
	ap := a.PermuteSym(sym.Perm)
	ss, err := AnalyzeSuper(ap, sym, order.SupernodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		_, err := ss.Factorize(ap, nil)
		if !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("procs=%d: err = %v, want ErrNotPositiveDefinite", procs, err)
		}
		msgs = append(msgs, err.Error())
		runtime.GOMAXPROCS(old)
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("error message drifted across procs: %q vs %q", msgs[0], m)
		}
	}
}

// treeSPD builds a random tree of n nodes (node i hangs off a random
// earlier node), grounded everywhere: its elimination tree under the
// natural order is exactly that tree.
func treeSPD(rng *rand.Rand, n int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 0.1)
		if i > 0 {
			j := rng.Intn(i)
			b.AddSym(i, j, -1)
			b.Add(i, i, 1)
			b.Add(j, j, 1)
		}
	}
	return b.Build()
}

// mesh3SPD builds the grounded conductance matrix of an nx×ny×nz
// resistor mesh.
func mesh3SPD(nx, ny, nz int) *sparse.CSR {
	n := nx * ny * nz
	b := sparse.NewBuilder(n, n)
	idx := func(x, y, z int) int { return (z*ny+y)*nx + x }
	link := func(i, j int) {
		b.AddSym(i, j, -1)
		b.Add(i, i, 1)
		b.Add(j, j, 1)
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := idx(x, y, z)
				b.Add(i, i, 0.1)
				if x+1 < nx {
					link(i, idx(x+1, y, z))
				}
				if y+1 < ny {
					link(i, idx(x, y+1, z))
				}
				if z+1 < nz {
					link(i, idx(x, y, z+1))
				}
			}
		}
	}
	return b.Build()
}

// TestSupernodalLeavesAreWidestLevel pins the worker-pool sizing of the
// panel DAG: the count of supernodes with no updaters must equal the
// widest level of the supernodal elimination tree, computed here by
// height the way the removed level schedule did, on grid, tree, ladder
// and mesh patterns.
func TestSupernodalLeavesAreWidestLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tc := range []struct {
		name   string
		a      *sparse.CSR
		method order.Method
	}{
		{"grid", meshSPD(40, 40), order.MinimumDegree},
		{"tree", treeSPD(rng, 700), order.Natural},
		{"ladder", meshSPD(2, 400), order.MinimumDegree},
		{"mesh", mesh3SPD(10, 10, 8), order.MinimumDegree},
	} {
		sym := order.Analyze(tc.a, tc.method)
		ap := tc.a.PermuteSym(sym.Perm)
		ss, err := AnalyzeSuper(ap, sym, order.SupernodeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Height in the supernodal etree: children precede their parent,
		// so one ascending pass computes every height.
		ns := ss.NSuper()
		level := make([]int, ns)
		width := map[int]int{}
		for s := 0; s < ns; s++ {
			width[level[s]]++
			last := ss.sn.Super[s+1] - 1
			if p := sym.Parent[last]; p >= 0 {
				if ps := ss.sn.ColToSuper[p]; level[ps] < level[s]+1 {
					level[ps] = level[s] + 1
				}
			}
		}
		widest := 0
		for _, w := range width {
			if w > widest {
				widest = w
			}
		}
		if ss.leaves != widest || ss.leaves != width[0] {
			t.Fatalf("%s: %d leaves, widest level %d (level 0: %d) of %d supernodes",
				tc.name, ss.leaves, widest, width[0], ns)
		}
	}
}
