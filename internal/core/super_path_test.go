package core

import (
	"math/rand"
	"runtime"
	"testing"
)

// supernodalOrder is an internal-node count above the order at which
// chol.Analyze picks the supernodal kernel, so the systems below take
// the blocked path on their own.
const supernodalOrder = 600

// TestReduceSupernodalMeetsOracle runs the full reduction on a system
// large enough for the supernodal kernel and checks the reduced model
// against the dense admittance oracle over the band: the accuracy
// claim holds on the blocked path, not only on the small golden decks
// the up-looking kernel factors. (The kernels themselves are
// cross-checked against each other in internal/chol.)
func TestReduceSupernodalMeetsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	sys := randomSystem(rng, 6, supernodalOrder)
	const fmax, tol = 0.05, 0.05 // rad-normalized units; poles of these networks are O(1)
	model, stats, err := Reduce(sys, Options{FMax: fmax, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supernodes == 0 {
		t.Fatalf("order %d did not take the supernodal kernel", sys.N)
	}
	if stats.FactorFlops <= 0 || stats.CholeskyBytes <= 0 {
		t.Fatalf("supernodal stats: flops %g, bytes %d", stats.FactorFlops, stats.CholeskyBytes)
	}
	e, err := OracleMaxRelErr(sys, model, OracleFreqs(fmax, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	// The per-pole tolerance bounds each dropped term; allow the
	// aggregate a small factor, as TestReduceMeetsTolerance does.
	if e > 3*tol {
		t.Fatalf("max relative Y error %g over the band exceeds %g (%d poles kept)", e, 3*tol, model.K())
	}
	t.Logf("%d poles, max relative Y error %.3g", model.K(), e)
}

// TestReduceSupernodalDeterministicAcrossGOMAXPROCS extends the
// bit-determinism contract to the supernodal pipeline: parallel panel
// factorization plus the blocked multi-RHS solves of both transforms
// must leave no trace of the worker count in the reduced model.
func TestReduceSupernodalDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sys := randomSystem(rng, 7, supernodalOrder)
	opts := Options{FMax: 0.05, Tol: 0.05} // rad-normalized units, as above

	run := func() ([]float64, []float64, []float64, []float64) {
		model, stats, err := Reduce(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Supernodes == 0 {
			t.Fatal("supernodal path not taken")
		}
		return model.Lambda, model.A.Data, model.B.Data, model.R.Data
	}
	old := runtime.GOMAXPROCS(1)
	lamS, aS, bS, rS := run()
	runtime.GOMAXPROCS(4)
	lamP, aP, bP, rP := run()
	runtime.GOMAXPROCS(old)

	bitsEqualSlice(t, "Lambda", lamP, lamS)
	bitsEqualSlice(t, "A", aP, aS)
	bitsEqualSlice(t, "B", bP, bS)
	bitsEqualSlice(t, "R", rP, rS)
}
