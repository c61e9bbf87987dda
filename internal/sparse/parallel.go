package sparse

import (
	"fmt"

	"repro/internal/par"
)

// buildRowChunk is the number of matrix rows a BuildPar worker sorts and
// merges per task. Chunk boundaries depend only on the row count, never
// on the worker count, so the work split is deterministic.
const buildRowChunk = 1024

// Reserve grows the builder's triplet capacity so that n further Add
// calls do not reallocate. Stamping pre-sizes from deck element counts
// through this.
func (b *Builder) Reserve(n int) {
	if need := len(b.v) + n; need > cap(b.v) {
		r := make([]int, len(b.r), need)
		copy(r, b.r)
		b.r = r
		c := make([]int, len(b.c), need)
		copy(c, b.c)
		b.c = c
		v := make([]float64, len(b.v), need)
		copy(v, b.v)
		b.v = v
	}
}

// Append bulk-adds pre-validated triplet slices, the merge primitive for
// per-chunk stamping buckets. Entries are appended in order, so a fixed
// bucket merge order yields the exact triplet sequence a serial stamp
// would have produced.
func (b *Builder) Append(r, c []int, v []float64) {
	if len(r) != len(c) || len(r) != len(v) {
		panic("sparse: Append slice length mismatch")
	}
	for k := range r {
		if r[k] < 0 || r[k] >= b.rows || c[k] < 0 || c[k] >= b.cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d matrix", r[k], c[k], b.rows, b.cols))
		}
	}
	b.r = append(b.r, r...)
	b.c = append(b.c, c...)
	b.v = append(b.v, v...)
}

// BuildPar is Build with the per-row sort and duplicate merge fanned out
// across the worker pool. The bucket-placement pass preserves triplet
// order within each row and the per-row sort and summation run the exact
// code Build runs, so the result is bit-identical to Build() at every
// GOMAXPROCS — the property the front-end determinism tests pin with
// Float64bits.
func (b *Builder) BuildPar() *CSR {
	if b.rows < 2*buildRowChunk {
		return b.Build()
	}
	// Serial counting pass and bucket placement, as in Build.
	rowCount := make([]int, b.rows+1)
	for _, i := range b.r {
		rowCount[i+1]++
	}
	for i := 0; i < b.rows; i++ {
		rowCount[i+1] += rowCount[i]
	}
	col := make([]int, len(b.v))
	val := make([]float64, len(b.v))
	next := make([]int, b.rows)
	copy(next, rowCount[:b.rows])
	for k, i := range b.r {
		p := next[i]
		col[p] = b.c[k]
		val[p] = b.v[k]
		next[i]++
	}
	// Parallel per-row-range sort and in-place duplicate merge. Each row
	// compacts within its own [rowCount[i], rowCount[i+1]) segment, so
	// chunks never write across a boundary; kept counts land in
	// iteration-owned rowLen slots.
	rowLen := make([]int, b.rows)
	par.ForChunks(b.rows, buildRowChunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			segLo, segHi := rowCount[i], rowCount[i+1]
			sortRow(col[segLo:segHi], val[segLo:segHi])
			dst := segLo
			for p := segLo; p < segHi; {
				j := col[p]
				sum := 0.0
				for p < segHi && col[p] == j {
					sum += val[p]
					p++
				}
				if sum != 0 {
					col[dst] = j
					val[dst] = sum
					dst++
				}
			}
			rowLen[i] = dst - segLo
		}
	})
	// Serial prefix sum over kept counts, then a parallel gather into
	// exact-size output arrays (in-place compaction would write across
	// chunk boundaries).
	rowPtr := make([]int, b.rows+1)
	for i := 0; i < b.rows; i++ {
		rowPtr[i+1] = rowPtr[i] + rowLen[i]
	}
	nnz := rowPtr[b.rows]
	outCol := make([]int, nnz)
	outVal := make([]float64, nnz)
	par.ForChunks(b.rows, buildRowChunk, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			segLo := rowCount[i]
			copy(outCol[rowPtr[i]:rowPtr[i+1]], col[segLo:segLo+rowLen[i]])
			copy(outVal[rowPtr[i]:rowPtr[i+1]], val[segLo:segLo+rowLen[i]])
		}
	})
	return &CSR{Rows: b.rows, Cols: b.cols, RowPtr: rowPtr, Col: outCol, Val: outVal}
}
