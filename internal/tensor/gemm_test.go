package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The blocked GEMM must match the retained naive kernels on every
// shape, in particular at the tiling remainder edges: dimensions of
// 1, a prime, tile−1, tile, tile+1 and a couple of tiles plus change,
// for each of the micro-tile (MR/NR), row-block (MC), k-slab (KC) and
// column-slab (NC) boundaries.

// gemmEdgeDims lists the dimension sizes exercised per axis.
func gemmEdgeDims() []int {
	dims := []int{1, 3, gemmMR - 1, gemmMR, gemmMR + 1, 2*gemmMR + 5}
	for _, tile := range []int{gemmMC, gemmKC} {
		dims = append(dims, tile-1, tile, tile+1)
	}
	return dims
}

func relTol(got, want, tol float32) bool {
	d := math.Abs(float64(got - want))
	scale := math.Max(1, math.Abs(float64(want)))
	return d <= float64(tol)*scale
}

func assertGemmClose(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v != %v", label, got.Shape(), want.Shape())
	}
	for i := range got.Data() {
		if !relTol(got.Data()[i], want.Data()[i], 1e-4) {
			t.Fatalf("%s: elem %d: blocked %v vs naive %v", label, i, got.Data()[i], want.Data()[i])
		}
	}
}

// checkAllOps runs the three blocked entry points against their naive
// references for one (m, k, n). Tensors are filled with values whose
// exact magnitude varies per element so index bugs can't cancel out.
func checkAllOps(t *testing.T, rng *RNG, m, k, n int) {
	t.Helper()
	label := fmt.Sprintf("m=%d k=%d n=%d", m, k, n)

	a := New(m, k)
	b := New(k, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)

	want := New(m, n)
	matMulNaiveInto(want, a, b)
	got := New(m, n)
	gemm(m, n, k, a.data, k, 1, b.data, n, 1, got.data)
	assertGemmClose(t, "AB "+label, got, want)

	// Aᵀ·B with A stored k×m.
	at := New(k, m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			at.data[p*m+i] = a.data[i*k+p]
		}
	}
	matMulNaiveATBInto(want, at, b)
	gemm(m, n, k, at.data, 1, m, b.data, n, 1, got.data)
	assertGemmClose(t, "ATB "+label, got, want)

	// A·Bᵀ with B stored n×k.
	bt := New(n, k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bt.data[j*k+p] = b.data[p*n+j]
		}
	}
	matMulNaiveABTInto(want, a, bt)
	gemm(m, n, k, a.data, k, 1, bt.data, 1, k, got.data)
	assertGemmClose(t, "ABT "+label, got, want)
}

func TestGemmMatchesNaiveAtTileEdges(t *testing.T) {
	rng := NewRNG(42)
	dims := gemmEdgeDims()
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				// The largest triples are covered by the fuzz and NC
				// tests; skip the very biggest here to keep -short fast.
				if m*k*n > gemmKC*gemmKC*8 {
					continue
				}
				checkAllOps(t, rng, m, k, n)
			}
		}
	}
}

// TestGemmMatchesNaiveAcrossNC crosses the column-slab boundary, which
// the edge-dim sweep above (capped for runtime) does not reach.
func TestGemmMatchesNaiveAcrossNC(t *testing.T) {
	rng := NewRNG(43)
	for _, n := range []int{gemmNC - 1, gemmNC, gemmNC + 1, gemmNC + gemmNR + 3} {
		checkAllOps(t, rng, 9, 33, n)
	}
	// And a k deep enough for two KC slabs against a multi-panel n.
	checkAllOps(t, rng, gemmMR+2, 2*gemmKC+5, 3*gemmNR+1)
}

func TestGemmMatchesNaiveFuzz(t *testing.T) {
	rng := NewRNG(1234)
	trials := 40
	if testing.Short() {
		trials = 12
	}
	for i := 0; i < trials; i++ {
		m := 1 + rng.Intn(150)
		k := 1 + rng.Intn(300)
		n := 1 + rng.Intn(150)
		checkAllOps(t, rng, m, k, n)
	}
}

// TestGemmThroughPublicAPI checks that the dispatching entry points
// (including the small-shape naive fallback) agree with the naive
// reference on both sides of the gemmMinFlops threshold.
func TestGemmThroughPublicAPI(t *testing.T) {
	rng := NewRNG(7)
	for _, dims := range [][3]int{{4, 4, 4}, {8, 16, 8}, {32, 64, 48}, {70, 130, 90}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := New(m, k)
		b := New(k, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		want := New(m, n)
		matMulNaiveInto(want, a, b)
		got := New(m, n)
		MatMulInto(got, a, b)
		assertGemmClose(t, fmt.Sprintf("public m=%d k=%d n=%d", m, k, n), got, want)
	}
}

// TestGemmParallelMatchesSerial drives the blocked engine through the
// worker pool and compares against the single-worker result.
func TestGemmParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(99)
	m, k, n := 3*gemmMC+7, gemmKC+9, 2*gemmNR*8+3
	a := New(m, k)
	b := New(k, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)

	prev := SetMaxWorkers(1)
	serial := MatMul(a, b)
	SetMaxWorkers(8)
	par := MatMul(a, b)
	SetMaxWorkers(prev)
	assertGemmClose(t, "pool parallel", par, serial)
}

// TestGemmPortableKernelMatchesNaive forces the pure-Go 2×4 fallback
// micro-kernel (regardless of what init() selected for this CPU) so the
// portable path keeps its coverage on machines where the assembly
// kernel is active.
func TestGemmPortableKernelMatchesNaive(t *testing.T) {
	defer ForcePortable()()

	rng := NewRNG(77)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 8, 4}, {5, 17, 9}, {65, 257, 33}, {64, 256, 64}} {
		checkAllOps(t, rng, dims[0], dims[1], dims[2])
	}
}

func TestBufferPoolRecycles(t *testing.T) {
	s := GetF32(1000)
	if len(s) != 1000 || cap(s) != 1024 {
		t.Fatalf("GetF32(1000): len %d cap %d", len(s), cap(s))
	}
	for i := range s {
		s[i] = 7
	}
	PutF32(s)
	s2 := GetF32(900)
	if cap(s2) != 1024 {
		t.Fatalf("recycled cap %d, want 1024", cap(s2))
	}
	z := GetF32Zeroed(512)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetF32Zeroed: elem %d = %v", i, v)
		}
	}
	// Foreign slices (non-power-of-two cap) must be silently dropped.
	PutF32(make([]float32, 1000))
	// Tiny and nil requests.
	if GetF32(0) != nil {
		t.Fatal("GetF32(0) must be nil")
	}
	PutF32(nil)

	tt := GetTensorZeroed(3, 5)
	if tt.Dim(0) != 3 || tt.Dim(1) != 5 {
		t.Fatalf("pooled tensor shape %v", tt.Shape())
	}
	for _, v := range tt.Data() {
		if v != 0 {
			t.Fatal("GetTensorZeroed returned dirty storage")
		}
	}
	PutTensor(tt)
	PutTensor(nil)
}
