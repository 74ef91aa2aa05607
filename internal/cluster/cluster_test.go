package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// matrixDist adapts a symmetric matrix to a DistFunc.
func matrixDist(m [][]float64) DistFunc {
	return func(i, j int) float64 { return m[i][j] }
}

func TestAgglomerateErrors(t *testing.T) {
	if _, err := Agglomerate(0, nil); err != ErrNoItems {
		t.Errorf("n=0 err = %v, want ErrNoItems", err)
	}
	if _, err := Agglomerate(-3, nil); err != ErrNoItems {
		t.Errorf("n<0 err = %v, want ErrNoItems", err)
	}
	bad := func(i, j int) float64 { return -1 }
	if _, err := Agglomerate(2, bad); err == nil {
		t.Error("negative distance: expected error")
	}
	// MaxFloat64 is finite, but averaging it would overflow to +Inf.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.MaxFloat64} {
		invalid := func(i, j int) float64 { return v }
		if _, err := Agglomerate(3, invalid); err == nil {
			t.Errorf("%v distance: expected error", v)
		}
	}
}

func TestAgglomerateSingleItem(t *testing.T) {
	d, err := Agglomerate(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Leaves() != 1 || len(d.Merges()) != 0 {
		t.Errorf("single item dendrogram: %d leaves, %d merges", d.Leaves(), len(d.Merges()))
	}
	clusters := d.Cut(0)
	if len(clusters) != 1 || len(clusters[0]) != 1 || clusters[0][0] != 0 {
		t.Errorf("Cut(0) = %v", clusters)
	}
}

func TestAgglomerateKnownOrder(t *testing.T) {
	// 0 and 1 are close (d=1), 2 is moderately far (d=4,5), 3 is far.
	m := [][]float64{
		{0, 1, 4, 20},
		{1, 0, 5, 20},
		{4, 5, 0, 20},
		{20, 20, 20, 0},
	}
	d, err := Agglomerate(4, matrixDist(m))
	if err != nil {
		t.Fatal(err)
	}
	merges := d.Merges()
	if len(merges) != 3 {
		t.Fatalf("merges = %d, want 3", len(merges))
	}
	// First merge: 0+1 at weight 1.
	if merges[0].A != 0 || merges[0].B != 1 || merges[0].Weight != 1 {
		t.Errorf("merge 0 = %+v", merges[0])
	}
	if merges[0].Parent != 4 {
		t.Errorf("merge 0 parent = %d, want 4", merges[0].Parent)
	}
	// Second: {0,1}+2 at average distance (4+5)/2 = 4.5.
	if merges[1].A != 4 || merges[1].B != 2 || merges[1].Weight != 4.5 {
		t.Errorf("merge 1 = %+v", merges[1])
	}
	// Third: everything + 3 at average 20.
	if merges[2].Weight != 20 {
		t.Errorf("merge 2 weight = %v, want 20", merges[2].Weight)
	}
}

func TestCutBoundaries(t *testing.T) {
	m := [][]float64{
		{0, 1, 4},
		{1, 0, 5},
		{4, 5, 0},
	}
	d, err := Agglomerate(3, matrixDist(m))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Cut(0); !reflect.DeepEqual(got, [][]int{{0, 1, 2}}) {
		t.Errorf("Cut(0) = %v", got)
	}
	if got := d.Cut(-5); !reflect.DeepEqual(got, [][]int{{0, 1, 2}}) {
		t.Errorf("Cut(-5) = %v", got)
	}
	if got := d.Cut(1); !reflect.DeepEqual(got, [][]int{{0, 1}, {2}}) {
		t.Errorf("Cut(1) = %v", got)
	}
	if got := d.Cut(2); !reflect.DeepEqual(got, [][]int{{0}, {1}, {2}}) {
		t.Errorf("Cut(2) = %v", got)
	}
	if got := d.Cut(99); !reflect.DeepEqual(got, [][]int{{0}, {1}, {2}}) {
		t.Errorf("Cut(99) = %v", got)
	}
}

func TestCutTopFraction(t *testing.T) {
	// Two tight blobs far apart: cutting any positive fraction must
	// separate them.
	pts := []float64{0, 0.1, 0.2, 100, 100.1, 100.2}
	dist := func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) }
	d, err := Agglomerate(len(pts), dist)
	if err != nil {
		t.Fatal(err)
	}
	clusters := d.CutTopFraction(0.2) // ceil(0.2*5) = 1 link
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	if !reflect.DeepEqual(clusters[0], []int{0, 1, 2}) || !reflect.DeepEqual(clusters[1], []int{3, 4, 5}) {
		t.Errorf("clusters = %v", clusters)
	}
	// frac <= 0 keeps everything together.
	if got := d.CutTopFraction(0); len(got) != 1 {
		t.Errorf("CutTopFraction(0) = %v", got)
	}
	// frac >= 1 shatters everything.
	if got := d.CutTopFraction(1); len(got) != len(pts) {
		t.Errorf("CutTopFraction(1) = %v", got)
	}
}

func TestCutTopFractionSingleLeaf(t *testing.T) {
	d, err := Agglomerate(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CutTopFraction(0.05); len(got) != 1 {
		t.Errorf("single leaf CutTopFraction = %v", got)
	}
}

// Average linkage is monotone: merge weights never decrease.
func TestAverageLinkageMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		m := randomDistMatrix(rng, n)
		d, err := Agglomerate(n, matrixDist(m))
		if err != nil {
			t.Fatal(err)
		}
		merges := d.Merges()
		if len(merges) != n-1 {
			t.Fatalf("trial %d: %d merges for n=%d", trial, len(merges), n)
		}
		for i := 1; i < len(merges); i++ {
			if merges[i].Weight < merges[i-1].Weight-1e-9 {
				t.Fatalf("trial %d: inversion at merge %d: %v < %v",
					trial, i, merges[i].Weight, merges[i-1].Weight)
			}
		}
	}
}

// Any cut yields a valid partition: every leaf appears exactly once.
func TestCutIsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(25)
		m := randomDistMatrix(rng, n)
		d, err := Agglomerate(n, matrixDist(m))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, n / 2, n - 1} {
			clusters := d.Cut(k)
			seen := make(map[int]bool)
			for _, c := range clusters {
				for _, leaf := range c {
					if leaf < 0 || leaf >= n {
						t.Fatalf("leaf %d out of range", leaf)
					}
					if seen[leaf] {
						t.Fatalf("leaf %d appears twice in Cut(%d)", leaf, k)
					}
					seen[leaf] = true
				}
			}
			if len(seen) != n {
				t.Fatalf("Cut(%d) covers %d of %d leaves", k, len(seen), n)
			}
			// Cutting k links yields exactly k+1 clusters (monotone linkage).
			if len(clusters) != k+1 {
				t.Fatalf("Cut(%d) produced %d clusters, want %d", k, len(clusters), k+1)
			}
		}
	}
}

// The Lance–Williams update must agree with brute-force average linkage
// (recomputing cluster distances as mean pairwise leaf distance).
func TestLanceWilliamsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		m := randomDistMatrix(rng, n)
		d, err := Agglomerate(n, matrixDist(m))
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceUPGMA(m)
		got := d.Merges()
		for i := range want {
			if math.Abs(got[i].Weight-want[i]) > 1e-9 {
				t.Fatalf("trial %d: merge %d weight %v, brute force %v", trial, i, got[i].Weight, want[i])
			}
		}
	}
}

// bruteForceUPGMA returns the sequence of merge weights computed by
// explicitly averaging leaf-to-leaf distances between clusters.
func bruteForceUPGMA(m [][]float64) []float64 {
	n := len(m)
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	avg := func(a, b []int) float64 {
		var sum float64
		for _, x := range a {
			for _, y := range b {
				sum += m[x][y]
			}
		}
		return sum / float64(len(a)*len(b))
	}
	var weights []float64
	for len(clusters) > 1 {
		bi, bj := 0, 1
		best := math.Inf(1)
		for i := range clusters {
			for j := i + 1; j < len(clusters); j++ {
				if v := avg(clusters[i], clusters[j]); v < best {
					best = v
					bi, bj = i, j
				}
			}
		}
		weights = append(weights, best)
		merged := append(append([]int{}, clusters[bi]...), clusters[bj]...)
		next := make([][]int, 0, len(clusters)-1)
		for k := range clusters {
			if k != bi && k != bj {
				next = append(next, clusters[k])
			}
		}
		clusters = append(next, merged)
	}
	return weights
}

func TestDiameter(t *testing.T) {
	m := [][]float64{
		{0, 1, 4},
		{1, 0, 5},
		{4, 5, 0},
	}
	dist := matrixDist(m)
	if got := Diameter([]int{0, 1, 2}, dist); got != 5 {
		t.Errorf("Diameter = %v, want 5", got)
	}
	if got := Diameter([]int{0, 1}, dist); got != 1 {
		t.Errorf("Diameter = %v, want 1", got)
	}
	if got := Diameter([]int{2}, dist); got != 0 {
		t.Errorf("singleton Diameter = %v, want 0", got)
	}
	if got := Diameter(nil, dist); got != 0 {
		t.Errorf("empty Diameter = %v, want 0", got)
	}
}

func TestTiedDistancesDeterministic(t *testing.T) {
	// All pairwise distances equal: the dendrogram must still be valid
	// and deterministic across runs.
	dist := func(i, j int) float64 { return 1 }
	d1, err := Agglomerate(6, dist)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Agglomerate(6, dist)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1.Merges(), d2.Merges()) {
		t.Error("tied-distance dendrograms differ across runs")
	}
	for _, k := range []int{0, 2, 5} {
		if !reflect.DeepEqual(d1.Cut(k), d2.Cut(k)) {
			t.Errorf("Cut(%d) differs across runs", k)
		}
	}
}

func randomDistMatrix(rng *rand.Rand, n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64() * 100
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m
}

func BenchmarkAgglomerate200(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	m := randomDistMatrix(rng, 200)
	dist := matrixDist(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Agglomerate(200, dist); err != nil {
			b.Fatal(err)
		}
	}
}

// With monotone (average-linkage) weights and ties broken toward later
// merges, the removed-link set of any cut is upward-closed: if a merge is
// removed, every merge above it (referencing its parent, directly or
// transitively) is removed too. This is what makes Cut(k) equivalent to
// undoing the last k merges.
func TestCutRemovedSetUpwardClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(20)
		m := randomDistMatrix(rng, n)
		d, err := Agglomerate(n, matrixDist(m))
		if err != nil {
			t.Fatal(err)
		}
		merges := d.Merges()
		for k := 1; k < n-1; k++ {
			clusters := d.Cut(k)
			// Reconstruct which merges were "kept" by checking whether
			// both children's leaf sets ended up in one cluster.
			leafSets := make(map[int]map[int]bool) // cluster id -> leaves
			for leaf := 0; leaf < n; leaf++ {
				leafSets[leaf] = map[int]bool{leaf: true}
			}
			inSameCluster := func(a, b map[int]bool) bool {
				for _, c := range clusters {
					members := make(map[int]bool, len(c))
					for _, leaf := range c {
						members[leaf] = true
					}
					okA, okB := true, true
					for leaf := range a {
						if !members[leaf] {
							okA = false
							break
						}
					}
					for leaf := range b {
						if !members[leaf] {
							okB = false
							break
						}
					}
					if okA && okB {
						return true
					}
				}
				return false
			}
			removedBelow := false
			for _, mg := range merges {
				a, b := leafSets[mg.A], leafSets[mg.B]
				union := make(map[int]bool, len(a)+len(b))
				for leaf := range a {
					union[leaf] = true
				}
				for leaf := range b {
					union[leaf] = true
				}
				leafSets[mg.Parent] = union
				kept := inSameCluster(a, b)
				if !kept {
					removedBelow = true
				} else if removedBelow {
					t.Fatalf("trial %d k=%d: kept merge above a removed one", trial, k)
				}
			}
		}
	}
}

// naiveClosestPairMerges reimplements the pre-cache Agglomerate selection
// (full upper-triangle rescan each step, strict < so ties break toward
// the smallest slot pair) as a reference for the nearest-neighbor cache.
func naiveClosestPairMerges(n int, m [][]float64) []Merge {
	mat := make([][]float64, n)
	for i := range mat {
		mat[i] = append([]float64(nil), m[i]...)
	}
	active := make([]bool, n)
	size := make([]int, n)
	slotID := make([]int, n)
	for i := 0; i < n; i++ {
		active[i], size[i], slotID[i] = true, 1, i
	}
	var merges []Merge
	for step := 0; step < n-1; step++ {
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if active[j] && mat[i][j] < best {
					best = mat[i][j]
					bi, bj = i, j
				}
			}
		}
		parent := n + step
		merges = append(merges, Merge{A: slotID[bi], B: slotID[bj], Parent: parent, Weight: best})
		ni, nj := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			upd := (ni*mat[bi][k] + nj*mat[bj][k]) / (ni + nj)
			mat[bi][k] = upd
			mat[k][bi] = upd
		}
		size[bi] += size[bj]
		slotID[bi] = parent
		active[bj] = false
	}
	return merges
}

// The nearest-neighbor cache must reproduce the naive full-rescan merge
// sequence exactly — same pairs, same order, same weights — including on
// tie-heavy matrices where distances repeat constantly.
func TestAgglomerateMatchesNaiveRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		var m [][]float64
		if trial%2 == 0 {
			m = randomDistMatrix(rng, n)
		} else {
			// Distances drawn from {0,1,2,3} force heavy ties, stressing
			// the tie-break bookkeeping.
			m = make([][]float64, n)
			for i := range m {
				m[i] = make([]float64, n)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					v := float64(rng.Intn(4))
					m[i][j], m[j][i] = v, v
				}
			}
		}
		d, err := Agglomerate(n, matrixDist(m))
		if err != nil {
			t.Fatal(err)
		}
		want := naiveClosestPairMerges(n, m)
		if !reflect.DeepEqual(d.Merges(), want) {
			t.Fatalf("trial %d (n=%d): merge sequence diverged from naive rescan\n got: %+v\nwant: %+v",
				trial, n, d.Merges(), want)
		}
	}
}

func TestCutTopFractionTwoItems(t *testing.T) {
	d, err := Agglomerate(2, func(i, j int) float64 { return 3 })
	if err != nil {
		t.Fatal(err)
	}
	// One link: frac=0 keeps the pair together, any positive frac
	// removes ceil(frac·1) = 1 link and shatters it.
	if got := d.CutTopFraction(0); !reflect.DeepEqual(got, [][]int{{0, 1}}) {
		t.Errorf("frac=0: %v", got)
	}
	if got := d.CutTopFraction(0.01); !reflect.DeepEqual(got, [][]int{{0}, {1}}) {
		t.Errorf("frac=0.01: %v", got)
	}
	if got := d.CutTopFraction(1); !reflect.DeepEqual(got, [][]int{{0}, {1}}) {
		t.Errorf("frac=1: %v", got)
	}
}

func TestCutTopFractionAllEqualDistances(t *testing.T) {
	// All-equal distances: every merge weight is identical (average
	// linkage of constant distances is that constant), so cutting must
	// still produce valid partitions of the expected cardinality and stay
	// deterministic.
	n := 7
	d, err := Agglomerate(n, func(i, j int) float64 { return 2.5 })
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range d.Merges() {
		if m.Weight != 2.5 {
			t.Fatalf("merge weight %v, want 2.5", m.Weight)
		}
	}
	for _, tc := range []struct {
		frac float64
		want int
	}{{0, 1}, {0.5, 4}, {1, n}} { // ceil(0.5·6)=3 cuts → 4 clusters
		got := d.CutTopFraction(tc.frac)
		if len(got) != tc.want {
			t.Errorf("frac=%v: %d clusters, want %d (%v)", tc.frac, len(got), tc.want, got)
		}
		seen := map[int]bool{}
		for _, c := range got {
			for _, leaf := range c {
				if seen[leaf] {
					t.Fatalf("frac=%v: leaf %d duplicated", tc.frac, leaf)
				}
				seen[leaf] = true
			}
		}
		if len(seen) != n {
			t.Errorf("frac=%v: partition covers %d of %d leaves", tc.frac, len(seen), n)
		}
	}
}

func TestMeanPairwiseDegenerate(t *testing.T) {
	m := [][]float64{
		{0, 4, 6},
		{4, 0, 8},
		{6, 8, 0},
	}
	dist := matrixDist(m)
	if got := MeanPairwise([]int{0, 1}, dist); got != 4 {
		t.Errorf("pair MeanPairwise = %v, want 4", got)
	}
	if got := MeanPairwise([]int{0, 1, 2}, dist); got != 6 {
		t.Errorf("MeanPairwise = %v, want (4+6+8)/3 = 6", got)
	}
	if got := MeanPairwise([]int{1}, dist); got != 0 {
		t.Errorf("singleton MeanPairwise = %v, want 0", got)
	}
	if got := MeanPairwise(nil, dist); got != 0 {
		t.Errorf("empty MeanPairwise = %v, want 0", got)
	}
	// All-equal distances: mean equals the common value and matches the
	// diameter.
	eq := func(i, j int) float64 { return 1.5 }
	members := []int{0, 1, 2, 3}
	if got := MeanPairwise(members, eq); got != 1.5 {
		t.Errorf("all-equal MeanPairwise = %v, want 1.5", got)
	}
	if Diameter(members, eq) != MeanPairwise(members, eq) {
		t.Error("all-equal distances: mean and diameter must agree")
	}
	// Mean never exceeds the diameter.
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		rm := randomDistMatrix(rng, n)
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		mean, diam := MeanPairwise(members, matrixDist(rm)), Diameter(members, matrixDist(rm))
		if mean > diam+1e-12 {
			t.Fatalf("trial %d: mean %v > diameter %v", trial, mean, diam)
		}
	}
}
