package oracle

import (
	"slices"
	"testing"
)

func TestHamming(t *testing.T) {
	a := []uint64{0b1011, 0}
	b := []uint64{0b0001, 1 << 63}
	if got := Hamming(a, b); got != 3 {
		t.Fatalf("Hamming = %d, want 3", got)
	}
	if got := Hamming(a, a); got != 0 {
		t.Fatalf("Hamming(a, a) = %d, want 0", got)
	}
}

func TestJaccard(t *testing.T) {
	x := []int32{1, 2, 3, 4, 5}
	y := []int32{1, 2, 3, 4, 6}
	// |x∩y| = 4, |x∪y| = 6: J = 2/3.
	if got := Overlap(x, y); got != 4 {
		t.Fatalf("Overlap = %d, want 4", got)
	}
	if !JaccardAtLeast(x, y, 2, 3) {
		t.Fatal("J = 2/3 must meet τ = 2/3 exactly")
	}
	if JaccardAtLeast(x, y, 4, 5) {
		t.Fatal("J = 2/3 must not meet τ = 0.8")
	}
	// 8 of 10 shared: J = 8/10 meets 0.8 at the boundary.
	p := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	q := []int32{1, 2, 3, 4, 5, 6, 7, 8, 10}
	if !JaccardAtLeast(p, q, 4, 5) {
		t.Fatal("J = 8/10 must meet τ = 0.8")
	}
	o, u := 4, 6
	if got, want := JaccardDistance(x, y), 1-float64(o)/float64(u); got != want {
		t.Fatalf("JaccardDistance = %v, want %v", got, want)
	}
}

func TestEditDistanceWithin(t *testing.T) {
	cases := []struct {
		a, b string
		tau  int
		want int
	}{
		{"kitten", "sitting", 3, 3},
		{"kitten", "sitting", 2, -1},
		{"flaw", "lawn", 2, 2},
		{"", "abc", 3, 3},
		{"", "abc", 2, -1},
		{"abc", "abc", 0, 0},
		{"abcdef", "abcxef", 1, 1},
		{"abcdef", "bcdefa", 2, 2},
		{"abcdef", "ab", 2, -1},
	}
	for _, c := range cases {
		if got := EditDistanceWithin(c.a, c.b, c.tau); got != c.want {
			t.Errorf("EditDistanceWithin(%q, %q, %d) = %d, want %d", c.a, c.b, c.tau, got, c.want)
		}
		if got := EditDistanceWithin(c.b, c.a, c.tau); got != c.want {
			t.Errorf("EditDistanceWithin(%q, %q, %d) = %d, want %d", c.b, c.a, c.tau, got, c.want)
		}
	}
}

func TestNearestBreaksTiesByID(t *testing.T) {
	within := []Result{{0, 3}, {3, 1}, {2, 2}, {1, 1}}
	got := Nearest(within, 3)
	want := []Result{{1, 1}, {3, 1}, {2, 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("Nearest = %v, want %v", got, want)
	}
	// Fewer objects within the ceiling than k.
	got = Nearest([]Result{{3, 1}, {1, 1}}, 10)
	if want := []Result{{1, 1}, {3, 1}}; !slices.Equal(got, want) {
		t.Fatalf("Nearest = %v, want %v", got, want)
	}
}

func TestSelfJoin(t *testing.T) {
	strs := []string{"abcd", "abce", "xyz", "abc", "xyzz", "q"}
	want := [][2]int64{{0, 1}, {0, 3}, {1, 3}, {2, 4}}
	within := func(i, j int) bool { return EditDistanceWithin(strs[i], strs[j], 1) >= 0 }
	size := make([]int, len(strs))
	for i, s := range strs {
		size[i] = len(s)
	}
	for _, workers := range []int{1, 2, 3} {
		if got := SelfJoin(len(strs), workers, nil, nil, within); !slices.Equal(got, want) {
			t.Fatalf("workers=%d, all pairs: %v, want %v", workers, got, want)
		}
		got := SelfJoin(len(strs), workers, size, func(s int) int { return s + 1 }, within)
		if !slices.Equal(got, want) {
			t.Fatalf("workers=%d, size window: %v, want %v", workers, got, want)
		}
	}
}

func TestJaccardJoin(t *testing.T) {
	sets := [][]int32{
		{1, 2, 3, 4, 5},    // 0
		{1, 2, 3, 4, 6},    // 1: J(0,1) = 4/6
		{1, 2, 3, 4, 5, 6}, // 2: J(0,2) = 5/6, J(1,2) = 5/6
		{7, 8},             // 3: shares nothing
		{7, 8},             // 4: J(3,4) = 1
	}
	for _, workers := range []int{1, 2} {
		if got, want := JaccardJoin(sets, 4, 5, workers), [][2]int64{{0, 2}, {1, 2}, {3, 4}}; !slices.Equal(got, want) {
			t.Fatalf("workers=%d, τ=0.8: %v, want %v", workers, got, want)
		}
		if got, want := JaccardJoin(sets, 2, 3, workers), [][2]int64{{0, 1}, {0, 2}, {1, 2}, {3, 4}}; !slices.Equal(got, want) {
			t.Fatalf("workers=%d, τ=2/3: %v, want %v", workers, got, want)
		}
	}
}

func TestGraphProperties(t *testing.T) {
	// A labeled triangle and the same triangle with one edge deleted
	// and one vertex relabeled: GED 2, and the label bound finds both.
	a := Graph{Labels: []int32{0, 0, 1}, Edges: [][3]int{{0, 1, 0}, {1, 2, 0}, {0, 2, 1}}}
	b := Graph{Labels: []int32{0, 2, 1}, Edges: [][3]int{{0, 1, 0}, {1, 2, 0}}}
	if got := LabelLowerBound(a, b); got != 2 {
		t.Fatalf("LabelLowerBound = %d, want 2", got)
	}
	if got := LabelLowerBound(a, a); got != 0 {
		t.Fatalf("LabelLowerBound(a, a) = %d, want 0", got)
	}
	// Edge order does not matter for equality; labels do.
	c := Graph{Labels: []int32{0, 0, 1}, Edges: [][3]int{{0, 2, 1}, {0, 1, 0}, {1, 2, 0}}}
	if !Equal(a, c) {
		t.Fatal("a and c are the same graph")
	}
	if Equal(a, b) {
		t.Fatal("a and b differ")
	}
}
