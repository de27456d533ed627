package unchained_test

import (
	"testing"

	"unchained/internal/core"
	"unchained/internal/declarative"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/queries"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// TestSemiNaiveAllocsDoNotGrowWithFirings pins the allocation-free
// firing loop: a rule firing stages its head facts into the round's
// delta through a reused buffer, and Enumerate reuses its scratch, so
// the allocations of one semi-naive TC evaluation come from relation
// storage growth (arena, slot table, posting lists: a few per node),
// not from firings. From 64 to 256 nodes the firings grow ~15× while
// the bound grows ~2×. Allocation counts are deterministic, so the
// test needs no wall clock.
func TestSemiNaiveAllocsDoNotGrowWithFirings(t *testing.T) {
	for _, n := range []int{64, 256} {
		u := value.New()
		in := gen.Random(u, "G", n, 6*n, int64(n))
		p := parser.MustParse(queries.TC, u)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := declarative.Eval(p, in, u, nil); err != nil {
				t.Fatal(err)
			}
		})
		if bound := float64(1024 + 8*n); allocs > bound {
			t.Errorf("TC over %d nodes: %.0f allocations per evaluation, want at most %.0f", n, allocs, bound)
		}
	}
}

// TestCounterAllocsPerStage bounds the Datalog¬¬ binary counter
// (Theorem 4.8, k = 6: 64 stages of 13 rules): a stage may allocate
// its staging and successor instances, but its rule firings allocate
// nothing.
func TestCounterAllocsPerStage(t *testing.T) {
	const k = 6
	u := value.New()
	p := parser.MustParse(queries.Counter(k), u)
	in := tuple.NewInstance()
	in.Ensure("One", 1)
	allocs := testing.AllocsPerRun(3, func() {
		res, err := core.EvalNonInflationary(p, in, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stages != 1<<k {
			t.Fatalf("counter ran %d stages, want %d", res.Stages, 1<<k)
		}
	})
	if bound := float64(55 << k); allocs > bound {
		t.Errorf("counter (k=%d): %.0f allocations per evaluation, want at most %.0f", k, allocs, bound)
	}
}
