package eval

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// enumerateAll runs one Enumerate of r under ctx and returns its head
// facts, rendered and sorted.
func enumerateAll(u *value.Universe, r *Rule, ctx *Ctx) []string {
	var out []string
	var head []value.Value
	r.Enumerate(ctx, func(b Binding) bool {
		for i, h := range r.Heads() {
			head = r.HeadTuple(i, b, head)
			out = append(out, h.Pred+tuple.Tuple(head).String(u))
		}
		return true
	})
	slices.Sort(out)
	return out
}

// scratchFixture is a graph over n nodes with a three-way join rule
// that has a negative literal and a constant, so every kind of
// per-step buffer (probe pattern, negative check) is in use.
func scratchFixture(t *testing.T, n int) (*value.Universe, *Rule, *tuple.Instance) {
	t.Helper()
	u := value.New()
	in := tuple.NewInstance()
	node := func(i int) value.Value { return u.Sym(fmt.Sprintf("n%d", i%n)) }
	for i := 0; i < n; i++ {
		in.Insert("E", tuple.Tuple{node(i), node(i + 1)})
		in.Insert("E", tuple.Tuple{node(i), node(3*i + 2)})
		if i%3 == 0 {
			in.Insert("Blocked", tuple.Tuple{node(i)})
		}
	}
	in.Insert("Mark", tuple.Tuple{node(0), u.Sym("on")})
	r, err := parser.ParseRule(`P(X,W) :- E(X,Y), E(Y,Z), E(Z,W), !Blocked(Y), Mark(Q,on).`, u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	return u, cr, in
}

// TestEnumerateConcurrentScratch enumerates one compiled rule from
// several goroutines at once — the stageParallel shape (every worker
// on the same warmed instance) and the RunSharded shape (every worker
// on its own snapshot and delta partition) — and compares each
// worker's output with the serial enumeration. The rule's spare
// scratch goes to one caller at a time; run under -race.
func TestEnumerateConcurrentScratch(t *testing.T) {
	u, cr, in := scratchFixture(t, 48)
	ctx := &Ctx{In: in, Adom: ActiveDomain(u, nil, in), DeltaLit: -1}
	want := enumerateAll(u, cr, ctx)
	if len(want) == 0 {
		t.Fatal("fixture has no firings; test is vacuous")
	}

	const workers = 8
	WarmIndexes([]*Rule{cr}, ctx)
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got[w] = enumerateAll(u, cr, ctx)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !slices.Equal(got[w], want) {
			t.Fatalf("shared-instance worker %d: %d facts, serial %d", w, len(got[w]), len(want))
		}
	}

	// Sharded shape: the first E literal reads the delta, partitioned.
	dv, err := CompileDelta(cr.Src, 0)
	if err != nil {
		t.Fatal(err)
	}
	delta := tuple.NewInstance()
	delta.Ensure("E", 2).UnionInPlace(in.Relation("E"))
	serial := enumerateAll(u, dv, &Ctx{In: in, Adom: ctx.Adom, Delta: delta, DeltaLit: 0})
	parts := delta.Partition(workers)
	snaps := make([]*tuple.Instance, workers)
	for w := range snaps {
		snaps[w] = in.Snapshot()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx := &Ctx{In: snaps[w], Adom: ctx.Adom, Delta: parts[w], DeltaLit: 0}
			got[w] = enumerateAll(u, dv, wctx)
		}(w)
	}
	wg.Wait()
	var merged []string
	for _, g := range got {
		merged = append(merged, g...)
	}
	slices.Sort(merged)
	if !slices.Equal(merged, serial) {
		t.Fatalf("sharded workers emitted %d facts, serial %d", len(merged), len(serial))
	}
}

// TestEnumerateNested re-enters Enumerate on the same rule from inside
// emit: the nested call must get its own scratch, leaving the outer
// call's binding and probe patterns intact.
func TestEnumerateNested(t *testing.T) {
	u, cr, in := scratchFixture(t, 24)
	ctx := &Ctx{In: in, Adom: ActiveDomain(u, nil, in), DeltaLit: -1}
	want := enumerateAll(u, cr, ctx)
	var got []string
	var head []value.Value
	nested := 0
	cr.Enumerate(ctx, func(b Binding) bool {
		if nested < 3 {
			nested++
			if inner := enumerateAll(u, cr, ctx); !slices.Equal(inner, want) {
				t.Errorf("nested call: %d facts, want %d", len(inner), len(want))
			}
		}
		head = cr.HeadTuple(0, b, head)
		got = append(got, "P"+tuple.Tuple(head).String(u))
		return true
	})
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("outer call after nesting: %d facts, want %d", len(got), len(want))
	}
}
