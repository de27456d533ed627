package eval

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// countFirings enumerates the rule under ctx and returns the number
// of emitted bindings.
func countFirings(r *Rule, ctx *Ctx) int {
	n := 0
	r.Enumerate(ctx, func(Binding) bool {
		n++
		return true
	})
	return n
}

// TestAuxOverlayNoDoubleVisit is the regression test for the overlay
// double-counting bug: a tuple present in both In and Aux used to be
// visited twice per match step, inflating firing counts (and, through
// BodySupports, duplicating provenance). The oracle is a cloned
// instance holding the union, where each tuple exists exactly once.
func TestAuxOverlayNoDoubleVisit(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`P(X,Z) :- G(X,Y), G(Y,Z).`, u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	in := parser.MustParseFacts(`G(a,b). G(b,c). G(c,d).`, u)
	// Aux overlaps In on G(b,c) and adds G(d,e): the overlapping tuple
	// must be matched once, not once per source.
	aux := parser.MustParseFacts(`G(b,c). G(d,e).`, u)

	union := in.Clone()
	aux.Relation("G").Each(func(tp tuple.Tuple) bool {
		union.Insert("G", tp)
		return true
	})

	adom := ActiveDomain(u, nil, union)
	for _, noPlan := range []bool{false, true} {
		got := countFirings(cr, &Ctx{In: in, Aux: aux, Adom: adom, DeltaLit: -1, NoPlan: noPlan})
		want := countFirings(cr, &Ctx{In: union, Adom: adom, DeltaLit: -1, NoPlan: noPlan})
		if got != want {
			t.Errorf("NoPlan=%v: overlay fired %d times, cloned-union oracle fired %d", noPlan, got, want)
		}
	}
}

// TestAuxOverlayUniqueSupports checks the provenance side of the same
// bug: BodySupports must yield each distinct support list once.
func TestAuxOverlayUniqueSupports(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`P(X) :- G(X).`, u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	in := parser.MustParseFacts(`G(a). G(b).`, u)
	aux := parser.MustParseFacts(`G(a).`, u) // full overlap on G(a)
	seen := map[string]int{}
	cr.Enumerate(&Ctx{In: in, Aux: aux, Adom: ActiveDomain(u, nil, in), DeltaLit: -1}, func(b Binding) bool {
		key := ""
		for _, f := range cr.BodySupports(b) {
			key += f.Pred + f.Tuple.Key() + ";"
		}
		seen[key]++
		return true
	})
	for key, n := range seen {
		if n != 1 {
			t.Errorf("support list %q seen %d times, want 1", key, n)
		}
	}
	if len(seen) != 2 {
		t.Errorf("got %d distinct supports, want 2 (G(a), G(b))", len(seen))
	}
}

// TestAdomCacheStableAcrossStages pins the satellite fix: a fixpoint
// loop that consults the domain every stage but only mutates the
// instance in some of them must pay one recompute per actual change,
// independent of the stage count.
func TestAdomCacheStableAcrossStages(t *testing.T) {
	u := value.New()
	in := parser.MustParseFacts(`G(a,b). G(b,c).`, u)
	c := NewAdomCache(u, nil, false)

	base := c.Domain(in)
	want := ActiveDomain(u, nil, in)
	if fmt.Sprint(base) != fmt.Sprint(want) {
		t.Fatalf("cached domain %v != ActiveDomain %v", base, want)
	}
	for i := 0; i < 50; i++ {
		c.Domain(in)
	}
	if got := c.Recomputes(); got != 1 {
		t.Fatalf("50 unchanged stages cost %d recomputes, want 1", got)
	}

	// A real change must invalidate...
	in.Insert("G", tuple.Tuple{u.Sym("c"), u.Sym("d")})
	after := c.Domain(in)
	if fmt.Sprint(after) != fmt.Sprint(ActiveDomain(u, nil, in)) {
		t.Fatalf("domain stale after insert")
	}
	if got := c.Recomputes(); got != 2 {
		t.Fatalf("one change cost %d recomputes, want 2 total", got)
	}
	// ...and stability must return afterwards.
	for i := 0; i < 50; i++ {
		c.Domain(in)
	}
	if got := c.Recomputes(); got != 2 {
		t.Fatalf("post-change stages cost %d recomputes, want 2 total", got)
	}
}

// TestAdomCacheSeesDeleteReinsert guards the fingerprint mode: a
// delete+reinsert cycle that restores the same tuple set must hit the
// cache, while a delete that removes a value's last occurrence must
// recompute (insert-only stamping would miss it).
func TestAdomCacheSeesDeleteReinsert(t *testing.T) {
	u := value.New()
	in := parser.MustParseFacts(`P(a). P(b).`, u)
	c := NewAdomCache(u, nil, false)
	c.Domain(in)

	b := tuple.Tuple{u.Sym("b")}
	in.Delete("P", b)
	d1 := c.Domain(in)
	if fmt.Sprint(d1) != fmt.Sprint(ActiveDomain(u, nil, in)) {
		t.Fatalf("stale domain after delete: %v", d1)
	}
	in.Insert("P", b)
	d2 := c.Domain(in)
	if fmt.Sprint(d2) != fmt.Sprint(ActiveDomain(u, nil, in)) {
		t.Fatalf("stale domain after reinsert: %v", d2)
	}
}

// TestPlanCacheSharing checks that a shared cache actually serves the
// second evaluation of the same rule shape from memory.
func TestPlanCacheSharing(t *testing.T) {
	u := value.New()
	facts := `A(a). A(b). B(a,x). B(b,y). C(x). C(y).`
	mkRule := func() *Rule {
		r, err := parser.ParseRule(`Q(X,Z) :- A(X), B(X,Z), C(Z).`, u)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := Compile(r)
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	in := parser.MustParseFacts(facts, u)
	adom := ActiveDomain(u, nil, in)
	cache := NewPlanCache()

	results := func(cr *Rule) []string {
		var out []string
		cr.Enumerate(&Ctx{In: in, Adom: adom, DeltaLit: -1, Plans: cache}, func(b Binding) bool {
			for _, f := range cr.HeadFacts(b, nil) {
				out = append(out, f.Pred+f.Tuple.Key())
			}
			return true
		})
		sort.Strings(out)
		return out
	}
	first := results(mkRule())
	st := cache.Stats()
	if st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("first evaluation did not populate the cache: %+v", st)
	}
	second := results(mkRule())
	st2 := cache.Stats()
	if st2.Hits <= st.Hits {
		t.Fatalf("second evaluation missed the shared cache: %+v -> %+v", st, st2)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("cached plan changed results: %v vs %v", first, second)
	}
}

// TestPlanMemoAlternatingSignatures: a rule whose joined relations
// flip between size decades from stage to stage (the Datalog¬¬
// pattern) must plan each cardinality signature once and reuse the
// memoized schedule afterwards, not re-plan on every flip.
func TestPlanMemoAlternatingSignatures(t *testing.T) {
	u := value.New()
	r, err := parser.ParseRule(`Q(X,Z) :- A(X), B(X,Z).`, u)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(r)
	if err != nil {
		t.Fatal(err)
	}
	// Two instances whose A and B sizes sit in different decades.
	small, large := tuple.NewInstance(), tuple.NewInstance()
	small.Insert("A", tuple.Tuple{u.Int(0)})
	large.Insert("B", tuple.Tuple{u.Int(0), u.Int(0)})
	for i := 0; i < 100; i++ {
		small.Insert("B", tuple.Tuple{u.Int(int64(i)), u.Int(int64(i))})
		large.Insert("A", tuple.Tuple{u.Int(int64(i))})
	}
	ctxs := []*Ctx{{In: small, DeltaLit: -1}, {In: large, DeltaLit: -1}}
	if cr.planSig(ctxs[0]) == cr.planSig(ctxs[1]) {
		t.Fatal("test instances share a cardinality signature")
	}
	first := make([]*step, len(ctxs))
	for round := 0; round < 6; round++ {
		i := round % 2
		st, planned := cr.planFor(ctxs[i])
		if !planned || len(st) == 0 {
			t.Fatalf("round %d: no planner schedule", round)
		}
		if first[i] == nil {
			first[i] = &st[0]
		} else if &st[0] != first[i] {
			t.Fatalf("round %d: signature %d was planned again", round, i)
		}
	}
}

// TestWarmIndexesCoversAllSources is the -race regression test for
// the warm-path bug: WarmIndexes used to skip NegIn and Aux (and the
// planner's mask-0 iterator source), so the first parallel stage
// would lazily build those indexes from racing goroutines. After
// warming, concurrent Enumerate calls over one shared ctx must be
// read-only.
func TestWarmIndexesCoversAllSources(t *testing.T) {
	u := value.New()
	srcs := []string{
		`R(X,Y) :- A(X), B(Y).`,          // cross product: mask-0 iterator source
		`S(X) :- A(X), E(X,Y), !N(Y).`,   // bound probe + negation
		`T(X,Y) :- A(X), B(Y), !E(X,Y).`, // negation over a pair
	}
	var rules []*Rule
	for _, src := range srcs {
		r, err := parser.ParseRule(src, u)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := Compile(r)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, cr)
	}
	in := parser.MustParseFacts(`A(a). A(b). A(c). B(x). B(y). E(a,x). E(b,y). E(c,x).`, u)
	negIn := parser.MustParseFacts(`N(x).`, u)
	aux := parser.MustParseFacts(`E(c,y). A(d).`, u)
	ctx := &Ctx{In: in, NegIn: negIn, Aux: aux, Adom: ActiveDomain(u, nil, in), DeltaLit: -1}

	WarmIndexes(rules, ctx)

	var wg sync.WaitGroup
	counts := make([]int, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, cr := range rules {
				counts[w] += countFirings(cr, ctx)
			}
		}()
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		if counts[w] != counts[0] {
			t.Fatalf("worker %d saw %d firings, worker 0 saw %d", w, counts[w], counts[0])
		}
	}
}
