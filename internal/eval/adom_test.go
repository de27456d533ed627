package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"unchained/internal/gen"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// sortThenDedupe is the reference active domain: every occurrence
// sorted by u.Compare, then adjacent duplicates dropped.
func sortThenDedupe(u *value.Universe, consts []value.Value, in *tuple.Instance) []value.Value {
	all := append([]value.Value(nil), consts...)
	in.EachRel(func(_ string, r *tuple.Relation) {
		r.Each(func(t tuple.Tuple) bool {
			all = append(all, t...)
			return true
		})
	})
	sort.Slice(all, func(i, j int) bool { return u.Compare(all[i], all[j]) < 0 })
	var out []value.Value
	for i, v := range all {
		if i == 0 || v != all[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestActiveDomainMatchesSortThenDedupe: deduplicating by handle
// before sorting must give exactly the reference domain on instances
// that mix symbols, integers and invented values, interned in an
// order unrelated to Compare's, with heavy duplication, deleted rows,
// and program constants that overlap the instance.
func TestActiveDomainMatchesSortThenDedupe(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		u := value.New()
		var pool []value.Value
		for i := 0; i < 40; i++ {
			switch rng.Intn(3) {
			case 0:
				pool = append(pool, u.Sym(fmt.Sprintf("s%d", rng.Intn(30))))
			case 1:
				pool = append(pool, u.Int(int64(rng.Intn(60)-30)))
			default:
				pool = append(pool, u.Fresh())
			}
		}
		in := tuple.NewInstance()
		for _, arity := range []int{1, 2, 3} {
			rel := in.Ensure(fmt.Sprintf("R%d", arity), arity)
			for i := 0; i < 200; i++ {
				tup := make(tuple.Tuple, arity)
				for j := range tup {
					tup[j] = pool[rng.Intn(len(pool))]
				}
				rel.Insert(tup)
				if rng.Intn(4) == 0 {
					rel.Delete(tup)
				}
			}
		}
		consts := []value.Value{pool[0], pool[len(pool)-1], u.Sym("only_in_program"), u.Int(99), pool[0]}
		got := ActiveDomain(u, consts, in)
		want := sortThenDedupe(u, consts, in)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: ActiveDomain differs from sort-then-dedupe:\n got %v\nwant %v", seed, got, want)
		}
	}
	if got := ActiveDomain(value.New(), nil, nil); len(got) != 0 {
		t.Fatalf("empty domain: got %v", got)
	}
}

// BenchmarkActiveDomain computes the domain of the selective-join
// input shape: two 16k-edge relations over 2048 nodes, 64k value
// occurrences of which 2048 are distinct.
func BenchmarkActiveDomain(b *testing.B) {
	const n = 2048
	u := value.New()
	in := gen.Random(u, "A", n, 8*n, 1)
	rel := in.Ensure("B", 2)
	gen.Random(u, "B", n, 8*n, 2).Relation("B").Each(func(t tuple.Tuple) bool {
		rel.Insert(t)
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := ActiveDomain(u, nil, in); len(d) == 0 {
			b.Fatal("empty domain")
		}
	}
}
