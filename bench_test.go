package unchained

// One testing.B benchmark per experiment of DESIGN.md. The rows the
// paper-shaped harness (cmd/unchained-bench) prints are regenerated
// here in benchmark form so `go test -bench=.` measures every
// experiment; EXPERIMENTS.md records the measured shapes.

import (
	"fmt"
	"testing"

	"unchained/internal/ast"
	"unchained/internal/core"
	"unchained/internal/declarative"
	"unchained/internal/gen"
	"unchained/internal/incr"
	"unchained/internal/magic"
	"unchained/internal/nondet"
	"unchained/internal/order"
	"unchained/internal/parser"
	"unchained/internal/queries"
	"unchained/internal/stats"
	"unchained/internal/tm"
	"unchained/internal/tuple"
	"unchained/internal/value"
	"unchained/internal/while"
)

// BenchmarkFig1_DatalogVsStratified measures TC (positive Datalog)
// against the complement CT (stratified Datalog¬) — experiment F1a.
func BenchmarkFig1_DatalogVsStratified(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("TC/n=%d", n), func(b *testing.B) {
			u := value.New()
			in := gen.Chain(u, "G", n)
			p := parser.MustParse(queries.TC, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := declarative.Eval(p, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("CT/n=%d", n), func(b *testing.B) {
			u := value.New()
			in := gen.Chain(u, "G", n)
			p := parser.MustParse(queries.CT, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := declarative.EvalStratified(p, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1_FixpointTrio measures the three fixpoint-class
// formalisms on the complement query — experiment F1b.
func BenchmarkFig1_FixpointTrio(b *testing.B) {
	const n = 12
	b.Run("while-fixpoint", func(b *testing.B) {
		u := value.New()
		in := gen.Random(u, "G", n, 2*n, 5)
		for i := 0; i < b.N; i++ {
			if _, err := while.Run(queries.CTFixpoint(), in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inflationary-delayed", func(b *testing.B) {
		u := value.New()
		in := gen.Random(u, "G", n, 2*n, 5)
		p := parser.MustParse(queries.DelayedCT, u)
		for i := 0; i < b.N; i++ {
			if _, err := core.EvalInflationary(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("well-founded", func(b *testing.B) {
		u := value.New()
		in := gen.Random(u, "G", n, 2*n, 5)
		p := parser.MustParse(queries.CT, u)
		for i := 0; i < b.N; i++ {
			if _, err := declarative.EvalWellFounded(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig1_WhilePair measures the cascade-delete pair —
// experiment F1c.
func BenchmarkFig1_WhilePair(b *testing.B) {
	mkIn := func(u *value.Universe) *tuple.Instance {
		tree := gen.Tree(u, "Mgr", 2, 7)
		in := tree.Clone()
		emp := in.Ensure("Emp", 1)
		tree.Relation("Mgr").Each(func(t tuple.Tuple) bool {
			emp.Insert(tuple.Tuple{t[0]})
			emp.Insert(tuple.Tuple{t[1]})
			return true
		})
		in.Insert("Fired", tuple.Tuple{u.Sym("n1")})
		return in
	}
	b.Run("datalog-negneg", func(b *testing.B) {
		u := value.New()
		in := mkIn(u)
		p := parser.MustParse(`
			Fired(X) :- Mgr(Y,X), Fired(Y).
			!Emp(X) :- Fired(X), Emp(X).
		`, u)
		for i := 0; i < b.N; i++ {
			if _, err := core.EvalNonInflationary(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("while", func(b *testing.B) {
		u := value.New()
		in := mkIn(u)
		for i := 0; i < b.N; i++ {
			if _, err := while.Run(queries.CascadeWhile(), in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig1_Invent measures the TM-through-Datalog¬new pipeline —
// experiment F1d.
func BenchmarkFig1_Invent(b *testing.B) {
	m := tm.ParityMachine()
	tape := []string{"a", "a", "a", "a", "a", "a"}
	b.Run("interpreter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := m.Run(tape, 1000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("datalog-new", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := value.New()
			if _, err := tm.Accepts(m, tape, u, 1<<14); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE32_WinGame measures the well-founded win query —
// experiment E32.
func BenchmarkE32_WinGame(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			u := value.New()
			in := gen.Game(u, "Moves", n, 2*n, int64(n))
			p := parser.MustParse(queries.Win, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := declarative.EvalWellFounded(p, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE41_Closer measures the inflationary closer program —
// experiment E41.
func BenchmarkE41_Closer(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("chain/n=%d", n), func(b *testing.B) {
			u := value.New()
			in := gen.Chain(u, "G", n)
			p := parser.MustParse(queries.Closer, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EvalInflationary(p, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE43_DelayedCT and BenchmarkP3_CTStratVsInfl measure the
// delayed-firing complement against the stratified baseline —
// experiments E43/P3.
func BenchmarkE43_DelayedCT(b *testing.B) { benchCTPair(b) }

func BenchmarkP3_CTStratVsInfl(b *testing.B) { benchCTPair(b) }

func benchCTPair(b *testing.B) {
	const n = 12
	b.Run("stratified", func(b *testing.B) {
		u := value.New()
		in := gen.Random(u, "G", n, 2*n, 3)
		p := parser.MustParse(queries.CT, u)
		for i := 0; i < b.N; i++ {
			if _, err := declarative.EvalStratified(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inflationary-delayed", func(b *testing.B) {
		u := value.New()
		in := gen.Random(u, "G", n, 2*n, 3)
		p := parser.MustParse(queries.DelayedCT, u)
		for i := 0; i < b.N; i++ {
			if _, err := core.EvalInflationary(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE44_GoodNodes measures the timestamp technique against the
// fixpoint baseline — experiment E44.
func BenchmarkE44_GoodNodes(b *testing.B) {
	b.Run("inflationary-timestamps", func(b *testing.B) {
		u := value.New()
		in := gen.LayeredDAG(u, "G", 4, 5, 2, 3)
		p := parser.MustParse(queries.GoodNodes, u)
		for i := 0; i < b.N; i++ {
			if _, err := core.EvalInflationary(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("while-fixpoint", func(b *testing.B) {
		u := value.New()
		in := gen.LayeredDAG(u, "G", 4, 5, 2, 3)
		for i := 0; i < b.N; i++ {
			if _, err := while.Run(queries.GoodFixpoint(), in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE45_FlipFlop measures non-termination detection —
// experiment E45.
func BenchmarkE45_FlipFlop(b *testing.B) {
	u := value.New()
	p := parser.MustParse(queries.FlipFlop, u)
	in := parser.MustParseFacts(`T(0).`, u)
	for i := 0; i < b.N; i++ {
		if _, err := core.EvalNonInflationary(p, in, u, nil); err == nil {
			b.Fatal("flip-flop terminated")
		}
	}
}

// BenchmarkE51_Orientation measures sampled nondeterministic runs —
// experiment E51.
func BenchmarkE51_Orientation(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("cycles=%d", k), func(b *testing.B) {
			u := value.New()
			in := gen.TwoCycles(u, "G", k)
			p := parser.MustParse(queries.Orientation, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nondet.Run(p, ast.DialectNDatalogNegNeg, in, u, int64(i), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE54_Difference and BenchmarkT56_NDPairs measure the three
// nondeterministic difference encodings — experiments E54/T56.
func BenchmarkE54_Difference(b *testing.B) { benchDiff(b) }

func BenchmarkT56_NDPairs(b *testing.B) { benchDiff(b) }

func benchDiff(b *testing.B) {
	const n = 5
	for name, cfg := range map[string]struct {
		src string
		d   ast.Dialect
	}{
		"negneg": {queries.DiffNegNeg, ast.DialectNDatalogNegNeg},
		"forall": {queries.DiffForall, ast.DialectNDatalogAll},
		"bottom": {queries.DiffBottom, ast.DialectNDatalogBot},
	} {
		b.Run(name, func(b *testing.B) {
			u := value.New()
			in := gen.Merge(
				gen.UnarySubset(u, "P", "All", n, n-1, 1),
				gen.Random(u, "Q", n, n, 51),
			)
			p := parser.MustParse(cfg.src, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nondet.Effects(p, cfg.d, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkT47_OrderedEven measures the evenness query on ordered
// databases under the coinciding semantics — experiment T47.
func BenchmarkT47_OrderedEven(b *testing.B) {
	for _, n := range []int{64, 512} {
		for name, run := range map[string]func(p *ast.Program, in *tuple.Instance, u *value.Universe) error{
			"stratified": func(p *ast.Program, in *tuple.Instance, u *value.Universe) error {
				_, err := declarative.EvalStratified(p, in, u, nil)
				return err
			},
			"inflationary": func(p *ast.Program, in *tuple.Instance, u *value.Universe) error {
				_, err := core.EvalInflationary(p, in, u, nil)
				return err
			},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				u := value.New()
				base := gen.UnarySubset(u, "R", "Dom", n, n/2, int64(n))
				in := order.WithOrder(base, u, nil, nil)
				p := parser.MustParse(queries.EvenOrdered, u)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(p, in, u); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkT48_Counter measures the exponential-stage binary counter
// — experiment T48. Stage count (2^k) doubles per bit.
func BenchmarkT48_Counter(b *testing.B) {
	for _, k := range []int{4, 8, 10} {
		b.Run(fmt.Sprintf("bits=%d", k), func(b *testing.B) {
			u := value.New()
			p := parser.MustParse(queries.Counter(k), u)
			in := tuple.NewInstance()
			in.Ensure("One", 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.EvalNonInflationary(p, in, u, &core.Options{MaxStages: 1 << 22})
				if err != nil {
					b.Fatal(err)
				}
				if res.Stages != 1<<k {
					b.Fatalf("stages=%d", res.Stages)
				}
			}
		})
	}
}

// BenchmarkT53_PossCert measures exhaustive effect enumeration plus
// poss/cert — experiment T53.
func BenchmarkT53_PossCert(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			u := value.New()
			in := gen.Unary(u, "P", n)
			p := parser.MustParse(queries.Choice, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eff, err := nondet.Effects(p, ast.DialectNDatalogNegNeg, in, u, nil)
				if err != nil {
					b.Fatal(err)
				}
				eff.Poss()
				eff.Cert()
			}
		})
	}
}

// BenchmarkG1_Genericity measures the cost of the isomorphism-
// invariance check — experiment G1.
func BenchmarkG1_Genericity(b *testing.B) {
	u := value.New()
	in := gen.Random(u, "G", 10, 20, 13)
	p := parser.MustParse(queries.TC, u)
	for i := 0; i < b.N; i++ {
		res, err := declarative.Eval(p, in, u, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Rename through an isomorphism and re-evaluate.
		iso := tuple.NewInstance()
		in.Relation("G").Each(func(t tuple.Tuple) bool {
			iso.Insert("G", tuple.Tuple{u.Sym("m" + u.Name(t[0])), u.Sym("m" + u.Name(t[1]))})
			return true
		})
		res2, err := declarative.Eval(p, iso, u, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Out.Relation("T").Len() != res2.Out.Relation("T").Len() {
			b.Fatal("not generic")
		}
	}
}

// BenchmarkP1_NaiveVsSemiNaive — experiment P1.
func BenchmarkP1_NaiveVsSemiNaive(b *testing.B) {
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			u := value.New()
			in := gen.Chain(u, "G", n)
			p := parser.MustParse(queries.TC, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := declarative.EvalNaive(p, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("seminaive/n=%d", n), func(b *testing.B) {
			u := value.New()
			in := gen.Chain(u, "G", n)
			p := parser.MustParse(queries.TC, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := declarative.Eval(p, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP2_IndexAblation — experiment P2.
func BenchmarkP2_IndexAblation(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("indexed/n=%d", n), func(b *testing.B) {
			u := value.New()
			in := gen.Random(u, "G", n, 4*n, int64(n))
			p := parser.MustParse(queries.TC, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := declarative.Eval(p, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			u := value.New()
			in := gen.Random(u, "G", n, 4*n, int64(n))
			p := parser.MustParse(queries.TC, u)
			opt := &declarative.Options{Scan: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := declarative.Eval(p, in, u, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP4_WFSCost — experiment P4.
func BenchmarkP4_WFSCost(b *testing.B) {
	const n = 24
	b.Run("stratified", func(b *testing.B) {
		u := value.New()
		in := gen.Random(u, "G", n, 2*n, 9)
		p := parser.MustParse(queries.CT, u)
		for i := 0; i < b.N; i++ {
			if _, err := declarative.EvalStratified(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("well-founded", func(b *testing.B) {
		u := value.New()
		in := gen.Random(u, "G", n, 2*n, 9)
		p := parser.MustParse(queries.CT, u)
		for i := 0; i < b.N; i++ {
			if _, err := declarative.EvalWellFounded(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT511_Hamiltonian measures the db-np possibility-semantics
// query (exhaustive effect enumeration on C4) — experiment T511.
func BenchmarkT511_Hamiltonian(b *testing.B) {
	u := value.New()
	in := tuple.NewInstance()
	in.Ensure("G", 2)
	nodes := make([]value.Value, 4)
	for i := range nodes {
		nodes[i] = u.Sym(fmt.Sprintf("v%d", i))
		in.Insert("Node", tuple.Tuple{nodes[i]})
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		in.Insert("G", tuple.Tuple{nodes[e[0]], nodes[e[1]]})
	}
	p := parser.MustParse(queries.Hamiltonian, u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eff, err := nondet.Effects(p, ast.DialectNDatalogAll, in, u, &nondet.Options{MaxStates: 1 << 19})
		if err != nil {
			b.Fatal(err)
		}
		if poss, _ := eff.Poss(); poss.Relation("Ans").Len() != 4 {
			b.Fatal("C4 not certified")
		}
	}
}

// BenchmarkA1_Active measures an ECA cascade settling to quiescence —
// experiment A1. The workload mirrors cmd/unchained-bench: n orders
// over n items, half of them in stock.
func BenchmarkA1_Active(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(fmt.Sprintf("orders=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := runActiveBench(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP5_MagicSets measures goal-directed (magic-sets) vs full
// evaluation on single-source reachability — experiment P5.
func BenchmarkP5_MagicSets(b *testing.B) {
	mkIn := func(u *value.Universe, n int) (*tuple.Instance, ast.Atom) {
		in := gen.Chain(u, "G", n)
		x0 := u.Sym("x0")
		in.Insert("G", tuple.Tuple{x0, u.Sym("x1")})
		return in, ast.NewAtom("T", ast.C(x0), ast.V("Y"))
	}
	for _, n := range []int{128, 512} {
		b.Run(fmt.Sprintf("full/n=%d", n), func(b *testing.B) {
			u := value.New()
			in, q := mkIn(u, n)
			p := parser.MustParse(queries.TC, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := magic.FullAnswer(p, q, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("magic/n=%d", n), func(b *testing.B) {
			u := value.New()
			in, q := mkIn(u, n)
			p := parser.MustParse(queries.TC, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := magic.Answer(p, q, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP6_ParallelStages measures rule-level parallelism in the
// inflationary engine (stage semantics make it exact) — experiment P6.
func BenchmarkP6_ParallelStages(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			u := value.New()
			in := gen.Random(u, "G", 24, 48, 7)
			p := parser.MustParse(queries.DelayedCT, u)
			opt := &core.Options{Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EvalInflationary(p, in, u, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInflationary measures the inflationary engine on the TC
// workload with statistics disabled (nil collector — the zero-overhead
// baseline; compare allocs/op against the stats variant with
// -benchmem) and enabled.
func BenchmarkInflationary(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("nostats/n=%d", n), func(b *testing.B) {
			u := value.New()
			in := gen.Chain(u, "G", n)
			p := parser.MustParse(queries.TC, u)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EvalInflationary(p, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("stats/n=%d", n), func(b *testing.B) {
			u := value.New()
			in := gen.Chain(u, "G", n)
			p := parser.MustParse(queries.TC, u)
			col := stats.New()
			opt := &core.Options{Stats: col}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EvalInflationary(p, in, u, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP7_Incremental measures DRed maintenance vs recompute —
// experiment P7.
func BenchmarkP7_Incremental(b *testing.B) {
	const n = 256
	b.Run("insert-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			u := value.New()
			p := parser.MustParse(queries.TC, u)
			v, err := incr.Materialize(p, gen.Chain(u, "G", n), u, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := v.Insert("G", tuple.Tuple{u.Sym(fmt.Sprintf("n%d", n-1)), u.Sym("fresh")}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delete-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			u := value.New()
			p := parser.MustParse(queries.TC, u)
			v, err := incr.Materialize(p, gen.Chain(u, "G", n), u, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := v.Delete("G", tuple.Tuple{u.Sym(fmt.Sprintf("n%d", n-2)), u.Sym(fmt.Sprintf("n%d", n-1))}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		u := value.New()
		p := parser.MustParse(queries.TC, u)
		in := gen.Chain(u, "G", n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := declarative.Eval(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkP9_PlannerAblation — experiment P9: the cardinality planner
// against the seed's literal-order schedule on a selective three-way
// join (the selectivity hides in the last body literal, so textual
// order enumerates the full A ⋈ B cross section before filtering).
func BenchmarkP9_PlannerAblation(b *testing.B) {
	const prog = `
		Q(X,Z) :- A(X,Y), B(Y,Z), Sel(Z).
		R(X) :- A(X,Y), B(Y,Z), Sel(Z), Sel(X).
	`
	mk := func(n int) (*value.Universe, *tuple.Instance, *ast.Program) {
		u := value.New()
		in := gen.Random(u, "A", n, 8*n, int64(n))
		src := gen.Random(u, "B", n, 8*n, int64(n)+1)
		rel := in.Ensure("B", 2)
		src.Relation("B").Each(func(t tuple.Tuple) bool {
			rel.Insert(t)
			return true
		})
		nodes := gen.Nodes(u, n)
		for i := 0; i < 4; i++ {
			in.Insert("Sel", tuple.Tuple{nodes[(i*7)%n]})
		}
		return u, in, parser.MustParse(prog, u)
	}
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("planner/n=%d", n), func(b *testing.B) {
			u, in, p := mk(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := declarative.Eval(p, in, u, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("literal-order/n=%d", n), func(b *testing.B) {
			u, in, p := mk(n)
			opt := &declarative.Options{LiteralOrder: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := declarative.Eval(p, in, u, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP10_ShardedTC measures shard-parallel semi-naive TC (random
// graph, 192 nodes, 6n edges) warm, at 1, 2 and 8 shards — the steady
// state behind experiment P10. One untimed evaluation per shard count
// runs first, so no configuration pays a warm-up the others skip.
func BenchmarkP10_ShardedTC(b *testing.B) {
	const prog = `
		T(X,Y) :- E(X,Y).
		T(X,Z) :- E(X,Y), T(Y,Z).
	`
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			u := value.New()
			in := gen.Random(u, "E", 192, 6*192, 192)
			p := parser.MustParse(prog, u)
			opt := &declarative.Options{Shards: shards}
			if _, err := declarative.Eval(p, in, u, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := declarative.Eval(p, in, u, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
