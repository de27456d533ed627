package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"unchained"
	"unchained/internal/gen"
	"unchained/internal/queries"
	"unchained/internal/tuple"
	"unchained/internal/value"
	"unchained/internal/while"
)

// Input sizes of the paper-engines workload, chosen so that one
// evaluation of each program takes roughly 20-250 ms on a 2-vCPU host.
const (
	tcNodes, tcEdges            = 192, 6 * 192
	ctNodes, ctEdges            = 240, 120
	delayedLayers, delayedWidth = 5, 4
	winGames, winSize, winMoves = 80, 25, 37
	winChain                    = 40
	counterBits                 = 12
	joinNodes, joinSelective    = 2048, 4
)

// selectiveJoin is the planner showcase shape: two large binary
// relations and a tiny selective unary one at the end of each body.
const selectiveJoin = `
	Q(X,Z) :- A(X,Y), B(Y,Z), Sel(Z).
	R(X) :- A(X,Y), B(Y,Z), Sel(Z), Sel(X).
`

// paperProg is one program of the paper-engines round: the parsed
// program, its seeded input, the semantics it runs under, and the
// check comparing an output against a reference computed at set-up
// by an independent engine.
type paperProg struct {
	name  string
	sem   unchained.Semantics
	prog  *unchained.Program
	in    *unchained.Instance
	check func(*unchained.EvalResult) error
}

// relEqual compares one relation of two instances (absent = empty).
func relEqual(a, b *tuple.Instance, pred string) bool {
	ra, rb := a.Relation(pred), b.Relation(pred)
	switch {
	case ra == nil:
		return rb == nil || rb.Empty()
	case rb == nil:
		return ra.Empty()
	}
	return ra.Equal(rb)
}

// sameRels builds a check that the output agrees with ref on preds.
func sameRels(ref *tuple.Instance, preds ...string) func(*unchained.EvalResult) error {
	return func(res *unchained.EvalResult) error {
		for _, p := range preds {
			if !relEqual(res.Out, ref, p) {
				return fmt.Errorf("relation %s differs from the reference", p)
			}
		}
		return nil
	}
}

// joinInstance builds the selective-join input: A and B are random
// graphs over n nodes with 8n edges each, Sel holds sel nodes.
func joinInstance(u *value.Universe, n, sel int, seed int64) *tuple.Instance {
	in := gen.Random(u, "A", n, 8*n, seed)
	rel := in.Ensure("B", 2)
	gen.Random(u, "B", n, 8*n, seed+1).Relation("B").Each(func(t tuple.Tuple) bool {
		rel.Insert(t)
		return true
	})
	nodes := gen.Nodes(u, n)
	for i := 0; i < sel; i++ {
		in.Insert("Sel", tuple.Tuple{nodes[(i*7)%n]})
	}
	return in
}

// layeredInstance builds the delayed-CT input: layers of width nodes,
// each node linked to every node of the next layer but one, the
// missing edges forming a seeded random matching. Every seed yields
// the same reachability counts (so the same work) under different
// labels and edges.
func layeredInstance(u *value.Universe, layers, width int, rng *rand.Rand) *tuple.Instance {
	in := tuple.NewInstance()
	rel := in.Ensure("G", 2)
	names := rng.Perm(layers * width)
	node := func(l, i int) value.Value { return u.Sym(fmt.Sprintf("d%d", names[l*width+i])) }
	for l := 0; l+1 < layers; l++ {
		skip := rng.Perm(width)
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				if j != skip[i] {
					rel.Insert(tuple.Tuple{node(l, i), node(l+1, j)})
				}
			}
		}
	}
	return in
}

// gameInstances builds the win-game input as disjoint games: k random
// games of n positions and m moves each, plus one chain of chain
// positions, which fixes the number of alternating-fixpoint rounds
// across seeds. It returns the whole input and each game on its own.
func gameInstances(u *value.Universe, k, n, m, chain int, rng *rand.Rand) (*tuple.Instance, []*tuple.Instance) {
	all := tuple.NewInstance()
	allRel := all.Ensure("Moves", 2)
	var parts []*tuple.Instance
	for c := 0; c <= k; c++ {
		part := tuple.NewInstance()
		rel := part.Ensure("Moves", 2)
		pos := func(i int) value.Value { return u.Sym(fmt.Sprintf("p%d_%d", c, i)) }
		if c == k {
			for i := 0; i+1 < chain; i++ {
				rel.Insert(tuple.Tuple{pos(i), pos(i + 1)})
			}
		} else {
			for rel.Len() < m {
				rel.Insert(tuple.Tuple{pos(rng.Intn(n)), pos(rng.Intn(n))})
			}
		}
		rel.Each(func(t tuple.Tuple) bool {
			allRel.Insert(t)
			return true
		})
		parts = append(parts, part)
	}
	return all, parts
}

// setupPaper parses the six programs, generates their inputs from
// seed, and computes every reference output.
func setupPaper(seed int64) (*unchained.Session, []*paperProg, error) {
	s := unchained.NewSession()
	u := s.U
	ctx := context.Background()
	var progs []*paperProg
	whileRef := func(p *while.Program, in *tuple.Instance) (*tuple.Instance, error) {
		res, err := while.Run(p, in, u, nil)
		if err != nil {
			return nil, err
		}
		return res.Out, nil
	}

	// §3.1 TC, minimal model, against the while fixpoint program.
	tcIn := gen.Random(u, "G", tcNodes, tcEdges, seed*16+1)
	ref, err := whileRef(queries.TCFixpoint(), tcIn)
	if err != nil {
		return nil, nil, fmt.Errorf("tc reference: %w", err)
	}
	progs = append(progs, &paperProg{name: "tc", sem: unchained.MinimalModel,
		prog: s.MustParse(queries.TC), in: tcIn, check: sameRels(ref, "T")})

	// §3.2 CT, stratified, against the while fixpoint program.
	ctIn := gen.Random(u, "G", ctNodes, ctEdges, seed*16+2)
	ref, err = whileRef(queries.CTFixpoint(), ctIn)
	if err != nil {
		return nil, nil, fmt.Errorf("ct reference: %w", err)
	}
	progs = append(progs, &paperProg{name: "ct_stratified", sem: unchained.Stratified,
		prog: s.MustParse(queries.CT), in: ctIn, check: sameRels(ref, "T", "CT")})

	// Example 4.3, CT by delayed firing under the inflationary
	// semantics, against stratified CT.
	rng := rand.New(rand.NewSource(seed))
	dIn := layeredInstance(u, delayedLayers, delayedWidth, rng)
	sref, err := s.EvalContext(ctx, s.MustParse(queries.CT), dIn, unchained.Stratified)
	if err != nil {
		return nil, nil, fmt.Errorf("ct_delayed reference: %w", err)
	}
	progs = append(progs, &paperProg{name: "ct_delayed", sem: unchained.Inflationary,
		prog: s.MustParse(queries.DelayedCT), in: dIn, check: sameRels(sref.Out, "T", "CT")})

	// Example 3.2, the win game under the well-founded semantics,
	// against the while program's backward induction, run game by
	// game: Win of a disjoint union is the union of each game's Win.
	wIn, games := gameInstances(u, winGames, winSize, winMoves, winChain, rng)
	ref = tuple.NewInstance()
	winRel := ref.Ensure("Win", 1)
	for _, g := range games {
		out, err := whileRef(queries.WinWhile(), g)
		if err != nil {
			return nil, nil, fmt.Errorf("win reference: %w", err)
		}
		if w := out.Relation("Win"); w != nil {
			winRel.UnionInPlace(w)
		}
	}
	progs = append(progs, &paperProg{name: "win_wfs", sem: unchained.WellFounded,
		prog: s.MustParse(queries.Win), in: wIn, check: sameRels(ref, "Win")})

	// Theorem 4.8, the Datalog¬¬ binary counter: it must run 2^k stages.
	cIn := tuple.NewInstance()
	cIn.Ensure("One", 1)
	progs = append(progs, &paperProg{name: "counter", sem: unchained.NonInflationary,
		prog: s.MustParse(queries.Counter(counterBits)), in: cIn,
		check: func(res *unchained.EvalResult) error {
			if res.Stages != 1<<counterBits {
				return fmt.Errorf("counter ran %d stages, want %d", res.Stages, 1<<counterBits)
			}
			return nil
		}})

	// The selective three-way join, against the literal-order schedule.
	jIn := joinInstance(u, joinNodes, joinSelective, seed*16+5)
	jProg := s.MustParse(selectiveJoin)
	lit, err := s.EvalContext(ctx, jProg, jIn, unchained.MinimalModel, unchained.WithLiteralOrder())
	if err != nil {
		return nil, nil, fmt.Errorf("selective_join reference: %w", err)
	}
	progs = append(progs, &paperProg{name: "selective_join", sem: unchained.MinimalModel,
		prog: jProg, in: jIn, check: sameRels(lit.Out, "Q", "R")})

	// Warm-up: one discarded, checked pass of every program.
	for _, p := range progs {
		res, err := s.EvalContext(ctx, p.prog, p.in, p.sem)
		if err != nil {
			return nil, nil, fmt.Errorf("%s warm-up: %w", p.name, err)
		}
		if err := p.check(res); err != nil {
			return nil, nil, fmt.Errorf("%s warm-up: %w", p.name, err)
		}
	}
	return s, progs, nil
}

// engineSpans is the engines' WithTracer sink for one evaluation: it
// sums stage and rule span durations, so rule self time is the rule
// total and stage self time is the stage total minus its rules.
type engineSpans struct{ stageNS, ruleNS int64 }

func (e *engineSpans) Emit(ev unchained.TraceEvent) {
	switch {
	case ev.Ev == "end" && ev.Span == "stage":
		e.stageNS += ev.DurNS
	case ev.Ev == "span" && ev.Span == "rule":
		e.ruleNS += ev.DurNS
	}
}

// gcCPU reads cumulative GC and total CPU seconds of this process.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// paperPhase runs rounds over every program until dur has passed,
// stopping at a round boundary, and returns the eval times and round
// times of the rounds that started in a quiet window. With sp non-nil
// each evaluation is wrapped in a span carrying the WithStats
// counters, the engines' stage/rule span totals and the allocation
// deltas around the call.
func paperPhase(s *unchained.Session, progs []*paperProg, dur time.Duration, sp *spans, r *result) (times map[string][]float64, rounds []float64) {
	ctx := context.Background()
	times = map[string][]float64{}
	var mem0, mem1 runtime.MemStats
	begin := time.Now()
	steal := watchSteal(begin, dur)
	type sample struct {
		at time.Time // start of the round
		ms map[string]float64
	}
	var samples []sample
	for n := 0; time.Since(begin) < dur; n++ {
		req := fmt.Sprintf("round-%d", n)
		round := sp.start("paper.round", req, 0)
		cur := sample{at: time.Now(), ms: map[string]float64{}}
		for _, p := range progs {
			// Start every evaluation from a collected heap, so no
			// evaluation pays for garbage an earlier one left behind.
			runtime.GC()
			var opts []unchained.Opt
			var col *unchained.StatsCollector
			var es *engineSpans
			if sp != nil {
				col = unchained.NewStatsCollector()
				es = &engineSpans{}
				opts = append(opts, unchained.WithStats(col), unchained.WithTracer(es))
				runtime.ReadMemStats(&mem0)
			}
			id := sp.start("eval."+p.name, req, round)
			t := time.Now()
			res, err := s.EvalContext(ctx, p.prog, p.in, p.sem, opts...)
			d := time.Since(t)
			if sp != nil {
				runtime.ReadMemStats(&mem1)
				attrs := map[string]float64{
					"allocs":      float64(mem1.Mallocs - mem0.Mallocs),
					"alloc_bytes": float64(mem1.TotalAlloc - mem0.TotalAlloc),
					"stage_ns":    float64(es.stageNS),
					"rule_ns":     float64(es.ruleNS),
				}
				if res != nil && res.Stats != nil {
					st := res.Stats
					attrs["firings"] = float64(st.Firings)
					attrs["derived"] = float64(st.Derived)
					attrs["rederived"] = float64(st.Rederived)
					attrs["index_probes"] = float64(st.IndexProbes)
					attrs["full_scans"] = float64(st.FullScans)
					attrs["stages"] = float64(st.Stages)
					attrs["cow_snapshots"] = float64(st.CowSnapshots)
					attrs["cow_promotions"] = float64(st.CowPromotions)
					attrs["cow_tuples_copied"] = float64(st.CowTuplesCopied)
				}
				sp.end(id, attrs)
			}
			r.attempted++
			if err == nil {
				err = p.check(res)
			}
			if err != nil {
				r.fail("%s: %v", p.name, err)
				continue
			}
			cur.ms[p.name] = ms(d)
		}
		sp.end(round, nil)
		samples = append(samples, cur)
	}
	steal.finish("paper-engines")
	for _, c := range samples {
		if !steal.quiet(c.at) {
			continue
		}
		total := 0.0
		for name, v := range c.ms {
			times[name] = append(times[name], v)
			total += v
		}
		rounds = append(rounds, total)
	}
	return times, rounds
}

// perProgram reduces per-program samples with f and returns the
// geometric mean across programs.
func perProgram(progs []*paperProg, times map[string][]float64, f func([]float64) float64) float64 {
	var xs []float64
	for _, p := range progs {
		xs = append(xs, f(times[p.name]))
	}
	return geomean(xs)
}

func runPaperEngines(cfg *config, r *result) error {
	var s *unchained.Session
	var progs []*paperProg
	if err := cfg.timeSetup(r, func() (func(), error) {
		var err error
		s, progs, err = setupPaper(cfg.seed)
		return func() {}, err
	}); err != nil {
		return err
	}
	rssReset := resetHWM("self")

	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	times, rounds := paperPhase(s, progs, measure, nil, r)
	r.set("latency_ms_p50", "ms", perProgram(progs, times, median))
	r.set("latency_ms_p90", "ms", perProgram(progs, times, p90))
	r.set("secondary_ms_p50", "ms", median(rounds))
	r.set("secondary_ms_p90", "ms", p90(rounds))
	if !cfg.trace {
		return r.setRSS("self", rssReset)
	}
	for _, p := range progs {
		r.set("program."+p.name+"_ms", "ms", median(times[p.name]))
	}

	sp := newSpans()
	gc0, cpu0 := gcCPU()
	ttimes, _ := paperPhase(s, progs, measure, sp, r)
	gc1, cpu1 := gcCPU()
	r.set("trace.overhead_ratio", "ratio", perProgram(progs, ttimes, median)/perProgram(progs, times, median))
	r.set("tuple.gc_cpu_share", "ratio", (gc1-gc0)/(cpu1-cpu0))

	// Counts are per pass: one evaluation of each of the six programs.
	perPass := func(key string) float64 {
		t := 0.0
		for _, p := range progs {
			t += median(sp.attr("eval."+p.name, key))
		}
		return t
	}
	for _, k := range []string{"firings", "derived", "rederived", "index_probes", "full_scans", "stages"} {
		r.set("eval."+k, "count", perPass(k))
	}
	r.set("tuple.allocs", "count", perPass("allocs"))
	r.set("tuple.alloc_mb", "MB", perPass("alloc_bytes")/(1<<20))
	r.set("tuple.cow_snapshots", "count", perPass("cow_snapshots"))
	r.set("tuple.cow_promotions", "count", perPass("cow_promotions"))
	r.set("tuple.cow_tuples_copied", "count", perPass("cow_tuples_copied"))
	d, rd := perPass("derived"), perPass("rederived")
	r.set("eval.useful_ratio", "ratio", d/(d+rd))
	r.set("eval.rule_self_ms", "ms", perPass("rule_ns")/1e6)
	r.set("eval.stage_self_ms", "ms", (perPass("stage_ns")-perPass("rule_ns"))/1e6)
	return cfg.writeSpans(sp)
}
