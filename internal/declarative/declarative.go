// Package declarative implements the model-theoretic side of the
// paper (Section 3): the minimum-model semantics of positive Datalog
// (with naive and semi-naive bottom-up evaluation), the stratified
// semantics of Datalog¬, and the well-founded semantics computed as
// an alternating fixpoint.
package declarative

import (
	"fmt"

	"unchained/internal/ast"
	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/stats"
	"unchained/internal/stratify"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Options is the unified engine configuration (see engine.Options).
// The declarative engines honor Ctx (deadline/cancellation between
// semi-naive rounds), Scan, MaxStages and Stats; the zero value is
// the default configuration and a nil *Options is valid.
type Options = engine.Options

// Result is the outcome of a 2-valued evaluation.
type Result struct {
	// Out is the final instance over sch(P): the input EDB plus all
	// derived IDB facts.
	Out *tuple.Instance
	// Rounds is the number of evaluation rounds (iterations of the
	// immediate consequence operator for the naive engine; delta
	// rounds for the semi-naive ones).
	Rounds int
	// Stats is the evaluation summary when Options carried a
	// collector; nil otherwise. Stats.Stages equals Rounds.
	Stats *stats.Summary
}

// Eval computes the minimum model of a positive Datalog program on
// the input instance using semi-naive evaluation (Section 3.1). The
// input is not mutated.
func Eval(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(ast.DialectDatalog); err != nil {
		return nil, fmt.Errorf("declarative: %w", err)
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	col := opt.Collector()
	col.Reset("minimal-model", nil)
	out := in.SnapshotWith(col.Cow())
	idb := map[string]bool{}
	for _, n := range p.IDB() {
		idb[n] = true
	}
	adom := eval.ActiveDomain(u, p.Constants(), in)
	rounds, err := semiNaive(rules, out, nil, idb, adom, opt)
	if err != nil {
		return &Result{Out: out, Rounds: rounds, Stats: col.Summary()}, err
	}
	return &Result{Out: out, Rounds: rounds, Stats: col.Summary()}, nil
}

// EvalNaive computes the same minimum model by naive iteration
// (re-deriving everything each round); it exists as the baseline for
// the semi-naive ablation benchmark (P1 in DESIGN.md).
func EvalNaive(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	if err := p.Validate(ast.DialectDatalog); err != nil {
		return nil, fmt.Errorf("declarative: %w", err)
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	col := opt.Collector()
	col.Reset("naive", nil)
	out := in.SnapshotWith(col.Cow())
	adom := eval.ActiveDomain(u, p.Constants(), in)
	rounds := 0
	for {
		if err := opt.Interrupted(rounds); err != nil {
			return &Result{Out: out, Rounds: rounds, Stats: col.Summary()}, err
		}
		rounds++
		inserted := 0
		ctx := &eval.Ctx{
			In: out, Adom: adom, DeltaLit: -1, Scan: opt.ScanEnabled(), Stats: col,
			NoPlan: opt.PlanDisabled(), Plans: opt.PlanCache(), PlanTrace: true,
		}
		col.BeginStage()
		delta := tuple.NewInstance()
		var head []value.Value
		for _, cr := range rules {
			cr.Enumerate(ctx, func(b eval.Binding) bool {
				var derived, reder int
				derived, reder, head = cr.StageNew(b, out, delta, head)
				col.Fired(-1, derived, reder)
				return true
			})
		}
		inserted = out.UnionInPlace(delta)
		col.EndStage(inserted)
		if inserted == 0 {
			return &Result{Out: out, Rounds: rounds, Stats: col.Summary()}, nil
		}
	}
}

// semiNaive runs semi-naive evaluation of rules to fixpoint, mutating
// out. negIn, when non-nil, is the fixed instance negative literals
// test against (used by the well-founded reduct); when nil, negatives
// test against out itself, which is only sound when the rules'
// negated predicates never grow during this fixpoint (stratified
// evaluation guarantees that). recursive is the set of predicates
// that may grow during this fixpoint. opt supplies the scan switch
// and the collector, which records each delta round as one stage
// (callers Reset it; inner fixpoints only record), and the context
// polled between rounds. Returns the number of delta rounds and a
// typed engine error when the context interrupts the fixpoint.
func semiNaive(rules []*eval.Rule, out *tuple.Instance, negIn *tuple.Instance, recursive map[string]bool, adom []value.Value, opt *Options) (int, error) {
	scan := opt.ScanEnabled()
	col := opt.Collector()
	// Firings stage the head facts out does not hold straight into
	// the round's delta (Insert copies the reused head buffer); the
	// delta is merged into out once the round's enumeration is done.
	var head []value.Value
	stage := func(cr *eval.Rule, ctx *eval.Ctx, dst *tuple.Instance) {
		cr.Enumerate(ctx, func(b eval.Binding) bool {
			var derived, reder int
			derived, reder, head = cr.StageNew(b, out, dst, head)
			col.Fired(-1, derived, reder)
			return true
		})
	}

	// Round 0: naive pass over every rule.
	delta := tuple.NewInstance()
	ctx := &eval.Ctx{
		In: out, NegIn: negIn, Adom: adom, DeltaLit: -1, Scan: scan, Stats: col,
		NoPlan: opt.PlanDisabled(), Plans: opt.PlanCache(), PlanTrace: true,
	}
	col.BeginStage()
	for _, cr := range rules {
		stage(cr, ctx, delta)
	}
	out.UnionInPlace(delta)
	rounds := 1
	col.EndStage(delta.Facts())

	// Precompute, per rule, the delta variants: one per positive body
	// literal over a recursive predicate, compiled with that literal
	// scheduled first so the join starts from the delta.
	var variants []eval.DeltaVariant
	for _, cr := range rules {
		for _, li := range cr.PositiveBodyLits() {
			pred := cr.Src.Body[li].Atom.Pred
			if recursive[pred] {
				dv, err := eval.CompileDelta(cr.Src, li)
				if err != nil {
					// Fall back to the original plan; cannot happen
					// for rules that compiled once already.
					dv = cr
				}
				variants = append(variants, eval.DeltaVariant{Rule: dv, Lit: li})
			}
		}
	}

	shards := opt.ShardCount()
	for delta.Facts() > 0 {
		if err := opt.Interrupted(rounds); err != nil {
			return rounds, err
		}
		rounds++
		col.BeginStage()
		next := tuple.NewInstance()
		if shards > 1 {
			// Shard-parallel round: workers join their hash-slice of
			// the delta against COW forks of out/negIn and stream fact
			// batches to this goroutine, which merges them into out and
			// the next delta. Sets make the merge order-independent, so
			// the fixpoint is byte-identical to the serial path. A done
			// context aborts the workers mid-round; the Interrupted
			// poll at the top of the next iteration surfaces the error.
			base := &eval.Ctx{
				In: out, NegIn: negIn, Adom: adom, Scan: scan, Stats: col,
				NoPlan: opt.PlanDisabled(), Plans: opt.PlanCache(),
			}
			merged := 0
			derived := uint64(0)
			eval.RunSharded(variants, base, delta, shards, opt.MergeBufferCap(),
				opt.Context().Done(), func(staged *tuple.Instance, emitted int) {
					merged += emitted
					for _, name := range staged.Names() {
						staged.Relation(name).Each(func(t tuple.Tuple) bool {
							if out.Insert(name, t) {
								next.Insert(name, t)
								derived++
							}
							return true
						})
					}
				})
			// Shard workers only tally firings; the merge's Insert
			// answers new-vs-seen for every staged fact, and every
			// emitted fact that was not staged-and-new re-derived one,
			// so charge derived/rederived here.
			col.FiredBatch(-1, 0, derived, uint64(merged)-derived)
			col.ShardRound(merged)
		} else {
			for _, v := range variants {
				ctx := &eval.Ctx{
					In: out, NegIn: negIn, Adom: adom, Delta: delta, DeltaLit: v.Lit, Scan: scan, Stats: col,
					NoPlan: opt.PlanDisabled(), Plans: opt.PlanCache(), PlanTrace: true,
				}
				stage(v.Rule, ctx, next)
			}
			out.UnionInPlace(next)
		}
		delta = next
		col.EndStage(delta.Facts())
	}
	return rounds, nil
}

// EvalStratified evaluates a stratifiable Datalog¬ program under the
// stratified semantics (Section 3.2): strata are computed from the
// dependency graph and evaluated bottom-up, each to fixpoint with
// semi-naive evaluation; negation within a stratum refers only to
// already-completed relations.
func EvalStratified(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(ast.DialectDatalogNeg); err != nil {
		return nil, fmt.Errorf("declarative: %w", err)
	}
	strat, err := stratify.Stratify(p)
	if err != nil {
		return nil, err
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	// Group compiled rules by stratum.
	byStratum := make([][]*eval.Rule, len(strat.Strata))
	for i, cr := range rules {
		s := strat.RuleStratum(p.Rules[i])
		byStratum[s] = append(byStratum[s], cr)
	}
	col := opt.Collector()
	col.Reset("stratified", nil)
	out := in.SnapshotWith(col.Cow())
	adom := eval.ActiveDomain(u, p.Constants(), in)
	totalRounds := 0
	for s, srules := range byStratum {
		if len(srules) == 0 {
			continue
		}
		recursive := map[string]bool{}
		for _, pred := range strat.Strata[s] {
			recursive[pred] = true
		}
		col.BeginPhase("stratum", s+1)
		rounds, err := semiNaive(srules, out, nil, recursive, adom, opt)
		col.EndPhase("stratum", s+1)
		totalRounds += rounds
		if err != nil {
			return &Result{Out: out, Rounds: totalRounds, Stats: col.Summary()}, err
		}
	}
	return &Result{Out: out, Rounds: totalRounds, Stats: col.Summary()}, nil
}

// TruthValue is a value of the 3-valued logic of the well-founded
// semantics (Section 3.3).
type TruthValue uint8

// The truth values.
const (
	False TruthValue = iota
	Unknown
	True
)

func (tv TruthValue) String() string {
	switch tv {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// WFSResult is the 3-valued well-founded model of a program on an
// input: True holds the certainly-true facts (including the input),
// Possible holds true-or-unknown facts; everything else over the
// active domain is false.
type WFSResult struct {
	True     *tuple.Instance
	Possible *tuple.Instance
	// u renders and orders tuples deterministically.
	u *value.Universe
	// Rounds is the number of Γ applications performed by the
	// alternating fixpoint.
	Rounds int
	// Adom is the active domain used (for enumerating false facts).
	Adom []value.Value
	// Stats is the evaluation summary when Options carried a
	// collector; nil otherwise. Stats.Stages counts the semi-naive
	// rounds across all Γ applications (not the Γ count in Rounds).
	Stats *stats.Summary
}

// Truth reports the truth value of a fact in the well-founded model.
func (w *WFSResult) Truth(pred string, t tuple.Tuple) TruthValue {
	if w.True.Has(pred, t) {
		return True
	}
	if w.Possible.Has(pred, t) {
		return Unknown
	}
	return False
}

// UnknownFacts returns the facts of pred with truth value unknown,
// in the deterministic value order (so output is stable).
func (w *WFSResult) UnknownFacts(pred string) []tuple.Tuple {
	r := w.Possible.Relation(pred)
	if r == nil {
		return nil
	}
	unknown := tuple.NewRelation(r.Arity())
	r.Each(func(t tuple.Tuple) bool {
		if !w.True.Has(pred, t) {
			unknown.Insert(t)
		}
		return true
	})
	return unknown.SortedTuples(w.u)
}

// Total reports whether the model is 2-valued (no unknown facts).
func (w *WFSResult) Total() bool {
	return w.True.Equal(w.Possible)
}

// EvalWellFounded computes the well-founded model of a Datalog¬
// program by the alternating fixpoint of Van Gelder (Section 3.3):
//
//	under₀ = input; overᵢ = Γ(underᵢ₋₁); underᵢ = Γ(overᵢ)
//
// where Γ(S) is the minimum model of the program with every negative
// literal ¬A evaluated as A ∉ S. The under-sequence increases to the
// set of true facts and the over-sequence decreases to the set of
// true-or-unknown facts.
func EvalWellFounded(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*WFSResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(ast.DialectDatalogNeg); err != nil {
		return nil, fmt.Errorf("declarative: %w", err)
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	idb := map[string]bool{}
	for _, n := range p.IDB() {
		idb[n] = true
	}
	col := opt.Collector()
	col.Reset("wellfounded", nil)
	adom := eval.ActiveDomain(u, p.Constants(), in)

	gammaN := 0
	gamma := func(s *tuple.Instance) (*tuple.Instance, error) {
		gammaN++
		col.BeginPhase("gamma", gammaN)
		out := in.SnapshotWith(col.Cow())
		_, err := semiNaive(rules, out, s, idb, adom, opt)
		col.EndPhase("gamma", gammaN)
		return out, err
	}

	under := in.SnapshotWith(col.Cow())
	rounds := 0
	var over *tuple.Instance
	for {
		// The Γ application count is the natural "stage" of the
		// alternating fixpoint; poll the context between applications
		// so a deadline interrupts even slowly-converging models.
		var err error
		if over, err = gamma(under); err == nil {
			err = opt.Interrupted(rounds + 1)
		}
		if err != nil {
			return &WFSResult{True: under, Possible: over, u: u, Rounds: rounds, Adom: adom, Stats: col.Summary()}, err
		}
		newUnder, err := gamma(over)
		if err != nil {
			return &WFSResult{True: under, Possible: over, u: u, Rounds: rounds, Adom: adom, Stats: col.Summary()}, err
		}
		rounds += 2
		if newUnder.Equal(under) {
			break
		}
		under = newUnder
	}
	return &WFSResult{True: under, Possible: over, u: u, Rounds: rounds, Adom: adom, Stats: col.Summary()}, nil
}
