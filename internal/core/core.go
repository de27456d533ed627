// Package core implements the paper's primary contribution: the
// forward-chaining (procedural) semantics of the Datalog family
// (Section 4).
//
//   - EvalInflationary — Datalog¬ under inflationary fixpoint
//     semantics (Section 4.1): all rules fire in parallel with all
//     applicable instantiations, stages accumulate, and the fixpoint
//     Γω_P(I) is reached after finitely many stages.
//   - EvalNonInflationary — Datalog¬¬ (Section 4.2): negations in
//     heads retract facts; the paper's default conflict resolution
//     gives priority to positive inferences and three alternative
//     policies are provided; termination is not guaranteed, so the
//     engine detects instance-state cycles (e.g. the flip-flop
//     program) and reports ErrNonTerminating.
//   - EvalInvent — Datalog¬new (Section 4.3): head-only variables
//     are valuated with brand-new values outside the active domain.
//     Invention is Skolemized (the same rule instantiation always
//     invents the same values), which realizes "one instantiation of
//     the remaining variables with distinct values outside the
//     active domain" deterministically up to isomorphism and makes
//     the inflationary fixpoint well defined.
package core

import (
	"errors"
	"fmt"
	"strings"

	"unchained/internal/ast"
	"unchained/internal/engine"
	"unchained/internal/eval"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Sentinel errors.
var (
	// ErrNonTerminating reports that the Datalog¬¬ stage sequence
	// revisited an instance state (the evaluation flip-flops forever,
	// like the paper's T(0)/T(1) example in Section 4.2).
	ErrNonTerminating = errors.New("core: evaluation does not terminate (instance state cycle)")
	// ErrInconsistent reports simultaneous inference of A and ¬A
	// under the Inconsistent conflict policy (option (iii) in
	// Section 4.2).
	ErrInconsistent = errors.New("core: simultaneous inference of a fact and its negation")
	// ErrStageLimit reports that evaluation exceeded Options.MaxStages.
	ErrStageLimit = errors.New("core: stage limit exceeded")
	// ErrInvalidOptions reports an Options field outside its domain
	// (negative bounds or worker counts). It is the shared
	// engine.ErrInvalidOptions, re-exported for compatibility.
	ErrInvalidOptions = engine.ErrInvalidOptions
)

// ConflictPolicy selects how a Datalog¬¬ stage resolves the
// simultaneous inference of A and ¬A; it is the shared
// engine.ConflictPolicy (Section 4.2 lists the four options; the
// paper adopts PreferPositive).
type ConflictPolicy = engine.ConflictPolicy

// The conflict policies, re-exported from the shared engine layer.
const (
	PreferPositive = engine.PreferPositive
	PreferNegative = engine.PreferNegative
	NoOp           = engine.NoOp
	Inconsistent   = engine.Inconsistent
)

// Options is the unified engine configuration (see engine.Options):
// context, stats collector, stage bounds, stage-parallel workers, and
// the Datalog¬¬ conflict policy. The zero value is the default
// configuration; a nil *Options is valid.
type Options = engine.Options

// Result is the outcome of a forward-chaining evaluation.
type Result struct {
	// Out is Γω_P(I): the input plus everything inferred (for
	// Datalog¬¬, the final instance state).
	Out *tuple.Instance
	// Stages is the number of applications of the immediate
	// consequence operator until the fixpoint (the "stage" count of
	// Example 4.1), excluding the final no-change confirmation stage.
	Stages int
	// Stats is the evaluation summary when Options carried a
	// collector; nil otherwise. Stats.Stages always equals Stages.
	Stats *stats.Summary
}

// ruleNames renders the program's rules for the per-rule stats
// breakdown; it returns nil (disabling the breakdown) when the
// collector is disabled, so the rendering cost is only paid when
// statistics are on.
func ruleNames(p *ast.Program, u *value.Universe, col *stats.Collector) []string {
	if !col.Enabled() {
		return nil
	}
	names := make([]string, len(p.Rules))
	for i := range p.Rules {
		names[i] = p.Rules[i].String(u)
	}
	return names
}

// EvalInflationary evaluates a Datalog¬ program under the
// inflationary fixpoint semantics of Section 4.1. The input is not
// mutated. The program may of course be pure Datalog; on positive
// programs the result coincides with the minimum model (Section 3.1).
func EvalInflationary(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(ast.DialectDatalogNeg); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	col := opt.Collector()
	col.Reset("inflationary", ruleNames(p, u, col))
	out := in.SnapshotWith(col.Cow())
	adom := eval.ActiveDomain(u, p.Constants(), in)
	stages := 0
	limit := opt.StageLimit(1 << 30)
	// Index probes build lazily inside the shared relations; with
	// workers > 1 the indexes are forced each stage before fan-out so
	// the workers only read (see stageParallel).
	workers := opt.WorkerCount()
	var head []value.Value // reused head buffer of the serial stage loop
	for {
		if err := opt.Interrupted(stages); err != nil {
			return &Result{Out: out, Stages: stages, Stats: col.Summary()}, err
		}
		ctx := &eval.Ctx{
			In: out, Adom: adom, DeltaLit: -1, Scan: opt.ScanEnabled(), Stats: col,
			NoPlan: opt.PlanDisabled(), Plans: opt.PlanCache(), PlanTrace: workers <= 1,
		}
		col.BeginStage()
		// The stage's new facts are staged into delta, which is
		// merged into out after every rule has read the previous
		// instance.
		delta := tuple.NewInstance()
		if workers > 1 {
			for _, f := range stageParallel(rules, ctx, workers, col) {
				delta.Insert(f.Pred, f.Tuple)
			}
		} else {
			for ri, cr := range rules {
				col.BeginRule(ri)
				cr.Enumerate(ctx, func(b eval.Binding) bool {
					// Filter re-derivations at emission, matching
					// stageParallel: delta holds only facts absent
					// from the previous instance.
					var derived, reder int
					derived, reder, head = cr.StageNew(b, out, delta, head)
					col.Fired(ri, derived, reder)
					return true
				})
				col.EndRule(ri)
			}
		}
		out.UnionInPlace(delta)
		if delta.Facts() == 0 {
			return &Result{Out: out, Stages: stages, Stats: col.Summary()}, nil
		}
		stages++
		col.EndStage(delta.Facts())
		opt.EmitTrace(stages, delta)
		if stages >= limit {
			return nil, fmt.Errorf("%w (after %d stages)", ErrStageLimit, stages)
		}
	}
}

// EvalNonInflationary evaluates a Datalog¬¬ program (Section 4.2).
// Negative head literals retract facts; conflicts between A and ¬A
// in the same stage are resolved per Options.Policy. Input relations
// may occur in heads (the language performs updates), so Out is the
// full final instance. Termination is detected exactly: the stage
// transition is deterministic, so the engine runs Brent's cycle
// detection on instance states and returns ErrNonTerminating when a
// state repeats without being a fixpoint.
func EvalNonInflationary(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(ast.DialectDatalogNegNeg); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	col := opt.Collector()
	col.Reset("noninflationary", ruleNames(p, u, col))
	cur := in.SnapshotWith(col.Cow())
	adom := eval.ActiveDomain(u, p.Constants(), in)
	policy := opt.Conflict()
	limit := opt.StageLimit(1 << 20)

	// Brent's cycle detection: `saved` trails the current state and
	// is refreshed at power-of-two stage numbers.
	saved := cur.Clone()
	power := 1
	lam := 0

	stages := 0
	for {
		if err := opt.Interrupted(stages); err != nil {
			return &Result{Out: cur, Stages: stages, Stats: col.Summary()}, err
		}
		col.BeginStage()
		next, applied, conflict := stageNonInflationary(rules, cur, adom, policy, opt, col)
		if conflict != nil {
			return nil, conflict
		}
		if next.Equal(cur) {
			return &Result{Out: cur, Stages: stages, Stats: col.Summary()}, nil
		}
		stages++
		col.EndStage(applied)
		opt.EmitTrace(stages, next)
		if stages >= limit {
			return nil, fmt.Errorf("%w (after %d stages)", ErrStageLimit, stages)
		}
		cur = next
		lam++
		if cur.Equal(saved) {
			return nil, fmt.Errorf("%w (cycle of length %d)", ErrNonTerminating, lam)
		}
		if lam == power {
			saved = cur.Clone()
			power *= 2
			lam = 0
		}
	}
}

// stageNonInflationary computes one parallel firing of all rules on
// cur and returns the successor instance along with the number of
// changes (retractions + insertions) actually applied to it. It
// returns ErrInconsistent (wrapped) when the policy is Inconsistent
// and a conflict arises.
func stageNonInflationary(rules []*eval.Rule, cur *tuple.Instance, adom []value.Value, policy ConflictPolicy, opt *Options, col *stats.Collector) (*tuple.Instance, int, error) {
	ctx := &eval.Ctx{
		In: cur, Adom: adom, DeltaLit: -1, Scan: opt.ScanEnabled(), Stats: col,
		NoPlan: opt.PlanDisabled(), Plans: opt.PlanCache(), PlanTrace: true,
	}
	pos := tuple.NewInstance()
	neg := tuple.NewInstance()
	var head []value.Value
	for ri, cr := range rules {
		heads := cr.Heads()
		col.BeginRule(ri)
		cr.Enumerate(ctx, func(b eval.Binding) bool {
			derived, reder := 0, 0
			for i := range heads {
				staged := pos
				if heads[i].Neg {
					staged = neg
				}
				head = cr.HeadTuple(i, b, head)
				if staged.Insert(heads[i].Pred, tuple.Tuple(head)) {
					derived++
				} else {
					reder++
				}
			}
			col.Fired(ri, derived, reder)
			return true
		})
		col.EndRule(ri)
	}
	next := cur.Clone()
	applied := 0
	var conflictErr error
	// Deletions first, then insertions, applying the policy to the
	// overlap.
	for _, name := range neg.Names() {
		rel := neg.Relation(name)
		rel.Each(func(t tuple.Tuple) bool {
			inPos := pos.Has(name, t)
			if inPos {
				col.Conflict()
			}
			switch policy {
			case PreferPositive:
				if !inPos && next.Delete(name, t) {
					applied++
					col.Retracted(1)
				}
			case PreferNegative:
				if next.Delete(name, t) {
					applied++
					col.Retracted(1)
				}
			case NoOp:
				if !inPos && next.Delete(name, t) {
					applied++
					col.Retracted(1)
				}
				// Conflicting fact: leave as in cur (no-op), so
				// suppress the later insertion by removing it from
				// pos unless it was already in cur.
				if inPos && !cur.Has(name, t) {
					pos.Delete(name, t)
				}
			case Inconsistent:
				if inPos {
					conflictErr = fmt.Errorf("%w: %s%s", ErrInconsistent, name, "")
					return false
				}
				if next.Delete(name, t) {
					applied++
					col.Retracted(1)
				}
			}
			return true
		})
		if conflictErr != nil {
			return nil, 0, conflictErr
		}
	}
	for _, name := range pos.Names() {
		rel := pos.Relation(name)
		rel.Each(func(t tuple.Tuple) bool {
			if policy == PreferNegative && neg.Has(name, t) {
				return true
			}
			if next.Insert(name, t) {
				applied++
			}
			return true
		})
	}
	return next, applied, nil
}

// EvalInvent evaluates a Datalog¬new program (Section 4.3):
// inflationary semantics where variables occurring only in rule heads
// are valuated with fresh values outside the active domain, supplied
// by the universe. Invention is Skolemized per (rule, body
// instantiation), so re-firing an instantiation re-uses its invented
// values and the fixpoint is well defined. Because the language is
// computationally complete (Theorem 4.6), termination is not
// guaranteed; the default stage limit is 4096.
func EvalInvent(p *ast.Program, in *tuple.Instance, u *value.Universe, opt *Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(ast.DialectDatalogNew); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rules, err := eval.CompileProgram(p)
	if err != nil {
		return nil, err
	}
	col := opt.Collector()
	col.Reset("invent", ruleNames(p, u, col))
	out := in.SnapshotWith(col.Cow())
	progConsts := p.Constants()
	limit := opt.StageLimit(4096)
	stages := 0

	// Skolem memo: (rule, body binding) -> invented values, one per
	// head-only variable.
	memo := make(map[string][]value.Value)
	skolem := func(ri int, b eval.Binding, ho []int) []value.Value {
		var key strings.Builder
		fmt.Fprintf(&key, "%d|", ri)
		for _, v := range b {
			key.WriteByte(byte(v))
			key.WriteByte(byte(v >> 8))
			key.WriteByte(byte(v >> 16))
			key.WriteByte(byte(v >> 24))
		}
		k := key.String()
		if vs, ok := memo[k]; ok {
			return vs
		}
		vs := make([]value.Value, len(ho))
		for i := range vs {
			vs[i] = u.Fresh()
		}
		col.Invented(len(vs))
		memo[k] = vs
		return vs
	}

	// The active domain grows as values are invented; the cache
	// recomputes adom(P, K) only on stages that actually changed the
	// instance (this engine only ever inserts).
	adomc := eval.NewAdomCache(u, progConsts, true)
	for {
		if err := opt.Interrupted(stages); err != nil {
			return &Result{Out: out, Stages: stages, Stats: col.Summary()}, err
		}
		ctx := &eval.Ctx{
			In: out, Adom: adomc.Domain(out), DeltaLit: -1, Scan: opt.ScanEnabled(), Stats: col,
			NoPlan: opt.PlanDisabled(), Plans: opt.PlanCache(), PlanTrace: true,
		}
		col.BeginStage()
		var pend []eval.Fact
		for ri, cr := range rules {
			ho := cr.HeadOnlyVarIDs()
			col.BeginRule(ri)
			cr.Enumerate(ctx, func(b eval.Binding) bool {
				var facts []eval.Fact
				if len(ho) == 0 {
					facts = cr.HeadFacts(b, nil)
				} else {
					vs := skolem(ri, b, ho)
					idx := map[int]value.Value{}
					for i, id := range ho {
						idx[id] = vs[i]
					}
					facts = cr.HeadFacts(b, func(id int) value.Value { return idx[id] })
				}
				// Filter re-derivations at emission (same shape as the
				// inflationary serial loop): Skolemization already
				// re-used the instantiation's invented values, so a
				// re-fired instantiation emits facts that are already
				// present.
				derived, reder := 0, 0
				for _, f := range facts {
					if ctx.In.Has(f.Pred, f.Tuple) {
						reder++
					} else {
						pend = append(pend, f)
						derived++
					}
				}
				col.Fired(ri, derived, reder)
				return true
			})
			col.EndRule(ri)
		}
		delta := 0
		for _, f := range pend {
			if out.Insert(f.Pred, f.Tuple) {
				delta++
			}
		}
		if delta == 0 {
			return &Result{Out: out, Stages: stages, Stats: col.Summary()}, nil
		}
		stages++
		col.EndStage(delta)
		opt.EmitTrace(stages, out)
		if stages >= limit {
			return nil, fmt.Errorf("%w (after %d stages)", ErrStageLimit, stages)
		}
	}
}

// ValidateDomainSafe checks the syntactic safety restriction of
// Section 4.3 for a Datalog¬new program: the named answer relations
// must be guaranteed (by the ast.MayInvent flow analysis) to contain
// only values from the input domain, which makes the defined query
// deterministic. It returns an error naming the first unsafe answer
// relation.
func ValidateDomainSafe(p *ast.Program, answers ...string) error {
	if err := p.Validate(ast.DialectDatalogNew); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	may := p.MayInvent()
	if len(answers) == 0 {
		answers = p.IDB()
	}
	for _, a := range answers {
		if may[a] {
			return fmt.Errorf("core: answer relation %s may contain invented values (Datalog¬new domain-safety)", a)
		}
	}
	return nil
}

// InventedIn reports whether any fact of the named relations in the
// result contains an invented value — the dynamic counterpart of
// ValidateDomainSafe, useful in tests and assertions.
func InventedIn(res *tuple.Instance, u *value.Universe, preds ...string) bool {
	if len(preds) == 0 {
		preds = res.Names()
	}
	for _, name := range preds {
		r := res.Relation(name)
		if r == nil {
			continue
		}
		found := false
		r.Each(func(t tuple.Tuple) bool {
			for _, v := range t {
				if u.IsFresh(v) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// Answer extracts the answer relations of a program from a result:
// the IDB restricted to the given predicates (or all IDB predicates
// when none are given).
func Answer(p *ast.Program, res *tuple.Instance, preds ...string) *tuple.Instance {
	if len(preds) == 0 {
		preds = p.IDB()
	}
	sch, _ := p.Schema()
	return res.Restrict(preds, tuple.Schema(sch))
}
