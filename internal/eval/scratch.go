// The per-call enumeration scratch. Everything Enumerate needs beyond
// the plan — the relations each body predicate reads, the binding,
// one probe / negative-check buffer per step, the trace tallies — is
// kept in a scratch that the rule reuses across calls, so a call does
// not allocate once the scratch has grown to the rule's shape.
//
// A rule holds one spare scratch. Enumerate takes it with an atomic
// swap and stores it back when done; a call that finds no spare (a
// concurrent stage or shard worker enumerating the same rule, or a
// nested call from inside emit) builds its own, so calls never share
// one.
package eval

import (
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// predRels are the relations one distinct body predicate reads,
// resolved by name once per Enumerate call.
type predRels struct {
	in  *tuple.Relation // positive matches: ctx.In
	aux *tuple.Relation // the ctx.Aux overlay, or nil
	neg *tuple.Relation // negative checks: ctx.NegIn, else ctx.In
}

// scratch is the reusable state of one Enumerate call. It holds no
// reference to the call's context or emit callback (those stay on the
// caller's stack, see call), only to the relations it resolved, which
// put drops.
type scratch struct {
	rels  []predRels      // by predicate slot (Rule.preds)
	delta *tuple.Relation // the pinned delta literal's relation in ctx.Delta
	b     Binding
	// pats holds one buffer per step: a match step's probe pattern
	// (the step's Iterator keeps it while it is drained, and deeper
	// steps run meanwhile), a negative check's or ∀-check's tuple.
	pats    [][]value.Value
	trace   planTrace
	counts  []int64
	spanKey []int // plan-span dedup key (see Rule.tracePlan)
}

// take returns the rule's scratch for a call under ctx with every
// body predicate's relations resolved.
func (r *Rule) take(ctx *Ctx) *scratch {
	sc := r.spare.Swap(nil)
	if sc == nil {
		// The binding needs no reset between calls: run restores
		// every slot it binds, and head-only slots are never bound.
		sc = &scratch{rels: make([]predRels, len(r.preds)), b: make(Binding, len(r.Vars))}
	}
	for i, p := range r.preds {
		in := relOf(ctx.In, p)
		pr := predRels{in: in, neg: in}
		if ctx.Aux != nil {
			pr.aux = ctx.Aux.Relation(p)
		}
		if ctx.NegIn != nil {
			pr.neg = ctx.NegIn.Relation(p)
		}
		sc.rels[i] = pr
	}
	if ctx.Delta != nil && ctx.DeltaLit >= 0 && ctx.DeltaLit < len(r.litSlot) && r.litSlot[ctx.DeltaLit] >= 0 {
		sc.delta = ctx.Delta.Relation(r.preds[r.litSlot[ctx.DeltaLit]])
	}
	return sc
}

// put hands the scratch back to the rule, dropping every reference
// into the caller's instances so a spare never keeps them alive.
func (r *Rule) put(sc *scratch) {
	sc.delta = nil
	clear(sc.rels)
	r.spare.Store(sc)
}

// fit sizes the per-step buffers for steps.
func (sc *scratch) fit(steps []step) {
	for len(sc.pats) < len(steps) {
		sc.pats = append(sc.pats, nil)
	}
	for i := range steps {
		n := steps[i].arity
		for _, c := range steps[i].forallPlan {
			n = max(n, len(c.slots))
		}
		if cap(sc.pats[i]) < n {
			sc.pats[i] = make([]value.Value, n)
		}
	}
}

// litSize is the cardinality the positive body literal li of r joins
// against under ctx: the delta relation for the pinned delta literal,
// otherwise In plus any Aux overlay.
func (sc *scratch) litSize(r *Rule, ctx *Ctx, li int) int {
	if ctx.Delta != nil && li == ctx.DeltaLit {
		if sc.delta != nil {
			return sc.delta.Len()
		}
		return 0
	}
	pr := &sc.rels[r.litSlot[li]]
	n := 0
	if pr.in != nil {
		n = pr.in.Len()
	}
	if pr.aux != nil {
		n += pr.aux.Len()
	}
	return n
}
