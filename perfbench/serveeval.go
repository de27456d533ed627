package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"unchained"
	"unchained/internal/flight"
	"unchained/internal/queries"
	"unchained/internal/serve"
)

// The serve-eval mix. At serveRate the two connections are mostly idle:
// as a closed loop they sustain about 470 requests/s of this mix on a
// 2-vCPU host (see README.md).
const (
	serveRate           = 100.0
	serveConns          = 2
	serveNodes          = 40
	serveEdges          = 60
	hotShare, missShare = 0.70, 0.15 // the rest are /v1/query
	serveWarmup         = 32
)

// hotPrograms are the tenant programs of the hit stream: each is
// served from the parse cache after its first request. Every source
// appears under two tenant comments, so the hot set has eight tenants.
var hotPrograms = []struct {
	name, src string
	sem       unchained.Semantics
}{
	{"tc", queries.TC, unchained.MinimalModel},
	{"ct", queries.CT, unchained.Stratified},
	{"win", "Win(X) :- G(X,Y), !Win(Y).\n", unchained.WellFounded},
	{"sg", "SG(X,X) :- G(X,Y).\nSG(X,Y) :- G(Xp,X), SG(Xp,Yp), G(Yp,Y).\n", unchained.MinimalModel},
}

const hotTenants = 2

func hotSource(i int) string {
	return fmt.Sprintf("%% tenant %d\n%s", i/len(hotPrograms), hotPrograms[i%len(hotPrograms)].src)
}

// missSource is a never-seen stratified program: its name makes it
// unique, and it carries a subsumed rule and inlinable ones for the
// -O2 pipeline.
func missSource(seed int64, i int, node string) string {
	return fmt.Sprintf(`%% request %d-%d
Edge(X,Y) :- G(X,Y).
Reach(X,Y) :- Edge(X,Y).
Reach(X,Y) :- Edge(X,Z), Reach(Z,Y).
Reach(X,Y) :- Edge(X,Y), G(X,Y).
Tag(X) :- G(X,%s).
Ghost(X) :- Reach(X,Y), Missing(Y).
Far%d(X,Y) :- Reach(X,Y), !G(X,Y), Tag(X).
`, seed, i, node, i)
}

const (
	kindHot = iota
	kindMiss
	kindQuery
)

// serveReq is one generated request and, once sent, its outcome.
type serveReq struct {
	id     string
	kind   int
	tenant int // hot and query requests
	path   string
	src    string
	sem    unchained.Semantics
	facts  string
	goal   string
	body   []byte

	due, sent, done time.Time
	digest          uint64 // of the output (eval) or the tuple list (query)
	err             string
}

func digest(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// genServeReqs generates requests first..first+n-1 of the mix.
func genServeReqs(seed int64, first, n int) ([]*serveReq, error) {
	var out []*serveReq
	for i := first; i < first+n; i++ {
		q, err := genServeReq(seed, i, -1)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// genServeReq generates request i of the mix; a tenant >= 0 makes it
// a hit-stream request of that tenant.
func genServeReq(seed int64, i, tenant int) (*serveReq, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	var facts strings.Builder
	seen := map[[2]int]bool{}
	var srcs []int
	for len(seen) < serveEdges {
		e := [2]int{rng.Intn(serveNodes), rng.Intn(serveNodes)}
		if !seen[e] {
			seen[e] = true
			srcs = append(srcs, e[0])
			fmt.Fprintf(&facts, "G(v%d,v%d). ", e[0], e[1])
		}
	}
	q := &serveReq{id: requestID(seed, i), facts: facts.String()}
	x := rng.Float64()
	if tenant >= 0 {
		x = 0
	}
	var body any
	switch {
	case x < hotShare:
		if tenant < 0 {
			tenant = rng.Intn(len(hotPrograms) * hotTenants)
		}
		q.kind, q.tenant, q.path = kindHot, tenant, "/v1/eval"
		q.src, q.sem = hotSource(tenant), hotPrograms[tenant%len(hotPrograms)].sem
		body = serve.EvalRequest{Envelope: serve.Envelope{Program: q.src, Facts: q.facts}, Semantics: q.sem.String()}
	case x < hotShare+missShare:
		q.kind, q.path = kindMiss, "/v1/eval"
		q.src, q.sem = missSource(seed, i, fmt.Sprintf("v%d", rng.Intn(serveNodes))), unchained.Stratified
		body = serve.EvalRequest{Envelope: serve.Envelope{Program: q.src, Facts: q.facts, Optimize: 2}, Semantics: q.sem.String()}
	default:
		// Magic-sets query on the TC tenant, bound on a node with
		// outgoing edges.
		q.kind, q.path = kindQuery, "/v1/query"
		q.tenant = len(hotPrograms) * rng.Intn(hotTenants)
		q.src, q.sem = hotSource(q.tenant), unchained.MinimalModel
		q.goal = fmt.Sprintf("T(v%d,Y)", srcs[rng.Intn(len(srcs))])
		body = serve.QueryRequest{Envelope: serve.Envelope{Program: q.src, Facts: q.facts}, Query: q.goal}
	}
	b, err := json.Marshal(body)
	q.body = b
	return q, err
}

// send performs q on c and records its outcome; due is when it was
// scheduled.
func (q *serveReq) send(c *http.Client, base string, due time.Time) {
	q.due, q.sent = due, time.Now()
	status, body, err := postJSON(c, base+q.path, q.body, traceparent(q.id))
	q.done = time.Now()
	switch {
	case err != nil:
		q.err = "transport: " + err.Error()
		return
	case status != http.StatusOK:
		var resp struct{ Error *serve.ErrorInfo }
		_ = json.Unmarshal(body, &resp)
		q.err = fmt.Sprintf("status %d", status)
		if resp.Error != nil {
			q.err += " " + resp.Error.Code
		}
		return
	}
	if q.kind == kindQuery {
		var resp serve.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil || !resp.OK {
			q.err = fmt.Sprintf("bad query response: %v", err)
			return
		}
		q.digest = digest(resp.Tuples...)
		return
	}
	var resp serve.EvalResponse
	if err := json.Unmarshal(body, &resp); err != nil || !resp.OK {
		q.err = fmt.Sprintf("bad eval response: %v", err)
		return
	}
	q.digest = digest(resp.Output)
}

// replayServe evaluates every request in-process through the facade,
// in the daemon handler's order, and checks each response against it.
// The reference never takes the path under test: miss programs are
// evaluated as written (not optimized) and queries by a full
// minimal-model evaluation filtered to the goal (not magic sets).
// With sp non-nil every public call is timed as a span.
func replayServe(reqs []*serveReq, sp *spans, r *result) error {
	ctx := context.Background()
	tenants := map[int]*unchained.Session{}
	parsed := map[int]*unchained.Program{}
	for _, q := range reqs {
		r.attempted++
		if q.err != "" {
			r.fail("%s: %s", q.path, q.err)
			continue
		}
		root := sp.start("replay."+[]string{"hot", "miss", "query"}[q.kind], q.id, 0)
		var base *unchained.Session
		var prog *unchained.Program
		if q.kind == kindMiss {
			base = unchained.NewSession()
			id := sp.start("parser.program", q.id, root)
			p, err := base.Parse(q.src)
			sp.end(id, nil)
			if err != nil {
				return fmt.Errorf("miss program: %w", err)
			}
			id = sp.start("opt.optimize", q.id, root)
			ores := base.OptimizeFor(p, q.sem, &unchained.OptOptions{Level: unchained.Opt2})
			sp.end(id, map[string]float64{"rewrites": float64(len(ores.Rewrites))})
			prog = p
		} else {
			if tenants[q.tenant] == nil {
				tenants[q.tenant] = unchained.NewSession()
				p, err := tenants[q.tenant].Parse(q.src)
				if err != nil {
					return fmt.Errorf("tenant program: %w", err)
				}
				parsed[q.tenant] = p
			}
			base, prog = tenants[q.tenant], parsed[q.tenant]
		}
		sess := base.Fork()
		id := sp.start("parser.facts", q.id, root)
		in, err := sess.Facts(q.facts)
		sp.end(id, nil)
		if err != nil {
			return fmt.Errorf("facts: %w", err)
		}
		id = sp.start("eval.reference", q.id, root)
		res, err := sess.EvalContext(ctx, prog, in, q.sem)
		sp.end(id, nil)
		if err != nil {
			return fmt.Errorf("reference evaluation: %w", err)
		}
		var want uint64
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if q.kind == kindQuery {
			goal, err := sess.ParseAtom(q.goal)
			if err != nil {
				return fmt.Errorf("goal: %w", err)
			}
			var tuples []string
			for _, t := range res.Out.Relation("T").SortedTuples(sess.U) {
				if t[0] == goal.Args[0].Const {
					tuples = append(tuples, "T"+t.String(sess.U))
				}
			}
			want = digest(tuples...)
			id = sp.start("serve.encode", q.id, root)
			err = enc.Encode(serve.QueryResponse{OK: true, Tuples: tuples, Count: len(tuples)})
			sp.end(id, nil)
		} else {
			id = sp.start("tuple.format", q.id, root)
			out := sess.Format(res.Out)
			sp.end(id, nil)
			want = digest(out)
			id = sp.start("serve.encode", q.id, root)
			err = enc.Encode(serve.EvalResponse{OK: true, Semantics: q.sem.String(), Output: out, Stages: res.Stages})
			sp.end(id, nil)
		}
		sp.end(root, nil)
		if err != nil {
			return err
		}
		if q.digest != want {
			r.fail("%s: response differs from the in-process evaluation", q.path)
		}
	}
	return nil
}

// serveState is one set-up of the serve-eval workload.
type serveState struct {
	d     *daemon
	conns []*http.Client
}

func (st *serveState) close() {
	for _, c := range st.conns {
		c.CloseIdleConnections()
	}
	st.d.stop()
}

func setupServe(cfg *config) (*serveState, error) {
	d, err := startDaemon(cfg.serveBin)
	if err != nil {
		return nil, err
	}
	st := &serveState{d: d}
	for i := 0; i < serveConns; i++ {
		st.conns = append(st.conns, newClient())
	}
	// Warm-up: every hot tenant, then a few requests of the mix,
	// checked and discarded, so the measured phase starts warm.
	var warm []*serveReq
	for i := 0; i < serveWarmup; i++ {
		tenant := -1
		if i < len(hotPrograms)*hotTenants {
			tenant = i
		}
		q, err := genServeReq(cfg.seed, 1_000_000+i, tenant)
		if err != nil {
			st.close()
			return nil, err
		}
		q.send(st.conns[0], d.base, time.Now())
		warm = append(warm, q)
	}
	wr := newResult()
	if err := replayServe(warm, nil, wr); err != nil || wr.failed > 0 {
		st.close()
		return nil, fmt.Errorf("warm-up failed: %v %v", err, wr.reasons)
	}
	return st, nil
}

// servePhase sends reqs open loop at serveRate (closed loop when
// capacity is set) and returns the lateness samples and the steal
// windows.
func servePhase(st *serveState, reqs []*serveReq, capacity bool, r *result) ([]float64, *stealWatch) {
	rate := serveRate
	if capacity {
		rate = 0
	}
	return openLoop(len(reqs), rate, nil, time.Now().Add(50*time.Millisecond), serveConns, r, func(w, i int, due time.Time) {
		reqs[i].send(st.conns[w], st.d.base, due)
	})
}

// latencies returns due-to-done latencies in ms of successful
// requests due in a quiet window, optionally only of one kind.
func latencies(reqs []*serveReq, kind int, steal *stealWatch) []float64 {
	var xs []float64
	for _, q := range reqs {
		if q.err == "" && (kind < 0 || q.kind == kind) && steal.quiet(q.due) {
			xs = append(xs, ms(q.done.Sub(q.due)))
		}
	}
	return xs
}

func runServeEval(cfg *config, r *result) error {
	var st *serveState
	if err := cfg.timeSetup(r, func() (func(), error) {
		var err error
		st, err = setupServe(cfg)
		if err != nil {
			return nil, err
		}
		return st.close, nil
	}); err != nil {
		return err
	}
	defer st.close()
	rssReset := resetHWM(st.d.pid)

	secs := cfg.seconds.Seconds()
	if cfg.trace {
		secs /= 2
	}
	n := int(serveRate * secs)
	reqs, err := genServeReqs(cfg.seed, 0, n)
	if err != nil {
		return err
	}
	start := time.Now()
	_, steal := servePhase(st, reqs, cfg.capacity, r)
	cfg.reportCapacity(n, serveConns, start)
	all := latencies(reqs, -1, steal)
	r.set("latency_ms_p50", "ms", median(all))
	r.set("latency_ms_p90", "ms", p90(all))
	miss := latencies(reqs, kindMiss, steal)
	r.set("secondary_ms_p50", "ms", median(miss))
	r.set("secondary_ms_p90", "ms", p90(miss))
	if err := r.setRSS(st.d.pid, rssReset); err != nil {
		return err
	}
	if !cfg.trace {
		return replayServe(reqs, nil, r)
	}

	// Traced phase: the next n requests of the same mix, with the
	// daemon's flight records and counters read around it.
	treqs, err := genServeReqs(cfg.seed, n, n)
	if err != nil {
		return err
	}
	obs := newClient()
	defer obs.CloseIdleConnections()
	st0, err := st.d.statsz(obs)
	if err != nil {
		return err
	}
	sp := newSpans() // span times count from the start of the traced phase
	poll := pollFlight(st.d)
	late, tsteal := servePhase(st, treqs, false, r)
	recs := poll.finish()
	st1, err := st.d.statsz(obs)
	if err != nil {
		return err
	}
	serveFlightMetrics(treqs, recs, sp, r)
	r.set("trace.overhead_ratio", "ratio", median(latencies(treqs, -1, tsteal))/median(all))
	r.set("loadgen.late_ms_p90", "ms", p90(late))
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	r.set("serve.parse_cache_hit_ratio", "ratio", ratio(st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses))
	r.set("serve.plan_cache_hit_ratio", "ratio", ratio(st1.PlanCacheHits-st0.PlanCacheHits, st1.PlanCacheMisses-st0.PlanCacheMisses))
	r.set("serve.shed", "count", float64(st1.Shed-st0.Shed))
	r.set("serve.queue_timeouts", "count", float64(st1.QueueTimeouts-st0.QueueTimeouts))

	if err := replayServe(reqs, nil, r); err != nil {
		return err
	}
	if err := replayServe(treqs, sp, r); err != nil {
		return err
	}
	self := sp.selfMS()
	usP50 := func(name string) float64 { return median(self[name]) * 1e3 }
	r.set("parser.program_us_p50", "us", usP50("parser.program"))
	r.set("opt.optimize_us_p50", "us", usP50("opt.optimize"))
	r.set("opt.rewrites", "count", mean(sp.attr("opt.optimize", "rewrites")))
	r.set("parser.facts_us_p50", "us", usP50("parser.facts"))
	r.set("tuple.format_us_p50", "us", usP50("tuple.format"))
	r.set("serve.encode_us_p50", "us", usP50("serve.encode"))
	return cfg.writeSpans(sp)
}

// serveFlightMetrics joins each traced request with its flight record
// and records client, flight, queue and eval spans: the flight span's
// self time is the handler's own work and the client span's self time
// is what happens outside the flight record (transport, and the
// output formatting and encoding the record's wall time omits).
func serveFlightMetrics(reqs []*serveReq, recs map[string]*flight.Record, sp *spans, r *result) {
	var queue, handler, evalMS, query, outside []float64
	missing := 0
	for _, q := range reqs {
		if q.err != "" {
			continue
		}
		rec := recs[q.id]
		if rec == nil {
			missing++
			continue
		}
		wall := time.Duration(rec.WallNS)
		client := sp.add("client.request", q.id, 0, q.sent, q.done.Sub(q.sent), nil)
		start := time.Unix(0, rec.StartUnixNS)
		fl := sp.add("serve.flight", q.id, client, start, wall, nil)
		sp.add("serve.queue", q.id, fl, start, time.Duration(rec.QueueNS), nil)
		sp.add("serve.eval", q.id, fl, start.Add(wall-time.Duration(rec.EvalNS)), time.Duration(rec.EvalNS), nil)
		queue = append(queue, float64(rec.QueueNS)/1e6)
		handler = append(handler, float64(rec.WallNS-rec.QueueNS-rec.EvalNS)/1e6)
		if q.kind == kindQuery {
			query = append(query, float64(rec.EvalNS)/1e6)
		} else {
			evalMS = append(evalMS, float64(rec.EvalNS)/1e6)
		}
		outside = append(outside, ms(q.done.Sub(q.sent)-wall))
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d traced requests had no flight record\n", missing, len(reqs))
	}
	r.set("serve.queue_ms_p90", "ms", p90(queue))
	r.set("serve.handler_ms_p50", "ms", median(handler))
	r.set("serve.eval_ms_p50", "ms", median(evalMS))
	r.set("magic.query_ms_p50", "ms", median(query))
	r.set("serve.outside_flight_ms_p50", "ms", median(outside))
}
