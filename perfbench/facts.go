package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"unchained"
	"unchained/internal/incr"
	"unchained/internal/serve"
	"unchained/internal/store"
)

// The facts-subscribe workload: a durable database holding a seeded
// random graph, one unfiltered subscription to a standing program, and
// one writer posting small balanced batches. At factsRate about 3% of
// the batches arrive while the subscriber's view maintenance holds the
// database lock, so the acknowledgement p90 stays on the write path
// (see README.md).
const (
	factsRate    = 25.0
	factsNodes   = 2000
	factsEdges   = 1000
	factsWarmup  = 50
	factsMaxSize = 8
	factsDB      = "bench"
)

// standing is the subscription's program: a recursive layer (TC,
// maintained by delete-rederive) under a non-recursive layer with
// stratified negation (maintained by support counting).
const standing = `
T(X,Y) :- G(X,Y).
T(X,Y) :- G(X,Z), T(Z,Y).
Out(X) :- G(X,Y).
Sink(Y) :- G(X,Y), !Out(Y).
Indirect(X,Y) :- T(X,Y), !G(X,Y).
`

type edge [2]int

func (e edge) fact() string { return fmt.Sprintf("G(f%d,f%d)", e[0], e[1]) }

func factsText(es []edge) string {
	var b strings.Builder
	for _, e := range es {
		b.WriteString(e.fact())
		b.WriteString(". ")
	}
	return b.String()
}

// graphModel is the generator's copy of the database contents, so it
// only ever asserts absent edges and retracts present ones.
type graphModel struct {
	rng     *rand.Rand
	present map[edge]int // edge -> index in list
	list    []edge
	surplus int // asserts minus retracts so far
}

func newGraphModel(seed int64) *graphModel {
	m := &graphModel{rng: rand.New(rand.NewSource(seed)), present: map[edge]int{}}
	for len(m.list) < factsEdges {
		m.add(m.absent())
	}
	return m
}

func (m *graphModel) absent() edge {
	for {
		e := edge{m.rng.Intn(factsNodes), m.rng.Intn(factsNodes)}
		if _, ok := m.present[e]; !ok {
			return e
		}
	}
}

func (m *graphModel) add(e edge) {
	m.present[e] = len(m.list)
	m.list = append(m.list, e)
}

func (m *graphModel) remove(e edge) {
	i := m.present[e]
	last := m.list[len(m.list)-1]
	m.list[i], m.present[last] = last, i
	m.list = m.list[:len(m.list)-1]
	delete(m.present, e)
}

// factsBatch is one generated batch and, once sent, its outcome.
type factsBatch struct {
	assert, retract []edge
	body            []byte

	due, sent, acked time.Time
	seq              uint64
	err              string
}

// next generates a batch of 1..factsMaxSize net-effective facts that
// keeps asserts and retracts balanced, and applies it to the model.
func (m *graphModel) next() *factsBatch {
	k := 1 + m.rng.Intn(factsMaxSize)
	a := k / 2
	if k%2 == 1 && m.surplus <= 0 {
		a++
	}
	m.surplus += a - (k - a)
	b := &factsBatch{}
	for i := 0; i < k-a; i++ {
		e := m.list[m.rng.Intn(len(m.list))]
		m.remove(e)
		b.retract = append(b.retract, e)
	}
	for i := 0; i < a; i++ {
		e := m.absent()
		// An edge retracted in this batch may not come back in it.
		for contains(b.retract, e) {
			e = m.absent()
		}
		m.add(e)
		b.assert = append(b.assert, e)
	}
	b.body, _ = json.Marshal(serve.FactsRequest{DB: factsDB, Assert: factsText(b.assert), Retract: factsText(b.retract)})
	return b
}

func contains(es []edge, e edge) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}

// deltaEvent is one delta the subscriber read.
type deltaEvent struct {
	read           time.Time
	added, removed []string
}

// subscriber reads one SSE subscription: the snapshot, then every
// delta, folding them into the current view contents.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	cond   *sync.Cond
	view   map[string]bool
	deltas map[uint64]deltaEvent
	seq    uint64
	err    error
}

func subscribe(base, program string) (*subscriber, error) {
	body, _ := json.Marshal(serve.SubscribeRequest{DB: factsDB, Program: program})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/subscribe", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{}), view: map[string]bool{}, deltas: map[uint64]deltaEvent{}}
	s.cond = sync.NewCond(&s.mu)
	snap := make(chan error, 1)
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		err := s.read(bufio.NewReaderSize(resp.Body, 1<<16), snap)
		s.mu.Lock()
		s.err = err
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	if err := <-snap; err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// read parses the event stream until it ends; the first event must be
// the snapshot, reported on snap.
func (s *subscriber) read(r *bufio.Reader, snap chan<- error) error {
	var event string
	first := true
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			if first {
				snap <- err
			}
			if errors.Is(err, io.EOF) || errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			now := time.Now()
			var ev serve.SubscribeEvent
			if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
				return err
			}
			s.mu.Lock()
			switch event {
			case "snapshot":
				for _, f := range ev.Facts {
					s.view[f] = true
				}
			case "delta":
				for _, f := range ev.Removed {
					delete(s.view, f)
				}
				for _, f := range ev.Added {
					s.view[f] = true
				}
				s.deltas[ev.Seq] = deltaEvent{read: now, added: ev.Added, removed: ev.Removed}
			default:
				s.mu.Unlock()
				return fmt.Errorf("subscription sent a %q event: %s", event, line)
			}
			s.seq = ev.Seq
			s.cond.Broadcast()
			s.mu.Unlock()
			if first {
				first = false
				snap <- nil
			}
		}
	}
}

// waitSeq waits until the subscriber has read the event of seq, the
// stream ended, or the timeout passed.
func (s *subscriber) waitSeq(seq uint64, timeout time.Duration) {
	stop := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop.Stop()
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.seq < seq && s.err == nil && time.Now().Before(deadline) {
		select {
		case <-s.done:
			return
		default:
		}
		s.cond.Wait()
	}
}

func (s *subscriber) close() {
	s.cancel()
	<-s.done
}

// factsState is one set-up of the facts-subscribe workload.
type factsState struct {
	d       *daemon
	dir     string
	writer  *http.Client
	sub     *subscriber
	model   *graphModel
	bulk    []edge
	batches []*factsBatch // every batch sent so far, warm-up included
	lastSeq uint64
}

func (st *factsState) close() {
	if st.sub != nil {
		st.sub.close()
	}
	st.writer.CloseIdleConnections()
	st.d.stop()
	_ = os.RemoveAll(st.dir)
}

func setupFacts(cfg *config, rep int) (*factsState, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("data-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.serveBin, "-data-dir", dir)
	if err != nil {
		return nil, err
	}
	st := &factsState{d: d, dir: dir, writer: newClient(), model: newGraphModel(cfg.seed)}
	st.bulk = append([]edge(nil), st.model.list...)
	fail := func(err error) (*factsState, error) {
		st.close()
		return nil, err
	}
	body, _ := json.Marshal(serve.FactsRequest{DB: factsDB, Assert: factsText(st.bulk)})
	status, resp, err := postJSON(st.writer, d.base+"/v1/facts", body, nil)
	var fr serve.FactsResponse
	if err == nil {
		err = json.Unmarshal(resp, &fr)
	}
	if err != nil || status != http.StatusOK || fr.Asserted != len(st.bulk) {
		return fail(fmt.Errorf("bulk load: status %d, %d asserted of %d: %v", status, fr.Asserted, len(st.bulk), err))
	}
	st.lastSeq = fr.Seq
	if st.sub, err = subscribe(d.base, standing); err != nil {
		return fail(err)
	}
	warm := newResult()
	st.phase(factsWarmup, true, warm)
	if warm.failed > 0 {
		return fail(fmt.Errorf("warm-up failed: %v", warm.reasons))
	}
	return st, nil
}

// send posts batch b on the writer connection and checks the ack.
func (st *factsState) send(b *factsBatch, due time.Time) {
	b.due, b.sent = due, time.Now()
	status, body, err := postJSON(st.writer, st.d.base+"/v1/facts", b.body, traceparent(requestID(0, len(st.batches))))
	b.acked = time.Now()
	var fr serve.FactsResponse
	if err == nil {
		err = json.Unmarshal(body, &fr)
	}
	switch {
	case err != nil:
		b.err = "transport: " + err.Error()
	case status != http.StatusOK || !fr.OK:
		b.err = fmt.Sprintf("status %d", status)
	case fr.Asserted != len(b.assert) || fr.Retracted != len(b.retract):
		b.err = fmt.Sprintf("net effect %d/%d, want %d/%d", fr.Asserted, fr.Retracted, len(b.assert), len(b.retract))
	case fr.Seq != st.lastSeq+1:
		b.err = fmt.Sprintf("seq %d after %d", fr.Seq, st.lastSeq)
	}
	if err == nil && fr.Seq > st.lastSeq {
		st.lastSeq = fr.Seq
	}
	b.seq = fr.Seq
}

// phase sends the next n batches (open loop with Poisson arrivals at
// factsRate: writers are independent, and evenly spaced batches would
// fall into step with the subscriber's view maintenance; closed loop
// for warm-up and capacity), waits for their deltas and checks them.
// It returns the batches, the generator's lateness samples and the
// steal windows.
func (st *factsState) phase(n int, closed bool, r *result) ([]*factsBatch, []float64, *stealWatch) {
	bs := make([]*factsBatch, n)
	for i := range bs {
		bs[i] = st.model.next()
	}
	rate := factsRate
	if closed {
		rate = 0
	}
	late, steal := openLoop(n, rate, st.model.rng, time.Now().Add(50*time.Millisecond), 1, r, func(_, i int, due time.Time) {
		st.send(bs[i], due)
		st.batches = append(st.batches, bs[i])
	})
	st.sub.waitSeq(st.lastSeq, 10*time.Second)
	st.sub.mu.Lock()
	defer st.sub.mu.Unlock()
	for _, b := range bs {
		r.attempted++
		if b.err != "" {
			r.fail("/v1/facts: %s", b.err)
			continue
		}
		ev, ok := st.sub.deltas[b.seq]
		if !ok {
			r.fail("no delta for seq %d", b.seq)
			continue
		}
		if !covers(ev.added, b.assert) || !covers(ev.removed, b.retract) {
			r.fail("delta of seq %d does not carry its batch", b.seq)
		}
	}
	if st.sub.err != nil {
		r.fail("subscription: %v", st.sub.err)
	}
	return bs, late, steal
}

// covers reports whether the sorted fact list holds every edge.
func covers(facts []string, es []edge) bool {
	for _, e := range es {
		f := e.fact()
		if i := sort.SearchStrings(facts, f); i == len(facts) || facts[i] != f {
			return false
		}
	}
	return true
}

// ackAndLag returns the due-to-ack and due-to-delta latencies in ms
// of the batches due in a quiet window.
func (st *factsState) ackAndLag(bs []*factsBatch, steal *stealWatch) (ack, lag, afterAck []float64) {
	st.sub.mu.Lock()
	defer st.sub.mu.Unlock()
	for _, b := range bs {
		ev, ok := st.sub.deltas[b.seq]
		if b.err != "" || !ok || !steal.quiet(b.due) {
			continue
		}
		ack = append(ack, ms(b.acked.Sub(b.due)))
		lag = append(lag, ms(ev.read.Sub(b.due)))
		afterAck = append(afterAck, ms(ev.read.Sub(b.acked)))
	}
	return ack, lag, afterAck
}

// checkFinal compares the subscriber's view (snapshot plus every
// delta) with a from-scratch evaluation of the standing program over
// the store's final EDB, read back through an EDB-only subscription.
func (st *factsState) checkFinal(r *result) error {
	edb, err := subscribe(st.d.base, "")
	if err != nil {
		return fmt.Errorf("reading the final EDB: %w", err)
	}
	edb.close()
	r.attempted++
	if len(edb.view) != len(st.model.list) {
		r.fail("store holds %d facts, the generator expects %d", len(edb.view), len(st.model.list))
	}
	for _, e := range st.model.list {
		if !edb.view[e.fact()] {
			r.fail("store lacks %s", e.fact())
			break
		}
	}
	s := unchained.NewSession()
	facts := make([]string, 0, len(edb.view))
	for f := range edb.view {
		facts = append(facts, f+".")
	}
	in, err := s.Facts(strings.Join(facts, " "))
	if err != nil {
		return err
	}
	res, err := s.EvalContext(context.Background(), s.MustParse(standing), in, unchained.Stratified)
	if err != nil {
		return err
	}
	want := factStrings(s, res.Out)
	r.attempted++
	st.sub.mu.Lock()
	defer st.sub.mu.Unlock()
	if len(want) != len(st.sub.view) {
		r.fail("maintained view has %d facts, from-scratch evaluation %d", len(st.sub.view), len(want))
		return nil
	}
	for _, f := range want {
		if !st.sub.view[f] {
			r.fail("maintained view lacks %s", f)
			break
		}
	}
	return nil
}

// factStrings renders an instance's facts sorted, in the form the
// subscription streams them.
func factStrings(s *unchained.Session, in *unchained.Instance) []string {
	out := []string{}
	for _, name := range in.Names() {
		for _, t := range in.Relation(name).SortedTuples(s.U) {
			out = append(out, name+t.String(s.U))
		}
	}
	sort.Strings(out)
	return out
}

func runFactsSubscribe(cfg *config, r *result) error {
	var st *factsState
	rep := 0
	if err := cfg.timeSetup(r, func() (func(), error) {
		var err error
		rep++
		st, err = setupFacts(cfg, rep)
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
	n := int(factsRate * secs)
	start := time.Now()
	bs, _, steal := st.phase(n, cfg.capacity, r)
	cfg.reportCapacity(n, 1, start)
	ack, lag, _ := st.ackAndLag(bs, steal)
	r.set("latency_ms_p50", "ms", median(ack))
	r.set("latency_ms_p90", "ms", p90(ack))
	r.set("secondary_ms_p50", "ms", median(lag))
	r.set("secondary_ms_p90", "ms", p90(lag))
	if err := r.setRSS(st.d.pid, rssReset); err != nil {
		return err
	}
	if !cfg.trace {
		return st.checkFinal(r)
	}

	sp := newSpans() // span times count from the start of the traced phase
	first := len(st.batches)
	poll := pollFlight(st.d)
	tbs, late, tsteal := st.phase(n, false, r)
	recs := poll.finish()
	if err := st.checkFinal(r); err != nil {
		return err
	}
	tack, _, afterAck := st.ackAndLag(tbs, tsteal)
	r.set("trace.overhead_ratio", "ratio", median(tack)/median(ack))
	r.set("loadgen.late_ms_p90", "ms", p90(late))
	r.set("serve.delta_after_ack_ms_p50", "ms", median(afterAck))

	var wall, queue []float64
	for i, b := range tbs {
		id := requestID(0, first+i)
		client := sp.add("client.facts", id, 0, b.sent, b.acked.Sub(b.sent), nil)
		if rec := recs[id]; rec != nil {
			fl := sp.add("serve.flight", id, client, time.Unix(0, rec.StartUnixNS), time.Duration(rec.WallNS), nil)
			sp.add("serve.queue", id, fl, time.Unix(0, rec.StartUnixNS), time.Duration(rec.QueueNS), nil)
			wall = append(wall, float64(rec.WallNS)/1e6)
			queue = append(queue, float64(rec.QueueNS)/1e6)
		}
	}
	r.set("serve.facts_ms_p50", "ms", median(wall))
	r.set("serve.queue_ms_p90", "ms", p90(queue))
	if err := st.replay(cfg, first, sp, r); err != nil {
		return err
	}
	return cfg.writeSpans(sp)
}

// replay runs the batch sequence in-process through the layers the
// daemon calls, timing the traced batches (from index first on):
// Session.Facts on each batch, WAL.Apply against a fresh directory
// with default options, and View.Apply on a view materialized over the
// bulk load, with the delta rendered as the subscription renders it.
func (st *factsState) replay(cfg *config, first int, sp *spans, r *result) error {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("replay-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	// As in the daemon, facts are parsed into the store's universe and
	// the view is maintained over the same universe.
	ws := &unchained.Session{U: w.Universe()}
	toStore := func(s *unchained.Session, text string) ([]store.Fact, error) {
		if text == "" {
			return nil, nil
		}
		in, err := s.Facts(text)
		if err != nil {
			return nil, err
		}
		var out []store.Fact
		for _, name := range in.Names() {
			for _, t := range in.Relation(name).SortedTuples(s.U) {
				out = append(out, store.Fact{Pred: name, Tuple: t})
			}
		}
		return out, nil
	}
	bulk, err := toStore(ws, factsText(st.bulk))
	if err != nil {
		return err
	}
	if _, err := w.Apply(store.Batch{Assert: bulk}); err != nil {
		return err
	}
	t := time.Now()
	id := sp.start("incr.materialize", "bulk", 0)
	view, err := ws.MaterializeContext(context.Background(), ws.MustParse(standing), w.Snapshot())
	sp.end(id, nil)
	r.set("incr.materialize_ms", "ms", ms(time.Since(t)))
	if err != nil {
		return err
	}
	var parse, apply, iapply, ifmt, dfacts []float64
	var logBytes, nfacts float64
	compactions := 0
	for i, b := range st.batches {
		traced := i >= first
		req := requestID(0, i)
		var root int64
		if traced {
			root = sp.start("replay.batch", req, 0)
		}
		span := func(name string) int64 {
			if !traced {
				return 0
			}
			return sp.start(name, req, root)
		}
		t := time.Now()
		id := span("parser.batch")
		as, err := toStore(ws, factsText(b.assert))
		if err != nil {
			return err
		}
		rs, err := toStore(ws, factsText(b.retract))
		if err != nil {
			return err
		}
		sp.end(id, nil)
		dParse := time.Since(t)
		before := w.Stats()
		t = time.Now()
		id = span("store.apply")
		if _, err := w.Apply(store.Batch{Assert: as, Retract: rs}); err != nil {
			return err
		}
		sp.end(id, nil)
		dApply := time.Since(t)
		after := w.Stats()

		t = time.Now()
		id = span("incr.apply")
		delta, err := view.Apply(incrFacts(as), incrFacts(rs))
		sp.end(id, nil)
		dIncr := time.Since(t)
		if err != nil {
			return err
		}
		t = time.Now()
		id = span("tuple.delta_format")
		_ = factStrings(ws, delta.Added)
		_ = factStrings(ws, delta.Removed)
		sp.end(id, nil)
		dFmt := time.Since(t)
		sp.end(root, nil)
		if !traced {
			continue
		}
		parse = append(parse, us(dParse))
		apply = append(apply, ms(dApply))
		iapply = append(iapply, ms(dIncr))
		ifmt = append(ifmt, us(dFmt))
		dfacts = append(dfacts, float64(delta.Added.Facts()+delta.Removed.Facts()))
		if after.Compactions > before.Compactions {
			compactions += after.Compactions - before.Compactions
		} else {
			logBytes += float64(after.LogBytes - before.LogBytes)
			nfacts += float64(len(as) + len(rs))
		}
	}
	r.set("parser.batch_us_p50", "us", median(parse))
	r.set("store.apply_ms_p50", "ms", median(apply))
	r.set("store.apply_ms_p90", "ms", p90(apply))
	r.set("store.log_bytes_per_fact", "B/fact", logBytes/nfacts)
	r.set("store.compactions", "count", float64(compactions))
	r.set("incr.apply_ms_p50", "ms", median(iapply))
	r.set("incr.apply_ms_p90", "ms", p90(iapply))
	r.set("incr.delta_facts", "count", mean(dfacts))
	r.set("tuple.delta_format_us_p50", "us", median(ifmt))
	return nil
}

func incrFacts(fs []store.Fact) []incr.Fact {
	out := make([]incr.Fact, len(fs))
	for i, f := range fs {
		out[i] = incr.Fact{Pred: f.Pred, Tuple: f.Tuple}
	}
	return out
}
