package main

import (
	"math/rand"
	"sync"
	"time"
)

// Validity limits of an open-loop run. A run whose generator sends
// requests later than lateLimitMS at the 90th percentile, or that
// ends its schedule with more due-but-unsent requests than half a
// second of traffic, measured a backlog rather than the system, and
// is marked invalid instead of being reported as fast.
const lateLimitMS = 100

// openLoop issues n operations at rate per second starting at start,
// from workers goroutines that each own one connection: evenly spaced,
// or as a Poisson process drawn from arrivals when it is non-nil. do
// performs operation i, due at due, on the given worker and returns
// when its response is complete. A rate of 0 runs a closed loop
// instead (each worker starts the next operation when its previous
// one completes), which measures capacity. It returns each
// operation's lateness (send time minus due time, in ms) and, for an
// open loop, the steal samples of the schedule's windows.
func openLoop(n int, rate float64, arrivals *rand.Rand, start time.Time, workers int, r *result, do func(worker, i int, due time.Time)) ([]float64, *stealWatch) {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // sized to the number of sends
	late := make([]float64, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				due := j.due
				if rate == 0 {
					due = time.Now()
				}
				late[j.i] = ms(time.Since(due))
				do(w, j.i, due)
			}
		}(w)
	}
	var steal *stealWatch
	if rate > 0 {
		steal = watchSteal(start, time.Duration(float64(n)/rate*float64(time.Second)))
	}
	backlog := 0
	at := 0.0 // seconds after start
	for i := 0; i < n; i++ {
		due := start
		if rate > 0 {
			due = start.Add(time.Duration(at * float64(time.Second)))
			if arrivals != nil {
				at += arrivals.ExpFloat64() / rate
			} else {
				at += 1 / rate
			}
			time.Sleep(time.Until(due))
		}
		jobs <- job{i, due}
		if rate > 0 && i == n-1 {
			backlog = len(jobs)
		}
	}
	close(jobs)
	wg.Wait()
	steal.finish("open loop")
	if rate > 0 {
		if p := p90(late); p > lateLimitMS {
			r.invalidate("generator fell behind: late p90 %.1f ms > %d ms", p, lateLimitMS)
		}
		if limit := int(rate / 2); backlog > limit && backlog > 2 {
			r.invalidate("backlog grew: %d requests due but unsent at the end of the schedule (limit %d)", backlog, limit)
		}
	}
	return late, steal
}
