package service

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Singleflight coalescing for the explain path (DESIGN.md §15). Under
// duplicate-heavy traffic, N concurrent identical requests that miss the
// cache would all run the same solve; the flight group elects the first as
// leader and parks the rest on its result, so exactly one solve runs per
// (key) at a time. Flight keys are the cache keys, which embed the
// context version — and because every explain holds the state read-lock for
// its solve, the version cannot move under a flight: all members would have
// solved byte-identical problems.
//
// Deadline contract: the leader solves under its own request context only —
// a coalesced waiter never extends (or shortens) the leader's deadline. A
// waiter whose own deadline fires first abandons the flight and completes on
// its own expired context (the anytime solver's cheap degraded path), and a
// waiter handed a degraded result it could have beaten (its budget exceeds
// the leader's) re-solves instead of accepting it — mirroring the cache's
// degraded-entry serve rule.

// errFlightPanic is handed to waiters when the leader's solve panicked; the
// waiters fall back to solving themselves while the leader's own request
// surfaces the panic through the recovery middleware.
var errFlightPanic = errors.New("service: coalesced leader panicked")

// errFlightAbandoned is returned to a waiter whose own context fired before
// the leader finished.
var errFlightAbandoned = errors.New("service: waiter deadline expired before the coalesced solve finished")

// solveOutcome is what one solve produced: a cacheable entry or an error.
// Exactly one of e / err is set (ErrNoKey is encoded as e.noKey, not err —
// it is a deterministic answer, not a failure).
type solveOutcome struct {
	e   *cachedExplain
	err error
}

// flightCall is one in-progress solve and the waiters parked on it.
type flightCall struct {
	done   chan struct{} // closed when out is ready
	out    solveOutcome
	budget time.Duration // the leader's solve budget (0 = unbounded)
}

// flightGroup coalesces concurrent solves by key.
type flightGroup struct {
	mu    sync.Mutex
	calls map[cacheKey]*flightCall // guarded by mu
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[cacheKey]*flightCall)}
}

// do runs solve once per key among concurrent callers. The first caller
// becomes the leader and runs solve on its own goroutine (and its own
// context); the rest wait for the leader's outcome or their own context,
// whichever fires first. coalesced reports whether this caller waited
// instead of solving; leaderBudget is the budget the outcome was solved
// under (callers apply the degraded serve rule against it).
//
// A panicking solve is re-panicked in the leader after the flight is
// cleaned up, so one poisoned request cannot strand its waiters or wedge
// the key: waiters receive errFlightPanic and fall back to solving
// themselves.
func (g *flightGroup) do(ctx context.Context, key cacheKey, budget time.Duration, solve func() solveOutcome) (out solveOutcome, leaderBudget time.Duration, coalesced bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.out, c.budget, true
		case <-ctx.Done():
			return solveOutcome{err: errFlightAbandoned}, c.budget, true
		}
	}
	c := &flightCall{done: make(chan struct{}), budget: budget}
	g.calls[key] = c
	g.mu.Unlock()

	panicked := true
	defer func() {
		if panicked {
			c.out = solveOutcome{err: errFlightPanic}
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.out = solve()
	panicked = false
	return c.out, budget, false
}
