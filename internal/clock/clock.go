// Package clock is the one source of time for the timers that decide
// behaviour: FAUST's silence stamps and tickers, the blob fleet's
// backoff, deadlines and prober, and the blob channel's redial backoff.
// Production passes Real; tests pass a Fake, which moves only when told.
package clock

import (
	"slices"
	"sync"
	"time"
)

// Clock tells time, sleeps and ticks.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	NewTicker(d time.Duration) *Ticker
}

// Ticker ticks on C like time.Ticker: a late reader finds one, not a backlog.
type Ticker struct {
	C    <-chan time.Time
	stop func()
}

// Stop ends delivery; C is not closed.
func (t *Ticker) Stop() { t.stop() }

// Real is the wall clock of the time package.
var Real Clock = wall{}

type wall struct{}

func (wall) Now() time.Time        { return time.Now() }
func (wall) Sleep(d time.Duration) { time.Sleep(d) }
func (wall) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, stop: t.Stop}
}

// Fake is a Clock that moves only on Advance; its Sleep advances time
// instead of blocking. Safe for concurrent use.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	tickers []*fakeTicker // creation order breaks ties between due ticks
}

type fakeTicker struct {
	c      chan time.Time
	period time.Duration
	next   time.Time
}

// NewFake returns a Fake reading a fixed instant.
func NewFake() *Fake {
	return &Fake{now: time.Date(2009, 6, 29, 0, 0, 0, 0, time.UTC)}
}

// Now returns the fake time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleep advances the clock by d.
func (f *Fake) Sleep(d time.Duration) { f.Advance(d) }

// NewTicker returns a ticker that fires every d of fake time.
func (f *Fake) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTicker{c: make(chan time.Time, 1), period: d, next: f.now.Add(d)}
	f.tickers = append(f.tickers, t)
	return &Ticker{C: t.c, stop: func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.tickers = slices.DeleteFunc(f.tickers, func(u *fakeTicker) bool { return u == t })
	}}
}

// Advance moves the clock forward by d, firing every tick that falls
// due on the way in time order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	end := f.now.Add(d)
	for {
		var due *fakeTicker
		for _, t := range f.tickers {
			if !t.next.After(end) && (due == nil || t.next.Before(due.next)) {
				due = t
			}
		}
		if due == nil {
			break
		}
		f.now = due.next
		select {
		case due.c <- f.now:
		default: // the reader has not taken the last tick: drop this one
		}
		due.next = due.next.Add(due.period)
	}
	f.now = end
}
