package blobfleet

import (
	"fmt"
	"sync"

	"faust/internal/obs"
)

// Aliveness defaults (the wal-g shape: an exponential moving average fed
// by every operation result, with hysteresis between the dead and alive
// thresholds so a backend doesn't flap in and out of rotation on every
// lost packet).
const (
	DefaultAlpha      = 0.3  // weight of the newest observation
	DefaultDeadBelow  = 0.25 // leave the rotation below this score
	DefaultAliveAbove = 0.75 // rejoin the rotation above this score
)

// backendState is one fleet member plus its aliveness bookkeeping.
//
// The score is an EMA over operation outcomes (1 success, 0 failure):
//
//	score <- DefaultAlpha*outcome + (1-DefaultAlpha)*score
//
// starting at 1 (innocent until proven flaky). The dead flag follows the
// score with hysteresis: it trips below DefaultDeadBelow and clears above
// DefaultAliveAbove, so a backend needs a streak of failures to leave the
// rotation and a streak of successes (or one explicit probe answer,
// which resurrects it outright) to rejoin. State transitions land in the
// protocol event log as degraded-mode entries.
type backendState struct {
	Backend
	idx int

	// Per-backend span names, concatenated once at fleet construction so
	// the trace record path touches only static strings.
	putSpan, getSpan string

	mu    sync.Mutex
	score float64
	dead  bool

	upG *obs.Gauge // 1 alive, 0 dead
}

// BackendStatus is one backend's externally visible aliveness.
type BackendStatus struct {
	Name  string
	Alive bool
	Score float64
}

// observe feeds one operation outcome into the EMA and returns the state
// transition it caused: +1 resurrected, -1 died, 0 none.
func (b *backendState) observe(ok bool) int {
	x := 0.0
	if ok {
		x = 1.0
	}
	b.mu.Lock()
	b.score = DefaultAlpha*x + (1-DefaultAlpha)*b.score
	transition := 0
	if !b.dead && b.score < DefaultDeadBelow {
		b.dead = true
		transition = -1
	} else if b.dead && b.score > DefaultAliveAbove {
		b.dead = false
		transition = +1
	}
	dead := b.dead
	b.mu.Unlock()

	if dead {
		b.upG.Set(0)
	} else {
		b.upG.Set(1)
	}
	return transition
}

// resurrect puts a dead backend straight back into rotation (one
// successful probe is proof enough that it answers again; live traffic
// keeps its score honest from there). Returns true if it was dead.
func (b *backendState) resurrect() bool {
	b.mu.Lock()
	was := b.dead
	b.dead = false
	if b.score < DefaultAliveAbove {
		b.score = 1.0
	}
	b.mu.Unlock()
	b.upG.Set(1)
	return was
}

// isDead reports rotation membership.
func (b *backendState) isDead() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dead
}

// status snapshots the externally visible state.
func (b *backendState) status() BackendStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStatus{Name: b.Name, Alive: !b.dead, Score: b.score}
}

func (b *backendState) String() string {
	st := b.status()
	return fmt.Sprintf("%s(score=%.2f,alive=%v)", st.Name, st.Score, st.Alive)
}
