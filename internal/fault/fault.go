// Package fault provides deterministic fault injection for chaos
// testing. Production code plants named injection points at its
// failure boundaries (journal I/O, cache store/hit, spill file I/O,
// join worker dispatch); tests arm them with a seeded plan that
// injects errors, delays, or panics on a deterministic schedule. When
// the package is disabled — the default — every injection point
// reduces to a single atomic load and returns nil, so shipping the
// points costs nothing.
//
// Determinism: the same seed and the same sequence of Inject calls
// per point produce the same injection decisions, so a chaos run that
// found a bug can be replayed exactly (`make chaos` pins the seed).
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects what an armed injection point does when it fires.
type Mode int

// The supported injection modes.
const (
	// ModeError makes Inject return Spec.Err (ErrInjected by default).
	ModeError Mode = iota
	// ModeDelay makes Inject sleep for Spec.Delay, then return nil.
	ModeDelay
	// ModePanic makes Inject panic with a *Panic value.
	ModePanic
)

// ErrInjected is the default error returned by ModeError points.
var ErrInjected = errors.New("fault: injected error")

// Panic is the value thrown by ModePanic points, so recover sites can
// distinguish injected panics from real ones in assertions.
type Panic struct{ Point string }

func (p *Panic) String() string { return "fault: injected panic at " + p.Point }

// Spec is an injection plan for one named point.
type Spec struct {
	Mode Mode
	// Err is returned by ModeError (ErrInjected when nil).
	Err error
	// Delay is the ModeDelay sleep.
	Delay time.Duration
	// After skips the first After hits of the point before firing.
	After int
	// Times bounds how often the point fires (0 = every hit).
	Times int
	// Prob fires the point with this probability per eligible hit,
	// drawn from the seeded stream (0 or >= 1 means always).
	Prob float64
}

// state tracks one armed point.
type state struct {
	spec  Spec
	hits  int // eligible-hit counter (after the After window)
	fired int
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	points  map[string]*state
	rng     *rand.Rand
)

// Enable arms the package with a deterministic seed. Points planted
// before or after Enable behave identically; only Set-armed points
// fire.
func Enable(seed int64) {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*state{}
	rng = rand.New(rand.NewSource(seed))
	enabled.Store(true)
}

// Disable disarms every point and restores the zero-cost fast path.
func Disable() {
	mu.Lock()
	defer mu.Unlock()
	enabled.Store(false)
	points = nil
	rng = nil
}

// Set arms the named point with a plan. It requires Enable first.
func Set(point string, s Spec) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		panic("fault: Set before Enable")
	}
	points[point] = &state{spec: s}
}

// Clear disarms one point, leaving the package enabled.
func Clear(point string) {
	mu.Lock()
	defer mu.Unlock()
	delete(points, point)
}

// Active reports whether fault injection is enabled.
func Active() bool { return enabled.Load() }

// Fired returns how many times the named point has fired.
func Fired(point string) int {
	mu.Lock()
	defer mu.Unlock()
	if st, ok := points[point]; ok {
		return st.fired
	}
	return 0
}

// Inject is the injection point. Disabled or unarmed points return
// nil immediately. Armed points follow their Spec: return an error,
// sleep, or panic. The caller decides what an error means at its
// boundary (a failed write, a cache miss, a dead worker).
func Inject(point string) error {
	if !enabled.Load() {
		return nil
	}
	mu.Lock()
	st, ok := points[point]
	if !ok {
		mu.Unlock()
		return nil
	}
	spec := st.spec
	st.hits++
	fire := st.hits > spec.After &&
		(spec.Times == 0 || st.fired < spec.Times) &&
		(spec.Prob <= 0 || spec.Prob >= 1 || rng.Float64() < spec.Prob)
	if fire {
		st.fired++
	}
	mu.Unlock()
	if !fire {
		return nil
	}
	switch spec.Mode {
	case ModeDelay:
		time.Sleep(spec.Delay)
		return nil
	case ModePanic:
		panic(&Panic{Point: point})
	default:
		if spec.Err != nil {
			return spec.Err
		}
		return fmt.Errorf("%w (point %s)", ErrInjected, point)
	}
}
