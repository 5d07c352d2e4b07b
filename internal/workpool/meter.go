package workpool

import "sync"

// Meter is the wall-clock progress tap behind every engine's Progress
// callback: a running tally P folded under one lock and handed to fn every
// `every` ticks and at each Flush, so callbacks are serialized. It observes
// wall-clock order; the deterministic reports never read it. A nil Meter is
// the disabled state — each method is one pointer check — so an engine
// with no listener meters for free.
type Meter[P any] struct {
	mu    sync.Mutex
	fn    func(P)
	every int
	since int
	prog  P
}

// NewMeter returns a meter starting at prog that calls fn every `every`
// ticks, or nil when fn is nil.
func NewMeter[P any](fn func(P), every int, prog P) *Meter[P] {
	if fn == nil {
		return nil
	}
	return &Meter[P]{fn: fn, every: every, prog: prog}
}

// Tick folds f into the tally and counts one tick toward the next callback.
func (m *Meter[P]) Tick(f func(*P)) { m.fold(f, 1, false) }

// Add folds f into the tally without ticking; the next callback carries it.
func (m *Meter[P]) Add(f func(*P)) { m.fold(f, 0, false) }

// Flush folds f into the tally and fires the callback.
func (m *Meter[P]) Flush(f func(*P)) { m.fold(f, 0, true) }

func (m *Meter[P]) fold(f func(*P), ticks int, flush bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	f(&m.prog)
	if m.since += ticks; flush || (ticks > 0 && m.since >= m.every) {
		m.since = 0
		m.fn(m.prog)
	}
	m.mu.Unlock()
}
