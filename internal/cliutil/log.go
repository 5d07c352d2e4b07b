package cliutil

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Level orders the CLI log severities. Higher levels are chattier; a
// logger emits every line at or below its configured level.
type Level int

const (
	LevelError Level = iota
	LevelInfo
	LevelDebug
)

// ParseLevel maps a -log-level flag value onto a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "error":
		return LevelError, nil
	case "info", "":
		return LevelInfo, nil
	case "debug":
		return LevelDebug, nil
	}
	return LevelInfo, fmt.Errorf("unknown log level %q (want error, info or debug)", s)
}

// Logger is the CLIs' shared stderr logger. Every line keeps the
// long-standing "prog: msg" shape the CI smokes grep for; levels only
// decide whether a line is emitted at all.
type Logger struct {
	prog  string
	level Level

	mu sync.Mutex
	w  io.Writer
}

// NewLogger builds a logger writing "prog: msg" lines to stderr.
func NewLogger(prog string, level Level) *Logger {
	return &Logger{prog: prog, level: level, w: os.Stderr}
}

// Enabled reports whether lines at lv would be emitted.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv <= l.level }

func (l *Logger) emit(lv Level, format string, args ...any) {
	if !l.Enabled(lv) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, l.prog+": "+format+"\n", args...)
}

// Errorf logs at error level (always emitted).
func (l *Logger) Errorf(format string, args ...any) { l.emit(LevelError, format, args...) }

// Infof logs operational lifecycle lines (startup, drain, store counters).
func (l *Logger) Infof(format string, args ...any) { l.emit(LevelInfo, format, args...) }

// Debugf logs per-event chatter (worker joins/deaths, lease reassignment,
// RPC traces).
func (l *Logger) Debugf(format string, args ...any) { l.emit(LevelDebug, format, args...) }

// Logf adapts the logger to the func(format, args...) hook shape used by
// fabric.Config.Logf and client.SetDebugf, pinned at lv. Returns nil when
// lv is disabled so hook owners can skip formatting entirely.
func (l *Logger) Logf(lv Level) func(format string, args ...any) {
	if !l.Enabled(lv) {
		return nil
	}
	return func(format string, args ...any) { l.emit(lv, format, args...) }
}
