// Package cliutil holds the small shared conventions of the cmd/ CLIs, so
// they do not drift: each job kind's scenario flags and run path (job.go),
// one JSON report encoder, the text renderers, and the common fail-fast
// error exit.
package cliutil

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// EmitJSON writes v to w as one indented JSON document — the single
// report-encoding path of every -json CLI flag.
func EmitJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Fail prints "prog: err" to stderr and exits 1.
func Fail(prog string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(1)
}
