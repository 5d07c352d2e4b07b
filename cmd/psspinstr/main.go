// Command psspinstr is the binary instrumentation tool: it upgrades an
// SSP-compiled binary image to P-SSP in place, preserving code and stack
// layout (paper Section V-C). Built on the public pssp facade.
//
// Usage:
//
//	psspinstr -in app.bin -o app-pssp.bin                       # static app
//	psspinstr -in app.bin -libc libc.bin -o app-pssp.bin \
//	          -libc-o libc-pssp.bin                             # dynamic app
package main

import (
	"flag"
	"fmt"

	"repro/internal/cliutil"
	"repro/pssp"
)

func main() {
	var (
		in     = flag.String("in", "", "input SSP binary")
		out    = flag.String("o", "", "output instrumented binary")
		libcIn = flag.String("libc", "", "libc image (dynamic apps)")
		libcO  = flag.String("libc-o", "", "output instrumented libc (dynamic apps)")
	)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspinstr", err) }
	if *in == "" || *out == "" {
		fail(fmt.Errorf("need -in and -o"))
	}

	app, err := pssp.OpenImage(*in)
	if err != nil {
		fail(err)
	}
	var libc *pssp.Image
	if *libcIn != "" {
		if libc, err = pssp.OpenImage(*libcIn); err != nil {
			fail(err)
		}
	}
	newApp, newLibc, err := pssp.Rewrite(app, libc)
	if err != nil {
		fail(err)
	}
	if err := newApp.WriteFile(*out); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s: code %d -> %d bytes (%+.2f%%)\n",
		*out, app.CodeSize(), newApp.CodeSize(),
		100*(float64(newApp.CodeSize())/float64(app.CodeSize())-1))
	if newLibc != nil {
		if *libcO == "" {
			fail(fmt.Errorf("dynamic app: need -libc-o for the rewritten libc"))
		}
		if err := newLibc.WriteFile(*libcO); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (rewritten libc)\n", *libcO)
	}
}
