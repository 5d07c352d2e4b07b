// Command psspcc compiles a program from the built-in application suite
// under a chosen protection scheme and writes the loadable binary image —
// the CLI face of the compiler plugin, built on the public pssp facade.
//
// Usage:
//
//	psspcc -list
//	psspcc -app nginx -scheme p-ssp -o nginx.bin
//	psspcc -app 400.perlbench -scheme ssp -linkage static -o perl.bin
//	psspcc -libc p-ssp -o libc.bin      # build a shared libc image
//
// Dynamic linkage requires an existing libc image via -libc-in.
package main

import (
	"flag"
	"fmt"

	"repro/internal/cliutil"
	"repro/pssp"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available programs")
		appName  = flag.String("app", "", "program to compile (see -list)")
		scheme   = flag.String("scheme", "p-ssp", "protection scheme")
		linkage  = flag.String("linkage", "static", "static | dynamic")
		out      = flag.String("o", "", "output binary path")
		libcOnly = flag.String("libc", "", "build a libc image with this scheme instead of an app")
		libcIn   = flag.String("libc-in", "", "existing libc image (dynamic linkage)")
	)
	flag.Parse()
	fail := func(err error) { cliutil.Fail("psspcc", err) }

	if *list {
		for _, app := range pssp.Apps() {
			kind := "batch"
			if app.Server {
				kind = "server"
			}
			fmt.Printf("%-18s %s\n", app.Name, kind)
		}
		return
	}
	if *out == "" {
		fail(fmt.Errorf("missing -o output path"))
	}

	if *libcOnly != "" {
		s, err := pssp.ParseScheme(*libcOnly)
		if err != nil {
			fail(err)
		}
		libc, err := pssp.NewMachine().CompileLibc(s)
		if err != nil {
			fail(err)
		}
		if err := libc.WriteFile(*out); err != nil {
			fail(err)
		}
		fmt.Printf("wrote libc image %s (%d bytes, scheme %s)\n", *out, libc.TotalSize(), s)
		return
	}

	s, err := pssp.ParseScheme(*scheme)
	if err != nil {
		fail(err)
	}
	m := pssp.NewMachine(pssp.WithScheme(s))

	var opts []pssp.CompileOption
	switch *linkage {
	case "static":
	case "dynamic":
		if *libcIn == "" {
			fail(fmt.Errorf("dynamic linkage needs -libc-in (build one with -libc)"))
		}
		libc, err := pssp.OpenImage(*libcIn)
		if err != nil {
			fail(err)
		}
		opts = append(opts, pssp.CompileDynamic(libc))
	default:
		fail(fmt.Errorf("unknown linkage %q", *linkage))
	}

	bin, err := m.CompileApp(*appName, opts...)
	if err != nil {
		fail(fmt.Errorf("%w (try -list)", err))
	}
	if err := bin.WriteFile(*out); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s: %s, scheme %s, %s linkage, code %d bytes\n",
		*out, bin.Name(), s, bin.Linkage(), bin.CodeSize())
}
