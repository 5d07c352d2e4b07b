package cc

import (
	"bytes"
	"testing"

	"repro/internal/abi"
	"repro/internal/core"
)

// TestSourceBytesStable asserts the canonical encoding is a pure function of
// the IR: re-deriving the same program yields the same bytes, and an
// independently constructed equal program encodes identically.
func TestSourceBytesStable(t *testing.T) {
	a := SourceBytes(trivialProg())
	b := SourceBytes(trivialProg())
	if !bytes.Equal(a, b) {
		t.Fatal("SourceBytes is not deterministic over equal programs")
	}
	if len(a) == 0 {
		t.Fatal("SourceBytes returned no bytes")
	}
}

// TestDerivationKeySensitivity flips one input at a time and asserts every
// flip changes the key — the property that makes serving a cached artifact
// safe: stale blobs can only be addressed by inputs that no longer exist.
func TestDerivationKeySensitivity(t *testing.T) {
	base := func() (*Program, Options) {
		return trivialProg(), Options{Scheme: core.SchemeSSP, Linkage: abi.LinkStatic}
	}
	prog, opts := base()
	baseKey := Derivation(prog, opts).Key()

	mutations := map[string]func(*Program, *Options){
		"program name":  func(p *Program, _ *Options) { p.Name = "trivial2" },
		"local size":    func(p *Program, _ *Options) { p.Funcs[0].Locals[0].Size = 16 },
		"local buffer":  func(p *Program, _ *Options) { p.Funcs[0].Locals[0].IsBuffer = true },
		"critical mark": func(p *Program, _ *Options) { p.Funcs[0].Locals[0].Critical = true },
		"stmt constant": func(p *Program, _ *Options) { p.Funcs[0].Body[0] = SetConst{Dst: "x", Value: 6} },
		"stmt dropped":  func(p *Program, _ *Options) { p.Funcs[0].Body = p.Funcs[0].Body[1:] },
		"scheme":        func(_ *Program, o *Options) { o.Scheme = core.SchemePSSP },
		"check-on-write": func(_ *Program, o *Options) {
			o.CheckOnWrite = true
		},
	}
	for name, mutate := range mutations {
		p, o := base()
		mutate(p, &o)
		if Derivation(p, o).Key() == baseKey {
			t.Errorf("mutating %s did not change the derivation key", name)
		}
	}
}

// TestCachedCompileNilStore asserts the nil-store degradation compiles
// without touching any store machinery.
func TestCachedCompileNilStore(t *testing.T) {
	bin, hit, err := CachedCompile(trivialProg(), Options{Scheme: core.SchemeSSP, Linkage: abi.LinkStatic}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("nil store reported a hit")
	}
	if bin == nil {
		t.Fatal("nil store returned nil binary")
	}
}
