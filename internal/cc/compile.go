package cc

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/binfmt"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Options configures a compilation.
type Options struct {
	// Scheme selects the protection pass.
	Scheme core.Scheme
	// Linkage is abi.LinkDynamic (default) or abi.LinkStatic.
	Linkage string
	// Libc is the shared-library image externs are resolved against for
	// dynamic linkage (build one with BuildLibc).
	Libc *binfmt.Binary
	// CheckOnWrite makes write-checking passes (P-SSP-LV) inspect their
	// canaries right after each buffer-writing statement, in addition to the
	// epilogue — the paper's §V-E2 early-detection option.
	CheckOnWrite bool
}

// Compile lowers the program under the selected protection pass and links it
// into a loadable binary.
func Compile(prog *Program, opts Options) (*binfmt.Binary, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	pass, err := PassFor(opts.Scheme)
	if err != nil {
		return nil, err
	}
	linkage := opts.Linkage
	if linkage == "" {
		linkage = abi.LinkDynamic
	}

	globals := assignGlobals(prog)
	frags := make([]*Fragment, 0, len(prog.Funcs)+4)
	for _, f := range prog.Funcs {
		frag, err := compileFunc(f, pass, globals, opts.CheckOnWrite)
		if err != nil {
			return nil, err
		}
		frags = append(frags, frag)
	}
	frags = append(frags, startFragment(), threadExitFragment())

	externs := map[string]uint64{}
	switch linkage {
	case abi.LinkDynamic:
		if opts.Libc == nil {
			return nil, fmt.Errorf("cc: dynamic linkage needs a libc image")
		}
		for _, sym := range opts.Libc.Funcs() {
			externs[sym.Name] = sym.Addr
		}
	case abi.LinkStatic:
		libcFrags, err := libcFragments(opts.Scheme)
		if err != nil {
			return nil, err
		}
		frags = append(frags, libcFrags...)
	default:
		return nil, fmt.Errorf("cc: unknown linkage %q", linkage)
	}

	code, syms, err := link(frags, mem.TextBase, externs)
	if err != nil {
		return nil, err
	}

	b := binfmt.New()
	b.AddSection(".text", mem.TextBase, mem.PermRead|mem.PermExec, code)
	b.AddSection(".data", mem.DataBase, mem.PermRead|mem.PermWrite, make([]byte, abi.DataSize))
	for _, s := range syms {
		b.AddSymbol(s)
	}
	for name, addr := range globals {
		b.AddSymbol(binfmt.Symbol{Name: name, Addr: addr, Size: 8, Kind: binfmt.SymObject})
	}
	start, ok := b.Symbol("_start")
	if !ok {
		return nil, fmt.Errorf("cc: linked binary has no _start")
	}
	b.Entry = start.Addr
	b.Meta[abi.MetaScheme] = opts.Scheme.String()
	b.Meta[abi.MetaLinkage] = linkage
	b.Meta[abi.MetaKind] = "app"
	b.Meta["name"] = prog.Name
	return b, nil
}

// link places fragments sequentially from base, resolves call fixups against
// the fragments themselves plus externs, and encodes the final code bytes.
func link(frags []*Fragment, base uint64, externs map[string]uint64) ([]byte, []binfmt.Symbol, error) {
	addrs := make(map[string]uint64, len(frags)+len(externs))
	for name, a := range externs {
		addrs[name] = a
	}
	var syms []binfmt.Symbol
	addr := base
	for _, f := range frags {
		if _, dup := addrs[f.Name]; dup {
			return nil, nil, fmt.Errorf("cc: link: duplicate symbol %q", f.Name)
		}
		addrs[f.Name] = addr
		syms = append(syms, binfmt.Symbol{Name: f.Name, Addr: addr, Size: uint64(f.Size), Kind: binfmt.SymFunc})
		addr += uint64(f.Size)
	}

	code := make([]byte, 0, int(addr-base))
	for _, f := range frags {
		fragBase := addrs[f.Name]
		// Per-instruction offsets for fixup patching.
		off := 0
		fixupAt := make(map[int]string, len(f.Fixups))
		for _, fx := range f.Fixups {
			fixupAt[fx.InstIndex] = fx.Symbol
		}
		for i := range f.Insts {
			in := f.Insts[i]
			if sym, ok := fixupAt[i]; ok {
				target, found := addrs[sym]
				if !found {
					return nil, nil, fmt.Errorf("cc: link: undefined symbol %q called from %s", sym, f.Name)
				}
				next := fragBase + uint64(off) + uint64(in.Len())
				in.Disp = int32(int64(target) - int64(next))
			}
			code = isa.Encode(code, in)
			off += in.Len()
		}
	}
	return code, syms, nil
}
