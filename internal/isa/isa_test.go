package isa

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpTableComplete(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		if op.Name() == "" {
			t.Errorf("opcode %d has no name", op)
		}
		if op.Cycles() == 0 {
			t.Errorf("opcode %s has zero cycle cost", op.Name())
		}
		if op.EncodedLen() < 1 {
			t.Errorf("opcode %s has encoded length %d", op.Name(), op.EncodedLen())
		}
	}
}

func TestOpNamesUnique(t *testing.T) {
	seen := make(map[string]Op, NumOps)
	for op := Op(0); op < NumOps; op++ {
		if prev, dup := seen[op.Name()]; dup {
			t.Errorf("opcodes %d and %d share name %q", prev, op, op.Name())
		}
		seen[op.Name()] = op
	}
}

func TestRegString(t *testing.T) {
	cases := map[Reg]string{RAX: "rax", RSP: "rsp", RBP: "rbp", RDI: "rdi", R12: "r12", R15: "r15"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

// sampleInsts covers every shape.
func sampleInsts() []Inst {
	return []Inst{
		{Op: NOP},
		{Op: PUSH, R1: RBP},
		{Op: MOVRR, R1: RBP, R2: RSP},
		{Op: MOVRI, R1: RAX, Imm: -0x123456789},
		{Op: SHLRI, R1: RDX, Imm: 0x20},
		{Op: LOAD, R1: RDX, Base: RBP, Disp: -8},
		{Op: LDFS, R1: RAX, Disp: 0x28},
		{Op: JE, Disp: 16},
		{Op: CALL, Disp: -100},
		{Op: MOVQX, X1: XMM15, R1: RAX},
		{Op: MOVHX, X1: XMM15, Base: RBP, Disp: 8},
		{Op: AESENC},
		{Op: STX, X1: XMM15, Base: RBP, Disp: -0x18},
		{Op: SYSCALL},
		{Op: RET},
		{Op: LEAVE},
		{Op: RDRAND, R1: RAX},
		{Op: RDTSC},
		{Op: XORFS, R1: RDX, Disp: 0x28},
		{Op: STORE, R1: RAX, Base: RBP, Disp: -16},
		{Op: SUBRI, R1: RSP, Imm: 0x10},
		{Op: CMPRI, R1: RAX, Imm: 0},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, in := range sampleInsts() {
		buf := Encode(nil, in)
		if len(buf) != in.Len() {
			t.Errorf("%s: encoded %d bytes, Len() says %d", in, len(buf), in.Len())
		}
		got, n, err := Decode(buf, 0)
		if err != nil {
			t.Fatalf("%s: decode: %v", in, err)
		}
		if n != len(buf) {
			t.Errorf("%s: decode consumed %d of %d bytes", in, n, len(buf))
		}
		if got != in {
			t.Errorf("round trip mismatch: encoded %+v, decoded %+v", in, got)
		}
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	insts := sampleInsts()
	code := EncodeAll(insts)
	got, err := DecodeAll(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(insts) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(insts))
	}
	for i := range insts {
		if got[i] != insts[i] {
			t.Errorf("instruction %d: got %+v, want %+v", i, got[i], insts[i])
		}
	}
}

func TestDecodeInvalidOpcode(t *testing.T) {
	if _, _, err := Decode([]byte{0xff}, 0); err == nil {
		t.Fatal("decoding opcode 0xff succeeded, want error")
	}
}

func TestDecodeTruncated(t *testing.T) {
	code := Encode(nil, Inst{Op: MOVRI, R1: RAX, Imm: 42})
	for cut := 1; cut < len(code); cut++ {
		if _, _, err := Decode(code[:cut], 0); err == nil {
			t.Errorf("decoding %d/%d bytes of movi succeeded, want error", cut, len(code))
		}
	}
}

func TestDecodeBadRegister(t *testing.T) {
	code := []byte{byte(PUSH), 200}
	if _, _, err := Decode(code, 0); err == nil {
		t.Fatal("decoding push with register 200 succeeded, want error")
	}
	code = []byte{byte(MOVQX), 99, byte(RAX)}
	if _, _, err := Decode(code, 0); err == nil {
		t.Fatal("decoding movqx with xmm99 succeeded, want error")
	}
}

func TestDecodeOffsetOutOfRange(t *testing.T) {
	if _, _, err := Decode(nil, 0); err == nil {
		t.Fatal("decode of empty code succeeded")
	}
	if _, _, err := Decode([]byte{byte(NOP)}, 5); err == nil {
		t.Fatal("decode past end succeeded")
	}
}

// TestShapeLengthStability pins the encoded lengths the rewriter relies on:
// an SSP prologue LDFS and a P-SSP LDFS must be the same length so the
// rewriter's in-place replacement never shifts code.
func TestShapeLengthStability(t *testing.T) {
	ssp := Inst{Op: LDFS, R1: RAX, Disp: 0x28}
	pssp := Inst{Op: LDFS, R1: RAX, Disp: 0x2a8}
	if ssp.Len() != pssp.Len() {
		t.Fatalf("LDFS lengths differ: %d vs %d", ssp.Len(), pssp.Len())
	}
	if got := ssp.Len(); got != 6 {
		t.Fatalf("LDFS encoded length = %d, want 6", got)
	}
}

func TestRel32EncodingProperty(t *testing.T) {
	f := func(disp int32) bool {
		in := Inst{Op: JMP, Disp: disp}
		got, _, err := Decode(Encode(nil, in), 0)
		return err == nil && got.Disp == disp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImm64EncodingProperty(t *testing.T) {
	f := func(imm int64) bool {
		in := Inst{Op: MOVRI, R1: RCX, Imm: imm}
		got, _, err := Decode(Encode(nil, in), 0)
		return err == nil && got.Imm == imm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: PUSH, R1: RBP}, "push %rbp"},
		{Inst{Op: MOVRR, R1: RBP, R2: RSP}, "mov %rsp, %rbp"},
		{Inst{Op: LDFS, R1: RAX, Disp: 40}, "ldfs %fs:40, %rax"},
		{Inst{Op: LOAD, R1: RDX, Base: RBP, Disp: -8}, "load -8(%rbp), %rdx"},
		{Inst{Op: RET}, "ret"},
		{Inst{Op: MOVQX, X1: XMM15, R1: RAX}, "movqx %rax, %xmm15"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestRDRANDCostDominates(t *testing.T) {
	// The Table V reproduction depends on RDRAND being ~two orders of
	// magnitude costlier than plain moves and AES being cheaper than RDRAND.
	if RDRAND.Cycles() < 100*MOVRR.Cycles() {
		t.Fatal("rdrand cost model too cheap for Table V shape")
	}
	if AESENC.Cycles() >= RDRAND.Cycles() {
		t.Fatal("aes cost should be below rdrand cost (paper Table V: 278 < 343)")
	}
}

func TestInstStringNoPanicAllOps(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		s := Inst{Op: op}.String()
		if !strings.Contains(s, op.Name()) {
			t.Errorf("String() for %s = %q does not contain mnemonic", op.Name(), s)
		}
	}
}

// FuzzDecode: Decode never panics on arbitrary bytes at any offset, and
// every instruction it accepts re-encodes to exactly the bytes it consumed
// (and decodes back to itself). Seeded from the round-trip samples.
func FuzzDecode(f *testing.F) {
	for _, in := range sampleInsts() {
		f.Add(Encode(nil, in), 0)
	}
	f.Add(EncodeAll(sampleInsts()), 1)
	f.Fuzz(func(t *testing.T, code []byte, off int) {
		in, n, err := Decode(code, off)
		if err != nil {
			return
		}
		if n != in.Len() {
			t.Fatalf("%s: decode consumed %d bytes, Len() says %d", in, n, in.Len())
		}
		enc := Encode(nil, in)
		if !bytes.Equal(enc, code[off:off+n]) {
			t.Fatalf("%s: decoded % x, re-encoded % x", in, code[off:off+n], enc)
		}
		if again, _, err := Decode(enc, 0); err != nil || again != in {
			t.Fatalf("%s: re-decode = %+v, %v", in, again, err)
		}
	})
}
