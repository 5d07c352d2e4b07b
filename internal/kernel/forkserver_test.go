package kernel

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vm"
)

// slotProg is a fork server whose workers report what they inherit and then
// leave a mark, so a test can tell whether one worker's writes reach the
// next. The request's length picks the worker's path:
//
//   - 8 bytes: write one 40-byte report — the stack slot at rbp-32, the
//     word at TLS+0x100, the word at .data+0x100, then the TLS shadow pair
//     (C0, C1) — and then store the request word into all three places;
//   - 1 byte: store into the stack slot forever (cancellation tests);
//   - anything else: write nothing. A request of 17 bytes or more overflows
//     the 16-byte buffer into the canary at rbp-8, so a wrong low canary
//     byte aborts in the epilogue check.
const slotProg = `
_start:
	call serve
	movi $60, %rax
	movi $0, %rdi
	syscall
serve:
	push %rbp
	mov %rsp, %rbp
	subi $96, %rsp
	ldfs %fs:0x28, %rax
	store -8(%rbp), %rax
	movi $200, %rax
	syscall
	cmpi $0, %rax
	je check
	mov %rax, %rbx
	mov %rax, %rdx
	movi $0, %rax
	movi $0, %rdi
	lea -24(%rbp), %rsi
	syscall
	cmpi $1, %rbx
	je spin
	cmpi $8, %rbx
	jne check
	load -32(%rbp), %rax
	store -80(%rbp), %rax
	movi $0x7f000100, %rcx
	load 0(%rcx), %rax
	store -72(%rbp), %rax
	movi $0x600100, %rcx
	load 0(%rcx), %rax
	store -64(%rbp), %rax
	ldfs %fs:0x2a8, %rax
	store -56(%rbp), %rax
	ldfs %fs:0x2b0, %rax
	store -48(%rbp), %rax
	movi $1, %rax
	movi $1, %rdi
	lea -80(%rbp), %rsi
	movi $40, %rdx
	syscall
	load -24(%rbp), %rax
	store -32(%rbp), %rax
	movi $0x7f000100, %rcx
	store 0(%rcx), %rax
	movi $0x600100, %rcx
	store 0(%rcx), %rax
	jmp check
spin:
	load -24(%rbp), %rax
	store -32(%rbp), %rax
	jmp spin
check:
	load -8(%rbp), %rdx
	xorfs %fs:0x28, %rdx
	je ok
	call fail
ok:
	leave
	ret
fail:
	movi $101, %rax
	syscall
`

// slotEngines are the three execution tiers every slot property must hold on.
var slotEngines = []struct {
	name   string
	engine vm.Engine
}{
	{"interpreter", vm.EngineInterpreter},
	{"predecoded", vm.EnginePredecoded},
	{"compiled", vm.EngineCompiled},
}

// forEngine runs f once per execution tier against a fresh p-ssp slotProg
// server.
func forEngine(t *testing.T, f func(t *testing.T, k *Kernel, srv *ForkServer)) {
	for _, e := range slotEngines {
		t.Run(e.name, func(t *testing.T) {
			k := New(11)
			k.Engine = e.engine
			srv, err := NewForkServer(k, buildStatic(t, slotProg, "p-ssp"), SpawnOpts{})
			if err != nil {
				t.Fatal(err)
			}
			f(t, k, srv)
		})
	}
}

// report is a decoded slotProg report.
type report struct{ stack, tls, data, c0, c1 uint64 }

func handleReport(t *testing.T, srv *ForkServer, mark uint64) (Outcome, report) {
	t.Helper()
	req := binary.LittleEndian.AppendUint64(nil, mark)
	out, err := srv.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashed || len(out.Response) != 40 {
		t.Fatalf("report request: crashed=%v (%s), response %d bytes", out.Crashed, out.CrashReason, len(out.Response))
	}
	w := func(i int) uint64 { return binary.LittleEndian.Uint64(out.Response[8*i:]) }
	return out, report{w(0), w(1), w(2), w(3), w(4)}
}

// smashProbe is a 17-byte request whose last byte is wrong for the parent's
// canary: the worker writes nothing and aborts.
func smashProbe(t *testing.T, srv *ForkServer) []byte {
	t.Helper()
	c, err := srv.Parent().TLS().Canary()
	if err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{'A'}, 17)
	p[16] = ^byte(c)
	return p
}

func TestForkServerSlotIsolatesWrites(t *testing.T) {
	forEngine(t, func(t *testing.T, _ *Kernel, srv *ForkServer) {
		probe := smashProbe(t, srv)
		for i := uint64(1); i <= 4; i++ {
			_, r := handleReport(t, srv, 0x1111111111111111*i)
			if r.stack != 0 || r.tls != 0 || r.data != 0 {
				t.Fatalf("request %d sees an earlier worker's writes: stack %#x tls %#x data %#x", i, r.stack, r.tls, r.data)
			}
			// A crashing worker in between must not leak either.
			if out, err := srv.Handle(probe); err != nil || !out.Crashed {
				t.Fatalf("probe: crashed=%v err=%v", out.Crashed, err)
			}
		}
	})
}

func TestForkServerOutcomeSurvivesNextRequest(t *testing.T) {
	forEngine(t, func(t *testing.T, _ *Kernel, srv *ForkServer) {
		probe := smashProbe(t, srv)
		crash, err := srv.Handle(probe)
		if err != nil || !crash.Crashed {
			t.Fatalf("probe: crashed=%v err=%v", crash.Crashed, err)
		}
		reason, errText := crash.CrashReason, crash.CrashErr.Error()
		first, _ := handleReport(t, srv, 1)
		firstBody := bytes.Clone(first.Response)

		// Request N+1 of each kind: another report and another abort at the
		// same site.
		second, _ := handleReport(t, srv, 2)
		again, err := srv.Handle(probe)
		if err != nil || !again.Crashed {
			t.Fatalf("second probe: crashed=%v err=%v", again.Crashed, err)
		}

		if !bytes.Equal(first.Response, firstBody) {
			t.Fatalf("request N's response changed after N+1:\n got %x\nwant %x", first.Response, firstBody)
		}
		if bytes.Equal(first.Response, second.Response) {
			t.Fatal("two p-ssp workers reported identical shadow pairs")
		}
		if crash.CrashReason != reason || crash.CrashErr.Error() != errText || !errors.Is(crash.CrashErr, ErrStackSmash) {
			t.Fatalf("request N's crash changed: %q / %v", crash.CrashReason, crash.CrashErr)
		}
		if again.CrashReason != reason || crash.PID == again.PID || crash.PID == first.PID {
			t.Fatalf("aborts at one site: reasons %q vs %q, PIDs %d %d %d", reason, again.CrashReason, crash.PID, first.PID, again.PID)
		}
		if crash.Response != nil || again.Response != nil {
			t.Fatalf("silent probes returned responses %q, %q", crash.Response, again.Response)
		}
	})
}

func TestForkServerPSSPWorkersGetFreshShadowPairs(t *testing.T) {
	forEngine(t, func(t *testing.T, _ *Kernel, srv *ForkServer) {
		c, err := srv.Parent().TLS().Canary()
		if err != nil {
			t.Fatal(err)
		}
		p0, p1, err := srv.Parent().TLS().Shadow()
		if err != nil {
			t.Fatal(err)
		}
		_, a := handleReport(t, srv, 1)
		_, b := handleReport(t, srv, 2)
		for _, r := range []report{a, b} {
			if !core.Check(r.c0, r.c1, c) {
				t.Fatalf("worker pair %#x^%#x does not XOR to C %#x", r.c0, r.c1, c)
			}
			if r.c0 == p0 && r.c1 == p1 {
				t.Fatal("worker kept the parent's shadow pair")
			}
		}
		if a.c0 == b.c0 && a.c1 == b.c1 {
			t.Fatalf("consecutive workers share the shadow pair (%#x, %#x)", a.c0, a.c1)
		}
	})
}

func TestForkServerCanceledRequestDoesNotPoison(t *testing.T) {
	forEngine(t, func(t *testing.T, k *Kernel, srv *ForkServer) {
		// The spinning worker runs until canceled, writing its stack slot.
		k.MaxInsts = 1 << 62
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(5*time.Millisecond, cancel)
		defer timer.Stop()
		if _, err := srv.HandleContext(ctx, []byte{'S'}); !errors.Is(err, context.Canceled) {
			t.Fatalf("spinning request: %v, want context.Canceled", err)
		}
		// Already canceled: the worker is forked, hooked and dropped unrun.
		if _, err := srv.HandleContext(ctx, []byte{'S'}); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled request: %v, want context.Canceled", err)
		}
		k.MaxInsts = 4 << 20
		if srv.Requests != 0 {
			t.Fatalf("canceled requests counted: %d", srv.Requests)
		}
		for i := uint64(1); i <= 2; i++ {
			_, r := handleReport(t, srv, i)
			if r.stack != 0 || r.tls != 0 || r.data != 0 {
				t.Fatalf("request after cancel sees stale writes: %+v", r)
			}
		}
		if out, err := srv.Handle(smashProbe(t, srv)); err != nil || !out.Crashed {
			t.Fatalf("probe after cancel: crashed=%v err=%v", out.Crashed, err)
		}
	})
}

// TestForkServerRequestAllocs guards the recycled slot: once warm, a
// canary-abort probe that writes nothing allocates nothing, and a request
// whose worker writes once allocates only its Response.
func TestForkServerRequestAllocs(t *testing.T) {
	forEngine(t, func(t *testing.T, _ *Kernel, srv *ForkServer) {
		probe := smashProbe(t, srv)
		write := binary.LittleEndian.AppendUint64(nil, 7)
		for i := 0; i < 3; i++ { // warm: the slot, the pool, the code cache
			handleReport(t, srv, 7)
			if _, err := srv.Handle(probe); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, func() {
			if out, err := srv.Handle(probe); err != nil || !out.Crashed {
				t.Fatalf("probe: crashed=%v err=%v", out.Crashed, err)
			}
		}); n != 0 {
			t.Errorf("canary-abort probe: %v allocs, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if out, err := srv.Handle(write); err != nil || len(out.Response) != 40 {
				t.Fatalf("write request: %d response bytes, err=%v", len(out.Response), err)
			}
		}); n > 1 {
			t.Errorf("writing request: %v allocs, want at most 1 (its Response)", n)
		}
	})
}
