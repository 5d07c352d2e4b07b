package pssp

import (
	"context"
	"testing"

	"repro/internal/rng"
)

// TestReplicaMachines pins the victim derivation a campaign replication
// uses: configuration inheritance, determinism per stream, and
// independence across streams.
func TestReplicaMachines(t *testing.T) {
	ctx := context.Background()
	m := NewMachine(WithSeed(42), WithScheme(SchemeSSP), WithAttackBudget(123))
	img, err := m.CompileApp("nginx-vuln")
	if err != nil {
		t.Fatal(err)
	}
	victim := func(rep uint64) *Machine { return m.withSeed(rng.Mix(rng.Mix(m.cfg.seed, rep), 1)) }
	canary := func(mm *Machine) uint64 {
		srv, err := mm.Serve(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		c, err := srv.Canary()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	v0 := victim(0)
	if v0.Scheme() != m.Scheme() || v0.AttackBudget() != 123 || v0.Engine() != m.Engine() {
		t.Fatal("victim dropped configuration")
	}
	if canary(victim(1)) != canary(victim(1)) {
		t.Fatal("same replication stream produced different victims")
	}
	if canary(victim(1)) == canary(victim(2)) {
		t.Fatal("distinct replication streams produced the same victim")
	}
}
