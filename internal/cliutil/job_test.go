package cliutil

import (
	"flag"
	"reflect"
	"testing"

	"repro/internal/daemon"
)

// kindCLI parses argv the way a kind's own CLI (psspattack, psspload,
// psspfuzz) does: the kind's flags beside the connection flags.
func kindCLI(t *testing.T, method string, argv []string) Job {
	t.Helper()
	fs := flag.NewFlagSet(method, flag.ContinueOnError)
	j := jobs[method](fs)
	ConnFlags(fs)
	if err := fs.Parse(argv); err != nil {
		t.Fatal(err)
	}
	return j
}

func params(t *testing.T, j Job) any {
	t.Helper()
	p, err := j.Params()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFlagDefaultsAreTheDaemonDefaults pins the rule that each job default
// has one home: an empty argv builds exactly the daemon's normalization of
// the zero params, -seed's CLI default of 1 excepted.
func TestFlagDefaultsAreTheDaemonDefaults(t *testing.T) {
	attack := daemon.NormalizeAttackParams(daemon.AttackParams{})
	attack.Seed = 1
	load := daemon.NormalizeLoadParams(daemon.LoadParams{})
	load.Seed = 1
	fuzz := daemon.NormalizeFuzzParams(daemon.FuzzParams{})
	fuzz.Seed = 1
	for method, want := range map[string]any{"attack": attack, "loadtest": load, "fuzz": fuzz} {
		j := kindCLI(t, method, nil)
		if j.Method() != method {
			t.Errorf("jobs[%q] calls %q", method, j.Method())
		}
		if got := params(t, j); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: empty argv gives %+v, want the daemon defaults %+v", method, got, want)
		}
	}
}

// TestPositionalJobMatchesKindCLI: psspctl's `KIND flags…` and the kind's
// own CLI build identical params from the same flags.
func TestPositionalJobMatchesKindCLI(t *testing.T) {
	cases := []struct {
		method string
		argv   []string
	}{
		{"attack", []string{"-target", "ali-vuln", "-scheme", "P-SSP", "-strategy", "chunk",
			"-budget", "2048", "-repeats", "8", "-workers", "2", "-seed", "7", "-json"}},
		{"loadtest", []string{"-app", "nginx", "-scheme", "pssp", "-mix", "benign:3,probe=adaptive:1",
			"-requests", "128", "-shards", "6", "-seed", "7", "-sweep", "0.5,1,2", "-budget", "32"}},
		{"fuzz", []string{"-app", "nginx-vuln", "-scheme", "ssp", "-execs", "512", "-shards", "6",
			"-seed", "7", "-until-stall", "2", "-seeds", "GET /:2,PING", "-dict", "Host:", "-json"}},
	}
	for _, tc := range cases {
		local := kindCLI(t, tc.method, tc.argv)
		ctl, err := ParseJob("psspctl", append([]string{tc.method}, tc.argv...))
		if err != nil {
			t.Fatal(err)
		}
		if ctl.Method() != tc.method || ctl.JSON() != local.JSON() {
			t.Errorf("%s: psspctl job %q json=%v, kind CLI json=%v", tc.method, ctl.Method(), ctl.JSON(), local.JSON())
		}
		if got, want := params(t, ctl), params(t, local); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: psspctl params %+v, kind CLI params %+v", tc.method, got, want)
		}
	}
}

func TestParseJobErrors(t *testing.T) {
	if _, err := ParseJob("psspctl", []string{"campaign"}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ParseJob("psspctl", []string{"attack", "-seed", "7", "stray"}); err == nil {
		t.Error("stray argument after the kind's flags accepted")
	}
	j, err := ParseJob("psspctl", []string{"fuzz", "-until-stall", "2", "-duration", "1s"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Params(); err == nil {
		t.Error("-until-stall with -duration accepted")
	}
}
