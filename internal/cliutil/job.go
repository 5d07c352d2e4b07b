package cliutil

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/pssp"
)

// Job is one job kind's scenario flags and its one call-and-render path.
// The flags are declared once, here, on whichever FlagSet runs the kind:
// its own CLI's (psspattack, psspload, psspfuzz) or psspctl's, after the
// kind's method name. Each default is the daemon's Normalize*Params value,
// or 0 where 0 means the engine's default — so a flag left unset runs
// exactly what a job that leaves the knob unset runs — except -seed,
// whose CLI default is 1.
type Job interface {
	// Method is the daemon method the job calls; psspctl names kinds by it.
	Method() string
	// Params resolves the parsed flags into the method's wire params.
	Params() (any, error)
	// JSON reports whether -json was given.
	JSON() bool
	// Run calls the job on c and renders its result on stdout: text, or
	// one JSON document with -json. prog prefixes its stderr lines.
	Run(ctx context.Context, prog string, c *client.Client, opts ...client.Option) error
	// EmitJSON renders raw, a result of the kind as the daemon encodes it,
	// as Run's -json does.
	EmitJSON(prog string, raw json.RawMessage) error
}

// jobs registers each job kind's flags on a FlagSet, by method name.
var jobs = map[string]func(*flag.FlagSet) Job{
	"attack":   AttackJob,
	"loadtest": LoadJob,
	"fuzz":     FuzzJob,
}

// ParseJob parses psspctl's positional job: a kind's method name followed
// by that kind's flags.
func ParseJob(prog string, args []string) (Job, error) {
	newJob, ok := jobs[args[0]]
	if !ok {
		return nil, fmt.Errorf("unknown job kind %q (want attack, loadtest or fuzz)", args[0])
	}
	fs := flag.NewFlagSet(prog+" "+args[0], flag.ExitOnError)
	j := newJob(fs)
	fs.Parse(args[1:])
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q after the %s flags", fs.Arg(0), args[0])
	}
	return j, nil
}

// EmitResult renders raw, the stored result of a method job (psspctl
// -aggregate), through that kind's -json path; a method that is no job
// kind here prints raw as it is.
func EmitResult(prog, method string, raw json.RawMessage) error {
	newJob, ok := jobs[method]
	if !ok {
		return EmitJSON(os.Stdout, raw)
	}
	return newJob(flag.NewFlagSet(method, flag.ContinueOnError)).EmitJSON(prog, raw)
}

// kind is a job kind with wire params P and result R: the flag-bound
// params, and the hooks in which the kinds differ around the one call.
type kind[P, R any] struct {
	method  string
	p       P
	jsonOut bool
	// box is the call's wall-clock time box (0 = none): fuzz's -duration.
	box time.Duration
	// resolve completes the flag-bound params: the scheme's wire name and
	// the parsed spec flags.
	resolve func(P) (P, error)
	// before, when set, runs before the call and returns extra call options.
	before func(prog string, p P) []client.Option
	// show renders a result of the job p, as text or with -json as JSON.
	show func(prog string, p P, res R) error
}

func (k *kind[P, R]) Method() string { return k.method }

func (k *kind[P, R]) JSON() bool { return k.jsonOut }

func (k *kind[P, R]) Params() (any, error) { return k.resolve(k.p) }

func (k *kind[P, R]) Run(ctx context.Context, prog string, c *client.Client, opts ...client.Option) error {
	p, err := k.resolve(k.p)
	if err != nil {
		return err
	}
	if k.box > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, k.box)
		defer cancel()
	}
	if k.before != nil {
		opts = append(opts, k.before(prog, p)...)
	}
	var res R
	if err := c.Call(ctx, k.method, p, &res, opts...); err != nil {
		return err
	}
	return k.show(prog, p, res)
}

func (k *kind[P, R]) EmitJSON(prog string, raw json.RawMessage) error {
	var res R
	if err := json.Unmarshal(raw, &res); err != nil {
		return err
	}
	k.jsonOut = true
	return k.show(prog, k.p, res)
}

// commonFlags registers the flags every kind shares.
func commonFlags(fs *flag.FlagSet, seed *uint64, jsonOut *bool) {
	fs.Uint64Var(seed, "seed", 1, "simulation seed (0 = drawn from the tenant's seed stream)")
	fs.BoolVar(jsonOut, "json", false, "emit one machine-readable JSON object")
}

// canonicalScheme resolves a -scheme value to the scheme's one wire name.
func canonicalScheme(name string) (string, error) {
	s, err := pssp.ParseScheme(name)
	return s.String(), err
}

// AttackJob registers the attack kind's flags on fs: a campaign of
// byte-by-byte (or another strategy's) replications against a vulnerable
// server.
func AttackJob(fs *flag.FlagSet) Job {
	k := &kind[daemon.AttackParams, daemon.AttackReport]{method: "attack"}
	def := daemon.NormalizeAttackParams(daemon.AttackParams{})
	fs.StringVar(&k.p.Target, "target", def.Target, "victim app: nginx-vuln | ali-vuln")
	fs.StringVar(&k.p.Scheme, "scheme", def.Scheme, "protection scheme of the victim")
	fs.StringVar(&k.p.Strategy, "strategy", def.Strategy, strategyHelp())
	fs.IntVar(&k.p.Budget, "budget", def.Budget, "maximum trials per replication")
	fs.IntVar(&k.p.Repeats, "repeats", def.Repeats, "independent campaign replications")
	fs.IntVar(&k.p.Workers, "workers", def.Workers, "concurrent oracle shards (0 = GOMAXPROCS; wall-clock only)")
	commonFlags(fs, &k.p.Seed, &k.jsonOut)
	k.resolve = func(p daemon.AttackParams) (daemon.AttackParams, error) {
		var err error
		p.Scheme, err = canonicalScheme(p.Scheme)
		return p, err
	}
	k.before = func(_ string, p daemon.AttackParams) []client.Option {
		if !k.jsonOut {
			strategy := p.Strategy
			if strategy == "" {
				strategy = defaultStrategy()
			}
			fmt.Printf("attacking %s (scheme %s) with %s: %d replication(s), budget %d trials each...\n",
				p.Target, p.Scheme, strategy, p.Repeats, p.Budget)
		}
		return nil
	}
	k.show = func(_ string, _ daemon.AttackParams, rep daemon.AttackReport) error {
		if k.jsonOut {
			return EmitJSON(os.Stdout, rep)
		}
		PrintAttack(rep)
		return nil
	}
	return k
}

// strategyHelp lists the registered adversary strategies.
func strategyHelp() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adversary strategy (empty = %s):", defaultStrategy())
	for _, s := range pssp.AttackStrategies() {
		fmt.Fprintf(&b, "\n    %-12s %s", s.Name, s.Description)
	}
	return b.String()
}

// defaultStrategy names the strategy an empty -strategy runs; the registry
// resolves "" without error.
func defaultStrategy() string {
	s, _ := attack.StrategyByName("")
	return s.Name()
}

// LoadJob registers the loadtest kind's flags on fs: a traffic mix pushed
// through replica fork servers in virtual time, optionally swept over
// offered-load multipliers.
func LoadJob(fs *flag.FlagSet) Job {
	k := &kind[daemon.LoadParams, daemon.LoadResult]{method: "loadtest"}
	var mix, sweep string
	def := daemon.NormalizeLoadParams(daemon.LoadParams{})
	fs.StringVar(&k.p.App, "app", def.App, "built-in server app to load (see pssp.Apps)")
	fs.StringVar(&k.p.Scheme, "scheme", def.Scheme, "protection scheme of the servers")
	fs.StringVar(&mix, "mix", "", "traffic mix, e.g. 'benign:3,probe=adaptive:1' (empty = the app's benign request alone)")
	fs.StringVar(&k.p.Arrivals, "arrivals", def.Arrivals, "arrival model: poisson | uniform | closed (empty = poisson)")
	fs.Float64Var(&k.p.Rate, "rate", def.Rate, "open-loop offered rate (requests per million victim cycles)")
	fs.IntVar(&k.p.Clients, "clients", def.Clients, "closed-loop client population")
	fs.Float64Var(&k.p.ThinkCycles, "think", def.ThinkCycles, "closed-loop mean think time (cycles)")
	fs.IntVar(&k.p.Requests, "requests", def.Requests, "total request budget (0 = duration-bounded)")
	fs.Uint64Var(&k.p.DurationCycles, "duration", def.DurationCycles, "virtual-time horizon in cycles (0 = request-bounded)")
	fs.IntVar(&k.p.Shards, "shards", def.Shards, "replica servers the clients shard over (part of the scenario; 0 = the engine's default)")
	fs.IntVar(&k.p.Workers, "workers", def.Workers, "concurrent shard executors (0 = GOMAXPROCS; wall-clock only)")
	fs.IntVar(&k.p.Budget, "budget", def.Budget, "probe trials per attack replication")
	fs.StringVar(&sweep, "sweep", "", "offered-load multipliers, e.g. '0.5,1,2,4' (locates the saturation knee)")
	commonFlags(fs, &k.p.Seed, &k.jsonOut)
	k.resolve = func(p daemon.LoadParams) (daemon.LoadParams, error) {
		var err error
		if p.Scheme, err = canonicalScheme(p.Scheme); err != nil {
			return p, err
		}
		if p.Mix, err = ParseMix(mix); err != nil {
			return p, err
		}
		p.Sweep, err = ParseSweep(sweep)
		return p, err
	}
	k.show = func(prog string, p daemon.LoadParams, res daemon.LoadResult) error {
		if res.Canceled {
			fmt.Fprintf(os.Stderr, "%s: job canceled; partial report follows\n", prog)
		}
		// -json prints the inner report bare: a single workload's
		// LoadReport, a sweep's LoadSweepReport.
		switch {
		case k.jsonOut && res.Sweep != nil:
			return EmitJSON(os.Stdout, res.Sweep)
		case k.jsonOut:
			return EmitJSON(os.Stdout, res.Report)
		case res.Sweep != nil:
			PrintSweep(res.Sweep, p)
		default:
			PrintLoad(res.Report)
		}
		return nil
	}
	return k
}

// FuzzJob registers the fuzz kind's flags on fs: coverage-guided fuzzing
// of a built-in server over sharded deterministic mutation streams.
func FuzzJob(fs *flag.FlagSet) Job {
	k := &kind[daemon.FuzzParams, daemon.FuzzResult]{method: "fuzz"}
	var seeds, dict string
	def := daemon.NormalizeFuzzParams(daemon.FuzzParams{})
	fs.StringVar(&k.p.App, "app", def.App, "built-in server app to fuzz (see pssp.Apps)")
	fs.StringVar(&k.p.Scheme, "scheme", def.Scheme, "protection scheme of the victim servers")
	fs.StringVar(&seeds, "seeds", "", "seed corpus spec, e.g. 'GET /:2,PING' (empty = the app's built-in request)")
	fs.StringVar(&k.p.CorpusDir, "corpus", def.CorpusDir, "persistent corpus directory: saved inputs seed the run, discoveries and the coverage frontier are folded back (resolved on the daemon's host)")
	fs.StringVar(&dict, "dict", "", "mutation dictionary spec, e.g. 'Host:,HTTP/1.1:2'")
	fs.IntVar(&k.p.Execs, "execs", def.Execs, "total mutation budget across shards (0 = the engine's default)")
	fs.DurationVar(&k.box, "duration", 0, "wall-clock time box of the call (0 = exec-bounded only; a timed run's report is partial, not worker-invariant; a submitted job runs unboxed)")
	fs.IntVar(&k.p.Shards, "shards", def.Shards, "self-contained fuzzing shards, one replica victim each (part of the scenario; 0 = the engine's default)")
	fs.IntVar(&k.p.Workers, "workers", def.Workers, "concurrent shard executors (0 = GOMAXPROCS; wall-clock only)")
	fs.IntVar(&k.p.MaxInput, "max-input", def.MaxInput, "generated input length cap in bytes (0 = the engine's default)")
	fs.IntVar(&k.p.UntilStall, "until-stall", def.UntilStall, "continuous mode: rerun exec-bounded rounds, reseeded from the growing corpus, until the coverage frontier is unchanged for this many consecutive rounds (0 = single run)")
	commonFlags(fs, &k.p.Seed, &k.jsonOut)
	k.resolve = func(p daemon.FuzzParams) (daemon.FuzzParams, error) {
		var err error
		if p.Scheme, err = canonicalScheme(p.Scheme); err != nil {
			return p, err
		}
		if p.Seeds, err = ParseByteItems(seeds); err != nil {
			return p, fmt.Errorf("seeds %w", err)
		}
		if p.Dict, err = ParseByteItems(dict); err != nil {
			return p, fmt.Errorf("dict %w", err)
		}
		if p.UntilStall > 0 && k.box > 0 {
			return p, errors.New("-until-stall rounds are exec-bounded; combine with -execs, not -duration")
		}
		return p, nil
	}
	// A time-boxed run prints a live ticker on stderr from the job's
	// progress events, throttled to ~1 Hz here (events arrive on the
	// client's one reader goroutine, so the plain `last` is race-free).
	// Exec-bounded runs stay silent — their report is the whole story.
	k.before = func(prog string, _ daemon.FuzzParams) []client.Option {
		if k.box == 0 {
			return nil
		}
		var last time.Time
		return []client.Option{client.WithEvents(func(ev daemon.ProgressEvent) {
			if ev.Fuzz == nil || time.Since(last) < time.Second {
				return
			}
			last = time.Now()
			f := ev.Fuzz
			fmt.Fprintf(os.Stderr, "%s: shard %d/%d, %d execs, %d crashes, %d finding(s), corpus %d\n",
				prog, f.ShardsDone, f.Shards, f.Execs, f.Crashes, f.Findings, f.CorpusSize)
		})}
	}
	k.show = func(_ string, p daemon.FuzzParams, res daemon.FuzzResult) error {
		// A canceled partial under -duration is the requested time box:
		// report it like a stopped fuzzing session. A completed run keeps
		// the bare FuzzReport JSON shape; a time-boxed partial adds
		// "timed_out": true so scripts cannot mistake a truncated frontier
		// for a full one, and a continuous run adds its "until_stall"
		// summary. The check is on the job's Canceled flag, not ctx.Err():
		// a genuine failure that lands after the deadline still fails
		// loudly.
		if k.box > 0 && res.Canceled {
			res.TimedOut, res.Canceled = true, false
		}
		if k.jsonOut {
			return EmitJSON(os.Stdout, res)
		}
		PrintFuzz(res, p, k.box)
		return nil
	}
	return k
}
