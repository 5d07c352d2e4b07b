package fuzz

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/rng"
	"repro/internal/vm"
	"repro/internal/workpool"
)

// Config sizes a fuzzing run.
type Config struct {
	// Label names the run in its Report.
	Label string
	// Seeds is the initial corpus (at least one input).
	Seeds [][]byte
	// Dict is an optional dictionary of tokens the mutation engine splices
	// into inputs.
	Dict [][]byte
	// Execs is the total mutation budget, partitioned across shards
	// (default 4096). Seed executions and minimization probes run on top of
	// it and are reported separately.
	Execs int
	// Shards is the number of self-contained fuzzing shards (default 4).
	// Part of the scenario: it fixes the budget partition and the mutation
	// streams, like a campaign's replication count.
	Shards int
	// Workers bounds how many shards run concurrently (default GOMAXPROCS,
	// clamped to Shards). Wall-clock only — never results.
	Workers int
	// Seed drives all randomness: shard i mutates from
	// rng.NewStream(Seed, i).
	Seed uint64
	// MaxInput caps generated input length in bytes (default 1024).
	MaxInput int
	// MinimizeBudget bounds the extra executions triage spends minimizing
	// each unique crash (default 96).
	MinimizeBudget int
	// BaseVirgin, when exactly vm.CovMapSize bytes, seeds every shard's
	// coverage frontier — the resume path for a persistent corpus: edges a
	// previous run already charted are not "new", so the budget goes to the
	// frontier instead of rediscovery. Part of the scenario: it changes
	// corpus admission and the report. Other lengths are ignored.
	BaseVirgin []byte
	// Progress, when non-nil, receives a running tally roughly every
	// ProgressEvery executions and at every shard completion, serialized by
	// the engine. It observes wall-clock order, so the snapshot sequence
	// varies with scheduling — only the final Report is deterministic. The
	// nil path costs one pointer check per execution.
	Progress func(Progress)
	// ProgressEvery is the number of executions between Progress calls
	// (default 256).
	ProgressEvery int
}

// Progress is a fuzzing run's running tally, cumulative over the executions
// performed so far in wall-clock order.
type Progress struct {
	// ShardsDone counts shards that finished, out of Shards.
	ShardsDone, Shards int
	// Execs counts every execution so far; Crashes the crashing subset
	// (crash-minimization probes included, so it can exceed the final
	// report's main-loop tally); Findings the unique crash sites found
	// (per shard, before cross-shard dedup).
	Execs, Crashes, Findings int
	// Edges sums each shard's newly-covered edge buckets — the coverage
	// frontier's growth signal. Shards chart frontiers independently, so
	// this running figure can exceed the final report's deduplicated count.
	Edges int
	// CorpusSize counts inputs admitted across shards so far.
	CorpusSize int
}

// Normalize resolves the run's defaults and clamps (shards to execs,
// workers to shards, ...) and validates it — exactly what Run does
// internally. The distributed fabric normalizes once on the coordinator so
// every worker leases shards of the same final scenario. Idempotent.
func (c Config) Normalize() (Config, error) {
	if len(c.Seeds) == 0 {
		return c, errors.New("fuzz: empty seed corpus")
	}
	for i, s := range c.Seeds {
		if len(s) == 0 {
			return c, fmt.Errorf("fuzz: empty seed input %d", i)
		}
	}
	if c.Execs <= 0 {
		c.Execs = 4096
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Shards > c.Execs {
		c.Shards = c.Execs
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if c.MaxInput <= 0 {
		c.MaxInput = 1024
	}
	if c.MinimizeBudget <= 0 {
		c.MinimizeBudget = 96
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 256
	}
	return c, nil
}

// bucket classifies a hit count into AFL's power-of-two bucket bit, so "ran
// this edge 3 times" and "ran it 30 times" count as different coverage but
// 30 and 31 do not.
func bucket(n byte) byte {
	switch {
	case n == 0:
		return 0
	case n == 1:
		return 1
	case n == 2:
		return 2
	case n == 3:
		return 4
	case n <= 7:
		return 8
	case n <= 15:
		return 16
	case n <= 31:
		return 32
	case n <= 127:
		return 64
	default:
		return 128
	}
}

// mergeCov folds one execution's edge map into the shard's bucketed frontier
// and reports how many new bucket bits it contributed — the corpus-admission
// novelty signal. It visits only the buckets the execution touched.
func mergeCov(virgin []byte, cov *vm.CovMap) int {
	raw := cov.Bytes()
	news := 0
	for _, i := range cov.Touched() {
		if b := bucket(raw[i]); virgin[i]&b == 0 {
			virgin[i] |= b
			news++
		}
	}
	return news
}

// minFiller is the canonical byte minimization rewrites inputs toward —
// the attack layer's default buffer filler.
const minFiller = 'A'

// runShard fuzzes one shard to its budget. The returned partial is valid
// even on error (up to the failure). The shard charts its frontier in a
// dense map — the per-exec novelty check is one byte per touched cell — and
// the partial carries its sparse form, taken once when the shard ends.
func runShard(ctx context.Context, cfg Config, shard int, ex Executor, mt *workpool.Meter[Progress]) (st *Partial, err error) {
	r := rng.NewStream(cfg.Seed, uint64(shard))
	mut := &mutator{r: r, dict: cfg.Dict, max: cfg.MaxInput}
	st = &Partial{Shard: shard}
	virgin := make([]byte, vm.CovMapSize)
	if len(cfg.BaseVirgin) == vm.CovMapSize {
		copy(virgin, cfg.BaseVirgin)
	}
	defer func() { st.Virgin = CellsOf(virgin) }()
	seen := make(map[crashKey]bool)

	budget := workpool.Share(cfg.Execs, shard, cfg.Shards)
	if budget == 0 {
		return st, nil
	}

	execute := func(input []byte) (Exec, *vm.CovMap, error) {
		out, cov, err := ex.Execute(ctx, input)
		if err != nil {
			return Exec{}, nil, err
		}
		st.Execs++
		st.Cycles += out.Cycles
		st.Insts += out.Insts
		// Minimization probes count here too: they are real victim
		// executions.
		mt.Tick(func(p *Progress) {
			p.Execs++
			if out.Crashed {
				p.Crashes++
			}
		})
		return out, cov, nil
	}

	// crashesAs re-executes cand and reports whether it dies with the same
	// triage key — the minimization predicate.
	crashesAs := func(cand []byte, k crashKey) (bool, error) {
		out, _, err := execute(cand)
		if err != nil {
			return false, err
		}
		return out.Crashed && (Finding{CrashPC: out.CrashPC, Kind: out.Kind, Detected: out.Detected}).key() == k, nil
	}

	// minimize tail-trims input to the shortest form that still crashes
	// with key k, then normalizes bytes to the canonical filler where the
	// crash is preserved, spending at most cfg.MinimizeBudget executions.
	minimize := func(input []byte, k crashKey) ([]byte, error) {
		cur := append([]byte(nil), input...)
		left := cfg.MinimizeBudget
		for step := len(cur) / 2; step > 0 && left > 0; {
			if step >= len(cur) {
				step = len(cur) - 1
				if step == 0 {
					break
				}
			}
			cand := cur[:len(cur)-step]
			left--
			same, err := crashesAs(cand, k)
			if err != nil {
				return cur, err
			}
			if same {
				cur = cand
			} else {
				step /= 2
			}
		}
		for i := 0; i < len(cur) && left > 0; i++ {
			if cur[i] == minFiller {
				continue
			}
			old := cur[i]
			cur[i] = minFiller
			left--
			same, err := crashesAs(cur, k)
			if err != nil {
				cur[i] = old
				return cur, err
			}
			if !same {
				cur[i] = old
			}
		}
		return cur, nil
	}

	// triage records a crashing execution: dedupe by key, then minimize the
	// first input that reached each unique site. Only that input is copied:
	// input may be the mutator's buffer.
	triage := func(input []byte, out Exec) error {
		st.Crashes++
		k := crashKey{pc: out.CrashPC, kind: out.Kind, detected: out.Detected}
		if seen[k] {
			return nil
		}
		seen[k] = true
		f := Finding{
			Shard:    shard,
			Exec:     st.Execs,
			Cycles:   st.Cycles,
			Input:    append([]byte(nil), input...),
			CrashPC:  out.CrashPC,
			Kind:     out.Kind,
			Detected: out.Detected,
		}
		mt.Add(func(p *Progress) { p.Findings++ })
		min, err := minimize(f.Input, k)
		f.Minimized = min
		st.Findings = append(st.Findings, f)
		return err
	}

	// Seed phase: every seed is executed to chart the frontier; surviving
	// seeds join the corpus unconditionally (they are the mutation bases),
	// crashing seeds go straight to triage.
	for _, s := range cfg.Seeds {
		out, cov, err := execute(s)
		if err != nil {
			return st, err
		}
		news := mergeCov(virgin, cov)
		mt.Add(func(p *Progress) { p.Edges += news })
		if out.Crashed {
			if err := triage(s, out); err != nil {
				return st, err
			}
			continue
		}
		st.Corpus = append(st.Corpus, append([]byte(nil), s...))
		mt.Add(func(p *Progress) { p.CorpusSize++ })
	}

	// Mutation phase: pick a parent, mutate, execute; coverage novelty
	// admits survivors to the corpus (a copy: the mutant lives in the
	// mutator's buffer), crashes go to triage.
	for ; st.MutationExecs < budget; st.MutationExecs++ {
		var parent []byte
		if len(st.Corpus) > 0 {
			parent = st.Corpus[r.Intn(len(st.Corpus))]
		} else {
			parent = cfg.Seeds[r.Intn(len(cfg.Seeds))]
		}
		input := mut.mutate(parent, st.Corpus)
		out, cov, err := execute(input)
		if err != nil {
			return st, err
		}
		news := mergeCov(virgin, cov)
		mt.Add(func(p *Progress) { p.Edges += news })
		if out.Crashed {
			if err := triage(input, out); err != nil {
				return st, err
			}
			continue
		}
		if news > 0 {
			st.Corpus = append(st.Corpus, append([]byte(nil), input...))
			mt.Add(func(p *Progress) { p.CorpusSize++ })
		}
	}
	return st, nil
}

// Run executes the fuzzing campaign: cfg.Shards self-contained shards, each
// against its own boot'ed victim, executed by cfg.Workers goroutines and
// merged in shard order — RunShards over every shard, then MergePartials.
// For a fixed seed the Report is bit-identical at any worker count.
//
// On cancellation Run returns the partial report of the work done so far
// together with ctx.Err(). Any transport/boot error aborts the run and is
// returned with the partial report.
func Run(ctx context.Context, cfg Config, boot Boot) (*Report, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	parts, runErr := RunShards(ctx, cfg, boot, 0, cfg.Shards)
	rep, err := MergePartials(cfg, parts)
	if err != nil {
		return nil, err
	}
	return rep, runErr
}

// Partial is one shard's complete result: the state runShard fills, and,
// unchanged, the unit a fabric worker ships back, so a distributed merge
// folds exactly what a local one does. Virgin is the shard's bucketed
// coverage frontier (base frontier included) as Cells: only the cells the
// shard set, about 140 of the map's 64 Ki for nginx-vuln.
type Partial struct {
	Shard         int       `json:"shard"`
	Execs         int       `json:"execs"`
	MutationExecs int       `json:"mutation_execs"`
	Crashes       int       `json:"crashes"`
	Cycles        uint64    `json:"cycles"`
	Insts         uint64    `json:"insts"`
	Corpus        [][]byte  `json:"corpus,omitempty"`
	Virgin        Cells     `json:"virgin,omitempty"`
	Findings      []Finding `json:"findings,omitempty"`
}

// ErrMalformedPartial rejects a partial whose shape does not fit the run it
// is merged into (a worker's partial crosses a trust boundary): its Virgin
// breaks the Cells codec. A dense 64 KiB map from an older worker is one
// such partial, never empty coverage.
var ErrMalformedPartial = errors.New("fuzz: malformed partial")

// RunShards executes only shards [lo, hi) of the fuzzing campaign and
// returns their partials in shard order. cfg must be the full (ideally
// pre-Normalized) scenario — shard indices keep their global meaning, so
// rng streams and budget shares are identical to the single-process run.
// On error the partials of the completed and interrupted shards come back
// with it.
func RunShards(ctx context.Context, cfg Config, boot Boot, lo, hi int) ([]*Partial, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > cfg.Shards || lo >= hi {
		return nil, fmt.Errorf("fuzz: shard range [%d,%d) outside shards [0,%d)", lo, hi, cfg.Shards)
	}
	slots := make([]*Partial, hi-lo)
	mt := workpool.NewMeter(cfg.Progress, cfg.ProgressEvery, Progress{Shards: cfg.Shards})
	// Cancellation and fatal-error semantics live in workpool; a shard
	// stores its (possibly partial) result before reporting any error, so
	// an interrupted range still merges the work done so far.
	poolErr := workpool.RunRange(ctx, lo, hi, min(cfg.Workers, hi-lo), func(ctx context.Context, shard int) error {
		ex, err := boot(ctx, shard)
		if err != nil {
			return fmt.Errorf("fuzz: boot shard %d: %w", shard, err)
		}
		st, err := runShard(ctx, cfg, shard, ex, mt)
		slots[shard-lo] = st
		if err == nil {
			mt.Flush(func(p *Progress) { p.ShardsDone++ })
		}
		return err
	})
	parts := slots[:0]
	for _, st := range slots {
		if st != nil {
			parts = append(parts, st)
		}
	}
	return parts, poolErr
}

// MergePartials folds partials into the report Run would have produced for
// the same cfg. Partials may arrive in any order and may repeat a shard (a
// reassigned lease): slots are keyed by shard index, so a duplicate
// overwrites with identical data. Missing shards merge like a cancelled
// run's; a partial whose Virgin fails Cells.Check fails with
// ErrMalformedPartial.
func MergePartials(cfg Config, parts []*Partial) (*Report, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	slots := make([]*Partial, cfg.Shards)
	for _, p := range parts {
		if p == nil || p.Shard < 0 || p.Shard >= cfg.Shards {
			continue
		}
		if err := p.Virgin.Check(); err != nil {
			return nil, fmt.Errorf("%w: shard %d: %w", ErrMalformedPartial, p.Shard, err)
		}
		slots[p.Shard] = p
	}
	return merge(cfg, slots), nil
}

// merge folds per-shard partials (in shard order) into the final report,
// deduplicating findings across shards by triage key. The frontier is the
// sorted union of the partials' cells: Edges is its length and
// CoverageHash the hash of its dense map, both without touching 64 KiB.
func merge(cfg Config, slots []*Partial) *Report {
	rep := &Report{Label: cfg.Label, Shards: cfg.Shards}
	room := 0
	for _, st := range slots {
		if st != nil {
			room += len(st.Virgin)
		}
	}
	cov, next := make(Cells, 0, room), make(Cells, 0, room)
	seen := make(map[crashKey]bool)
	for _, st := range slots {
		if st == nil {
			continue
		}
		rep.Execs += st.Execs
		rep.MutationExecs += st.MutationExecs
		rep.Crashes += st.Crashes
		rep.Cycles += st.Cycles
		rep.Insts += st.Insts
		cov, next = union(next, cov, st.Virgin), cov
		for _, in := range st.Corpus {
			rep.CorpusHashes = append(rep.CorpusHashes, hash64(in))
			rep.corpus = append(rep.corpus, in)
		}
		for _, f := range st.Findings {
			if k := f.key(); !seen[k] {
				seen[k] = true
				rep.Findings = append(rep.Findings, f)
			}
			if rep.ExecsToFirstCrash == 0 || f.Exec < rep.ExecsToFirstCrash {
				rep.ExecsToFirstCrash = f.Exec
			}
		}
	}
	rep.CorpusSize = len(rep.CorpusHashes)
	rep.Edges = cov.Len()
	rep.CoverageHash = cov.hash()
	rep.cov = cov
	return rep
}
