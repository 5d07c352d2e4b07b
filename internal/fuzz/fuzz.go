// Package fuzz is the coverage-guided fuzzing engine of the reproduction:
// an AFL-style mutational fuzzer that runs natively on the simulated
// machine's fork-per-request servers, using the VM's edge-coverage map
// (vm.CovMap) as its novelty signal, and hands discovered crash sites to the
// attack layer — closing the loop the paper leaves open, where the
// stack-buffer overflow's location is assumed known a priori.
//
// Determinism follows the campaign engine's discipline. The work is sharded:
// shard i draws every mutation from rng.NewStream(seed, i), boots its own
// replica victim, and evolves its own corpus and coverage frontier, so a
// shard is a self-contained work unit independent of scheduling. Workers are
// pure concurrency; shard results merge in shard order after the pool
// drains. A fixed seed therefore yields a bit-identical Report — corpus
// hashes, coverage frontier, deduplicated crash set — at any worker count.
// Shards is part of the scenario (it partitions the exec budget and the
// mutation streams), like a campaign's replication count.
//
// Triage deduplicates crashes by (fault PC, fault kind, canary-detected vs
// raw) and minimizes each unique crasher: tail-trimming to the shortest
// still-crashing input, then normalizing bytes to a canonical filler. For
// the paper's overflow victims the minimized input is exactly one byte
// longer than the vulnerable buffer, which is what Finding.OverflowLen
// feeds to the attack bridge (pssp.FindingAttack).
package fuzz

import (
	"context"

	"repro/internal/vm"
)

// Exec reports one execution's outcome from the target's point of view.
type Exec struct {
	// Crashed reports a dead worker; Detected the subset killed by a canary
	// check (the defence observing the overflow) rather than a raw fault.
	Crashed  bool
	Detected bool
	// CrashPC is the faulting RIP (valid when Crashed).
	CrashPC uint64
	// Kind classifies the faulting access ("store fault", "instruction
	// fetch fault", "abort (stack smashing detected)", ...). Triage keys on
	// it together with CrashPC and Detected.
	Kind string
	// Cycles and Insts are the worker's execution cost.
	Cycles, Insts uint64
}

// Executor runs inputs against one shard's private victim. Implementations
// serve each input to a freshly forked worker and return its outcome plus
// the request's edge-coverage map; the map is owned by the executor and only
// valid until the next Execute call. Execute must not retain input after it
// returns: the shard builds every mutant in one buffer it overwrites for the
// next exec. The returned error covers transport
// failures and cancellation only — a crashed worker is an Exec outcome, not
// an error — mirroring the facade's Server.Handle contract.
type Executor interface {
	Execute(ctx context.Context, input []byte) (Exec, *vm.CovMap, error)
}

// Boot builds shard's private victim executor. Like a campaign Runner it
// must derive all shard-varying state (the victim machine's entropy) from
// the shard index, so the shard's behaviour is independent of which worker
// executes it.
type Boot func(ctx context.Context, shard int) (Executor, error)

// Finding is one deduplicated crash: a unique (fault PC, kind, detected)
// site with the input that first reached it and its minimized form.
type Finding struct {
	// Shard is the shard that discovered the crash; Exec its shard-local
	// execution ordinal at discovery (1-based, seed executions included).
	Shard int `json:"shard"`
	Exec  int `json:"exec"`
	// Cycles is the shard's cumulative victim-side cost at discovery — the
	// virtual time-to-discovery companion of Exec.
	Cycles uint64 `json:"cycles"`
	// Input is the discovering input; Minimized the triaged form (shortest
	// still-crashing tail-trim, bytes normalized to the filler where the
	// crash key allows).
	Input     []byte `json:"input"`
	Minimized []byte `json:"minimized"`
	// CrashPC, Kind and Detected are the dedup key: where the worker died,
	// what access killed it, and whether a canary check (rather than a raw
	// fault) did.
	CrashPC  uint64 `json:"crash_pc"`
	Kind     string `json:"kind"`
	Detected bool   `json:"detected"`
}

// OverflowLen is the attack-bridge view of the finding: the longest input
// prefix the victim survives, i.e. len(Minimized)-1. For a stack-buffer
// overflow caught by a canary this is exactly the distance from the buffer
// start to the canary — the BufLen an attack.Config needs.
func (f Finding) OverflowLen() int {
	if len(f.Minimized) == 0 {
		return 0
	}
	return len(f.Minimized) - 1
}

// key is the triage identity of a crash.
type crashKey struct {
	pc       uint64
	kind     string
	detected bool
}

func (f Finding) key() crashKey {
	return crashKey{pc: f.CrashPC, kind: f.Kind, detected: f.Detected}
}

// Report is a fuzzing run's deterministic aggregate. Every field is a
// function of (seed, config) alone — computed from per-shard results merged
// in shard order — so for a fixed seed the report is bit-identical at any
// worker count.
type Report struct {
	// Label names the run; Shards echoes the shard count.
	Label  string `json:"label"`
	Shards int    `json:"shards"`
	// Execs counts every execution (seed runs, mutations, and minimization
	// probes); MutationExecs only the budgeted mutation phase.
	Execs         int `json:"execs"`
	MutationExecs int `json:"mutation_execs"`
	// Crashes counts crashing executions in the seed+mutation phases (not
	// minimization probes); Findings is the deduplicated crash set.
	Crashes  int       `json:"crashes"`
	Findings []Finding `json:"findings"`
	// ExecsToFirstCrash is the smallest shard-local exec ordinal at which
	// any finding was discovered (0 when none): the paper-style
	// execs-to-discovery metric under equal shard budgets.
	ExecsToFirstCrash int `json:"execs_to_first_crash"`
	// Edges counts distinct covered edge buckets across all shards;
	// CoverageHash fingerprints the merged bucketed frontier.
	Edges        int    `json:"edges"`
	CoverageHash uint64 `json:"coverage_hash"`
	// CorpusSize counts admitted corpus entries across shards; CorpusHashes
	// fingerprints each entry, in shard-merge order.
	CorpusSize   int      `json:"corpus_size"`
	CorpusHashes []uint64 `json:"corpus_hashes"`
	// Cycles and Insts total the victim-side execution cost.
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts"`

	// corpus holds the admitted inputs in shard-merge order and cov the
	// merged bucketed frontier in sparse form — the persistence payload
	// behind CorpusInputs/Frontier. Unexported so the report's JSON shape
	// (and thus the fixed-seed byte-identity contract) is independent of
	// persistence.
	corpus [][]byte
	cov    Cells
}

// CorpusInputs returns the admitted corpus inputs in shard-merge order —
// what a persistent corpus directory stores between runs. Callers must not
// mutate the returned inputs.
func (r *Report) CorpusInputs() [][]byte { return r.corpus }

// Frontier returns the merged bucketed coverage map, dense (vm.CovMapSize
// bytes, built on each call) — feed it back as Config.BaseVirgin to resume
// from this run's coverage instead of rediscovering it.
func (r *Report) Frontier() []byte { return r.cov.Dense() }

// hash64 is FNV-1a over b — the corpus/coverage fingerprint primitive.
func hash64(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}
