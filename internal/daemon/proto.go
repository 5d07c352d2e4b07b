// Package daemon implements psspd, the long-running multi-tenant serving
// front end of the simulation stack: compile/boot/attack/loadtest/fuzz jobs
// submitted over a newline-delimited JSON-RPC connection, executed on
// cached compiled images (boot jobs on a warm pool of parked fork-server
// machines), under per-tenant admission control and deterministic seed
// derivation.
//
// The protocol is one JSON object per line in both directions. A client
// sends Request lines; the daemon answers each with zero or more Event
// lines (streamed progress) followed by exactly one terminal Response line
// carrying the request's id. Requests on one connection run concurrently;
// lines from concurrent jobs interleave, which is why every line carries
// the id.
//
// Determinism contract: a job that names an explicit seed is byte-identical
// to the equivalent CLI invocation with that seed — the daemon builds the
// same machines from the same configuration. A job with seed 0 draws a
// derived seed rng.Mix(tenantSeed, jobID) from its tenant's stream, which
// is unique per job (and therefore not client-reproducible; name a seed
// when reproducibility matters).
package daemon

import (
	"encoding/json"

	"repro/pssp"
)

// Request is one client→daemon line.
type Request struct {
	// ID correlates the response (and streamed events) with the request.
	// Client-chosen, unique per connection.
	ID uint64 `json:"id"`
	// Method names the operation: ping, stats, metrics, cancel, submit,
	// status, aggregate, compile, boot, attack, loadtest, fuzz, and the
	// shard methods campaignshard, loadshard, fuzzshard.
	Method string `json:"method"`
	// Tenant names the caller for admission control and seed derivation
	// (empty = "default").
	Tenant string `json:"tenant,omitempty"`
	// Params carries the method's parameter object.
	Params json.RawMessage `json:"params,omitempty"`
}

// Response is one daemon→client line: a streamed event when Event is
// non-empty, the request's terminal reply otherwise.
type Response struct {
	ID uint64 `json:"id"`
	// Event marks a non-terminal stream line ("progress"); the terminal
	// response leaves it empty.
	Event string `json:"event,omitempty"`
	// Result is the method's result object (terminal, success).
	Result json.RawMessage `json:"result,omitempty"`
	// Error reports failure (terminal); exactly one of Result/Error is set
	// on a terminal line.
	Error *Error `json:"error,omitempty"`
}

// Error codes, stable across releases: clients dispatch on Code, never on
// Message.
const (
	// CodeBadRequest: malformed request or parameters.
	CodeBadRequest = "bad-request"
	// CodeQuota: the tenant exhausted its resource quota.
	CodeQuota = "quota"
	// CodeBusy: admission queue full — back off and retry.
	CodeBusy = "busy"
	// CodeCanceled: the job was canceled before producing a report.
	CodeCanceled = "canceled"
	// CodeShutdown: the daemon is shutting down.
	CodeShutdown = "shutdown"
	// CodeInternal: the job failed.
	CodeInternal = "internal"
)

// Error is the wire error: a stable code plus a human-readable message.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *Error) Error() string { return "daemon: " + e.Code + ": " + e.Message }

// AttackParams mirror psspattack's flags; zero values take the same
// defaults the CLI flags declare, except Seed where 0 means "derive from
// the tenant stream".
type AttackParams struct {
	Target   string `json:"target,omitempty"`
	Scheme   string `json:"scheme,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Budget   int    `json:"budget,omitempty"`
	Repeats  int    `json:"repeats,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
}

// LoadClass is one traffic-mix class of a loadtest job (see
// pssp.RequestClass).
type LoadClass struct {
	Name    string `json:"name,omitempty"`
	Weight  int    `json:"weight,omitempty"`
	Payload []byte `json:"payload,omitempty"`
	Probe   string `json:"probe,omitempty"`
}

// LoadParams mirror psspload's flags. A non-empty Sweep runs a load sweep
// (result: pssp.LoadSweepReport) instead of a single workload (result:
// pssp.LoadReport).
type LoadParams struct {
	App            string      `json:"app,omitempty"`
	Scheme         string      `json:"scheme,omitempty"`
	Mix            []LoadClass `json:"mix,omitempty"`
	Arrivals       string      `json:"arrivals,omitempty"`
	Rate           float64     `json:"rate,omitempty"`
	Clients        int         `json:"clients,omitempty"`
	ThinkCycles    float64     `json:"think_cycles,omitempty"`
	Requests       int         `json:"requests,omitempty"`
	DurationCycles uint64      `json:"duration_cycles,omitempty"`
	Shards         int         `json:"shards,omitempty"`
	Workers        int         `json:"workers,omitempty"`
	Budget         int         `json:"budget,omitempty"`
	Sweep          []float64   `json:"sweep,omitempty"`
	Seed           uint64      `json:"seed,omitempty"`
}

// FuzzParams mirror psspfuzz's flags.
type FuzzParams struct {
	App      string   `json:"app,omitempty"`
	Scheme   string   `json:"scheme,omitempty"`
	Seeds    [][]byte `json:"seeds,omitempty"`
	Dict     [][]byte `json:"dict,omitempty"`
	Execs    int      `json:"execs,omitempty"`
	Shards   int      `json:"shards,omitempty"`
	Workers  int      `json:"workers,omitempty"`
	MaxInput int      `json:"max_input,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	// CorpusDir names a persistent corpus directory on the host that runs
	// the job's ranges: its saved inputs seed the run, its frontier marks
	// their coverage charted, and every range folds its discoveries back
	// in.
	CorpusDir string `json:"corpus_dir,omitempty"`
	// UntilStall > 0 runs the job in continuous mode: exec-bounded rounds
	// until the coverage frontier's hash is unchanged for this many
	// consecutive rounds (see RunFuzz). Whole fuzz jobs only.
	UntilStall int `json:"until_stall,omitempty"`
}

// RegisterParams is the first line a fabric worker sends after dialing a
// coordinator (`psspd -worker -join`): it flips the connection's roles, so
// the coordinator thereafter issues shard-lease requests against the
// worker.
type RegisterParams struct {
	// Name identifies the worker in coordinator stats (default: pid-based).
	Name string `json:"name,omitempty"`
	// Pid is the worker process id, for operator correlation.
	Pid int `json:"pid,omitempty"`
}

// RegisterResult acks a worker registration.
type RegisterResult struct {
	OK bool `json:"ok"`
	// Name echoes the name the coordinator registered the worker under.
	Name string `json:"name"`
}

// CampaignShardParams run replications [Lo, Hi) of the attack campaign the
// embedded AttackParams describe. Seed must be explicit and non-zero:
// derived seeds would differ when a lost lease is re-issued, breaking the
// fabric's bit-identical merge.
type CampaignShardParams struct {
	AttackParams
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// CampaignShardResult carries the shard range's wire partial back to the
// coordinator for ordered merging.
type CampaignShardResult struct {
	Partial *pssp.CampaignPartial `json:"partial"`
	// Canceled marks a range cut short by cancellation; the partial holds
	// the work done before the cut.
	Canceled bool `json:"canceled,omitempty"`
}

// LoadShardParams run workload shards [Lo, Hi) of the scenario the embedded
// LoadParams describe (Sweep must be empty — the coordinator scales and
// leases each sweep point itself). Seed must be explicit and non-zero.
type LoadShardParams struct {
	LoadParams
	// Label overrides the scenario label (sweep points re-label the base
	// scenario, e.g. "nginx x1.5").
	Label string `json:"label,omitempty"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
}

// LoadShardResult carries the shard range's wire partials back to the
// coordinator for ordered merging.
type LoadShardResult struct {
	Partials []*pssp.LoadPartial `json:"partials"`
	// Canceled marks a range cut short by cancellation, as on
	// CampaignShardResult.
	Canceled bool `json:"canceled,omitempty"`
}

// FuzzShardParams run fuzzing shards [Lo, Hi) of the campaign the embedded
// FuzzParams describe. Seed must be explicit and non-zero, and UntilStall
// zero: a range is one round. BaseVirgin, when set, seeds every shard's
// coverage frontier with the round's merged frontier (the frontier-sync
// path), in the sparse form a partial's coverage takes; the worker expands
// it once per range. The embedded CorpusDir, when set, names a shared
// persistent corpus the worker flock-merges the range's findings into.
type FuzzShardParams struct {
	FuzzParams
	Label      string         `json:"label,omitempty"`
	Lo         int            `json:"lo"`
	Hi         int            `json:"hi"`
	BaseVirgin pssp.FuzzCells `json:"base_virgin,omitempty"`
}

// FuzzShardResult carries the shard range's wire partials back to the
// coordinator for ordered merging.
type FuzzShardResult struct {
	Partials []*pssp.FuzzPartial `json:"partials"`
	// CorpusAdded counts inputs newly written to the shared corpus
	// (CorpusDir set only).
	CorpusAdded int `json:"corpus_added,omitempty"`
	// Canceled marks a range cut short by cancellation, as on
	// CampaignShardResult.
	Canceled bool `json:"canceled,omitempty"`
}

// CompileParams name an image to compile into the daemon's cache.
type CompileParams struct {
	App    string `json:"app,omitempty"`
	Scheme string `json:"scheme,omitempty"`
}

// CompileResult reports a compile job.
type CompileResult struct {
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	// Cached is true when the image was already in the daemon's cache.
	Cached bool `json:"cached"`
}

// BootParams name a (app, scheme, seed) machine to park in the warm pool.
type BootParams struct {
	App    string `json:"app,omitempty"`
	Scheme string `json:"scheme,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
}

// BootResult reports a boot job.
type BootResult struct {
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	Seed   uint64 `json:"seed"`
	// FootprintBytes is the parked parent's mapped memory (Table IV's
	// worker baseline).
	FootprintBytes int `json:"footprint_bytes"`
}

// CancelParams name the job to cancel: a request in flight on the same
// connection by its request ID, or a submitted job by its Job id.
type CancelParams struct {
	ID  uint64 `json:"id,omitempty"`
	Job uint64 `json:"job,omitempty"`
}

// CancelResult reports whether the named job was found still running.
type CancelResult struct {
	Canceled bool `json:"canceled"`
}

// SubmitParams start a job detached from the connection: the request a
// client would otherwise send as Method with Params. The job runs after the
// submitting connection closes; status, aggregate and cancel name it by the
// id SubmitResult returns.
type SubmitParams struct {
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

// SubmitResult returns a submitted job's id — its flight-recorder trace id.
type SubmitResult struct {
	ID uint64 `json:"id"`
}

// JobStatus is one submitted job's row in status output.
type JobStatus struct {
	ID uint64 `json:"id"`
	// Kind is the job's method.
	Kind string `json:"kind"`
	// State is "running", "done", "failed", or "canceled".
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// StatusParams select submitted jobs; ID 0 lists all.
type StatusParams struct {
	ID uint64 `json:"id,omitempty"`
}

// StatusResult lists submitted jobs, ordered by id.
type StatusResult struct {
	Jobs []JobStatus `json:"jobs"`
}

// AggregateParams name the finished submitted job whose result to fetch.
type AggregateParams struct {
	ID uint64 `json:"id"`
}

// ProgressEvent is the payload of "progress" Event lines: exactly one of
// the per-engine tallies is set, matching the job kind.
type ProgressEvent struct {
	Kind     string                 `json:"kind"` // attack | loadtest | fuzz
	Campaign *pssp.CampaignProgress `json:"campaign,omitempty"`
	Load     *pssp.LoadProgress     `json:"load,omitempty"`
	Fuzz     *pssp.FuzzProgress     `json:"fuzz,omitempty"`
}

// AttackReport is the attack job's result — the exact shape psspattack
// and psspctl attack emit with -json, shared so the two cannot drift
// (the e2e determinism contract is byte-identical JSON for a fixed seed).
type AttackReport struct {
	Target          string  `json:"target"`
	Scheme          string  `json:"scheme"`
	Strategy        string  `json:"strategy"`
	Seed            uint64  `json:"seed"`
	Budget          int     `json:"budget"`
	Replications    int     `json:"replications"`
	Workers         int     `json:"workers"`
	Completed       int     `json:"completed"`
	Successes       int     `json:"successes"`
	Verified        int     `json:"verified_successes"`
	SuccessRate     float64 `json:"success_rate"`
	Trials          int     `json:"trials"`
	OracleCalls     int     `json:"oracle_calls"`
	OracleErrors    int     `json:"oracle_errors"`
	OracleError     string  `json:"oracle_error,omitempty"`
	Detections      int     `json:"detections"`
	DetectRate      float64 `json:"detection_rate"`
	Cycles          uint64  `json:"victim_cycles"`
	TrialsToSuccess struct {
		N      int     `json:"n"`
		Min    float64 `json:"min"`
		Median float64 `json:"median"`
		P95    float64 `json:"p95"`
		Max    float64 `json:"max"`
	} `json:"trials_to_success"`
	Outcomes []AttackOutcome `json:"outcomes"`
	// Canceled marks a partial report: the job was canceled mid-campaign
	// and the aggregate covers only the completed replications.
	Canceled bool `json:"canceled,omitempty"`
}

// AttackOutcome is one replication's slice of an AttackReport.
type AttackOutcome struct {
	Rep      int  `json:"rep"`
	Success  bool `json:"success"`
	Verified bool `json:"verified,omitempty"`
	Trials   int  `json:"trials"`
	FailedAt int  `json:"failed_at"`
	Restarts int  `json:"restarts,omitempty"`
}

// BuildAttackReport folds a campaign aggregate into the report shape. The
// attack plan's merge calls it for daemon jobs (every psspattack run, local
// or -remote) and fabric jobs alike, which is what makes their -json output
// byte-identical for a fixed seed.
func BuildAttackReport(target string, scheme pssp.Scheme, seed uint64, budget, repeats, workers int, res *pssp.CampaignResult) AttackReport {
	rep := AttackReport{
		Target: target, Scheme: scheme.String(), Strategy: res.Label,
		Seed: seed, Budget: budget,
		Replications: repeats, Workers: workers,
		Completed: res.Completed, Successes: res.Successes,
		Verified:    res.VerifiedSuccesses,
		SuccessRate: res.SuccessRate(),
		Trials:      res.Trials, OracleCalls: res.OracleCalls,
		OracleErrors: res.OracleErrors,
		Detections:   res.Detections, DetectRate: res.DetectionRate(),
		Cycles: res.Cycles,
	}
	if res.OracleErr != nil {
		rep.OracleError = res.OracleErr.Error()
	}
	rep.TrialsToSuccess.N = res.TrialsToSuccess.N
	rep.TrialsToSuccess.Min = res.TrialsToSuccess.Min
	rep.TrialsToSuccess.Median = res.TrialsToSuccess.Median
	rep.TrialsToSuccess.P95 = res.TrialsToSuccess.P95
	rep.TrialsToSuccess.Max = res.TrialsToSuccess.Max
	for _, out := range res.Outcomes {
		rep.Outcomes = append(rep.Outcomes, AttackOutcome{
			Rep: out.Rep, Success: out.Success, Verified: out.Verified, Trials: out.Trials,
			FailedAt: out.FailedAt, Restarts: out.Restarts,
		})
	}
	return rep
}

// FuzzResult is the fuzz job's result — psspfuzz's and psspctl's -json
// shape, shared for the same no-drift reason as AttackReport.
type FuzzResult struct {
	*pssp.FuzzReport
	// TimedOut marks a wall-clock-boxed partial report (psspfuzz
	// -duration).
	TimedOut bool `json:"timed_out,omitempty"`
	// Canceled marks a report truncated by job cancellation.
	Canceled bool `json:"canceled,omitempty"`
	// UntilStall summarizes a continuous run's convergence (FuzzParams
	// UntilStall > 0).
	UntilStall *pssp.FuzzStallSummary `json:"until_stall,omitempty"`
}

// LoadResult is the loadtest job's result: the report (or sweep report),
// with a cancellation marker.
type LoadResult struct {
	Report *pssp.LoadReport      `json:"report,omitempty"`
	Sweep  *pssp.LoadSweepReport `json:"sweep,omitempty"`
	// Canceled marks a report truncated by job cancellation.
	Canceled bool `json:"canceled,omitempty"`
}

// Stats is the daemon's observability snapshot.
type Stats struct {
	// UptimeSeconds since the daemon started serving.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Running and Queued are the jobs in flight and waiting for a slot;
	// Completed/Failed/Canceled count finished jobs.
	Running   int    `json:"running"`
	Queued    int    `json:"queued"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
	// Pool reports warm-pool occupancy and effectiveness.
	Pool PoolStats `json:"pool"`
	// Tenants lists per-tenant usage, ordered by name.
	Tenants []TenantStats `json:"tenants"`
	// FrontierEdges is the merged coverage-frontier size of the latest
	// whole fuzz job's latest round (0 before any).
	FrontierEdges int `json:"frontier_edges,omitempty"`
	// Jobs lists the submitted jobs, ordered by id.
	Jobs []JobStatus `json:"jobs,omitempty"`
	// Fabric is the range runner's snapshot (fabric coordinators only).
	Fabric FabricStats `json:"fabric,omitzero"`
}

// FabricStats is a fabric coordinator's worker table and lease counters.
type FabricStats struct {
	Workers []WorkerStats `json:"workers"`
	// LeasesIssued counts every lease dispatch; LeasesReassigned the
	// subset re-issued after worker loss or backpressure.
	LeasesIssued     uint64 `json:"leases_issued"`
	LeasesReassigned uint64 `json:"leases_reassigned"`
}

// WorkerStats is one fabric worker's row in FabricStats.
type WorkerStats struct {
	Name  string `json:"name"`
	Alive bool   `json:"alive"`
	Busy  bool   `json:"busy"`
	// Leases and ShardsDone count completed leases and the shards they
	// covered.
	Leases     int `json:"leases"`
	ShardsDone int `json:"shards_done"`
	// ShardsPerSec is shard throughput over the worker's busy wall-clock
	// time (observability only — wall time never enters reports).
	ShardsPerSec float64 `json:"shards_per_sec,omitempty"`
}

// PoolStats reports the warm machine pool.
type PoolStats struct {
	// Entries is the number of parked machines; Capacity the LRU bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Images is the number of compiled images cached.
	Images int `json:"images"`
	// Hits/Misses count checkouts served warm vs built cold; Evictions
	// counts LRU teardowns, Respawns health-check replacements of crashed
	// or dirty entries.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Respawns  uint64 `json:"respawns"`
	// StoreHits/StoreMisses count artifact-store lookups behind the image
	// cache (zero when no store is attached). They split a cold pool miss
	// that recompiled from one the store served: a pool miss with a store
	// hit skipped the compiler entirely.
	StoreHits   uint64 `json:"store_hits"`
	StoreMisses uint64 `json:"store_misses"`
}

// TenantStats reports one tenant's usage.
type TenantStats struct {
	Name string `json:"name"`
	// Running is the tenant's jobs in flight; Jobs its total admitted.
	Running int    `json:"running"`
	Jobs    uint64 `json:"jobs"`
	// CyclesUsed is the victim-cycle cost charged so far, against
	// CyclesQuota (0 = unlimited).
	CyclesUsed  uint64 `json:"cycles_used"`
	CyclesQuota uint64 `json:"cycles_quota,omitempty"`
}
