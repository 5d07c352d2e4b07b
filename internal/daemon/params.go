package daemon

import "repro/pssp"

// Wire-param normalization and the one params→facade-config mapping per job
// kind, shared by the per-kind plans (plan.go) and range runs (shards.go).
// A coordinator plans a job from the same normalized params a worker
// executes a lease from, so the two resolve the same scenario by
// construction. The defaults here are the one home of each job default:
// the CLIs' scenario flags (cliutil's job kinds) take theirs from these, so
// a job that leaves a knob unset runs what the CLI would.

// NormalizeAttackParams applies the attack job's defaults (Seed excepted:
// 0 keeps meaning "derive from the tenant stream" for whole jobs, and is
// rejected by shard jobs).
func NormalizeAttackParams(p AttackParams) AttackParams {
	if p.Target == "" {
		p.Target = "nginx-vuln"
	}
	if p.Scheme == "" {
		p.Scheme = "ssp"
	}
	if p.Budget <= 0 {
		p.Budget = 4096
	}
	if p.Repeats <= 0 {
		p.Repeats = 1
	}
	return p
}

// CampaignConfig maps attack params onto the facade campaign config run
// under seed; Progress is the caller's to attach.
func (p AttackParams) CampaignConfig(seed uint64) pssp.CampaignConfig {
	return pssp.CampaignConfig{
		Strategy:     p.Strategy,
		Replications: p.Repeats,
		Workers:      p.Workers,
		Seed:         seed,
		Attack:       pssp.AttackConfig{MaxTrials: p.Budget},
	}
}

// NormalizeLoadParams applies the loadtest job's defaults.
func NormalizeLoadParams(p LoadParams) LoadParams {
	if p.App == "" {
		p.App = "nginx"
	}
	if p.Scheme == "" {
		p.Scheme = "p-ssp"
	}
	if p.Rate == 0 {
		p.Rate = 10
	}
	if p.Clients == 0 {
		p.Clients = 8
	}
	if p.Requests == 0 && p.DurationCycles == 0 {
		p.Requests = 256
	}
	if p.Budget <= 0 {
		p.Budget = 64
	}
	return p
}

// NormalizeFuzzParams applies the fuzz job's defaults (the engine itself
// defaults execs/shards/max-input).
func NormalizeFuzzParams(p FuzzParams) FuzzParams {
	if p.App == "" {
		p.App = "nginx-vuln"
	}
	if p.Scheme == "" {
		p.Scheme = "ssp"
	}
	return p
}

// FuzzConfig maps fuzz params onto the facade fuzzing config run under
// seed; Label, BaseVirgin and Progress are the caller's to attach.
func (p FuzzParams) FuzzConfig(seed uint64) pssp.FuzzConfig {
	return pssp.FuzzConfig{
		Seeds:    p.Seeds,
		Dict:     p.Dict,
		Execs:    p.Execs,
		Shards:   p.Shards,
		Workers:  p.Workers,
		Seed:     seed,
		MaxInput: p.MaxInput,
	}
}

// ParseArrivals maps the wire arrival-model name ("" defaults to poisson)
// onto the facade kind, as a bad-request on failure.
func ParseArrivals(name string) (pssp.ArrivalKind, error) {
	switch name {
	case "", "poisson":
		return pssp.ArrivalsOpenPoisson, nil
	case "uniform":
		return pssp.ArrivalsOpenUniform, nil
	case "closed":
		return pssp.ArrivalsClosedLoop, nil
	default:
		return 0, badRequest("unknown arrival model %q (want poisson, uniform or closed)", name)
	}
}

// LoadWorkload builds the facade workload scenario from normalized load
// params — the single params→WorkloadConfig mapping, shared so a lease
// executes exactly the scenario the coordinator planned. label "" takes the
// app name (psspload's local behaviour); Progress is the caller's to attach.
func LoadWorkload(p LoadParams, label string, seed uint64) (pssp.WorkloadConfig, error) {
	kind, err := ParseArrivals(p.Arrivals)
	if err != nil {
		return pssp.WorkloadConfig{}, err
	}
	if label == "" {
		label = p.App
	}
	mix := make([]pssp.RequestClass, len(p.Mix))
	for i, c := range p.Mix {
		mix[i] = pssp.RequestClass{Name: c.Name, Weight: c.Weight, Payload: c.Payload, Probe: c.Probe}
	}
	return pssp.WorkloadConfig{
		Label:          label,
		Mix:            mix,
		Arrivals:       kind,
		RatePerMcycle:  p.Rate,
		Clients:        p.Clients,
		ThinkCycles:    p.ThinkCycles,
		Requests:       p.Requests,
		DurationCycles: p.DurationCycles,
		Shards:         p.Shards,
		Workers:        p.Workers,
		Seed:           seed,
		Attack:         pssp.AttackConfig{MaxTrials: p.Budget},
	}, nil
}
