package cliutil

import (
	"fmt"
	"time"

	"repro/internal/daemon"
	"repro/pssp"
)

// The one human renderer per job kind. Each kind's Job.Run prints its text
// output through these, for its own CLI and for psspctl alike; -json
// output bypasses them.

// PrintAttack renders an attack report.
func PrintAttack(rep daemon.AttackReport) {
	if rep.Canceled {
		fmt.Printf("CANCELED after %d/%d replications; partial aggregate follows\n",
			rep.Completed, rep.Replications)
	}
	if rep.Successes > 0 {
		ts := rep.TrialsToSuccess
		fmt.Printf("SUCCESS in %d/%d replications (rate %.2f, %d verified against the real canary)\n",
			rep.Successes, rep.Completed, rep.SuccessRate, rep.Verified)
		fmt.Printf("trials to success: min %.0f / median %.0f / p95 %.0f\n",
			ts.Min, ts.Median, ts.P95)
	} else {
		fmt.Printf("FAILED in all %d replications within the %d-trial budget\n", rep.Completed, rep.Budget)
	}
	fmt.Printf("oracle calls %d, detection rate %.3f, victim cycles %d\n",
		rep.OracleCalls, rep.DetectRate, rep.Cycles)
	if rep.OracleErrors > 0 {
		fmt.Printf("WARNING: %d replication(s) lost to oracle failures (first: %s)\n",
			rep.OracleErrors, rep.OracleError)
	}
	for _, out := range rep.Outcomes {
		state := "failed"
		switch {
		case out.Success && out.Verified:
			state = "success"
		case out.Success:
			state = "UNVERIFIED" // survived, but the recovered word is not the canary
		}
		fmt.Printf("  rep %2d: %-10s trials %-5d", out.Rep, state, out.Trials)
		if out.Restarts > 0 {
			fmt.Printf(" restarts %d", out.Restarts)
		}
		if !out.Success && out.FailedAt >= 0 {
			fmt.Printf(" stalled at byte %d", out.FailedAt)
		}
		fmt.Println()
	}
}

// us renders victim cycles as microseconds at the nominal clock.
func us(cycles uint64) string {
	return fmt.Sprintf("%.3f", float64(cycles)/pssp.CyclesPerMicrosecond)
}

// PrintLoad renders one workload's load report.
func PrintLoad(rep *pssp.LoadReport) {
	fmt.Printf("%s: %s over %d shard(s)\n", rep.Label, rep.Arrivals, rep.Shards)
	fmt.Printf("  requests %d (ok %d, crashes %d, detections %d), virtual duration %d cycles\n",
		rep.Requests, rep.OK, rep.Crashes, rep.Detections, rep.DurationCycles)
	fmt.Printf("  throughput: offered %.3f/Mcycle, achieved %.3f/Mcycle (efficiency %.3f), goodput %.3f/Mcycle\n",
		rep.OfferedPerMcycle, rep.AchievedPerMcycle, rep.Efficiency(), rep.GoodputPerMcycle)
	l := rep.Latency
	fmt.Printf("  latency µs @3.5GHz: mean %.3f  p50 %s  p90 %s  p99 %s  p99.9 %s  max %s\n",
		l.MeanCycles/pssp.CyclesPerMicrosecond, us(l.P50), us(l.P90), us(l.P99), us(l.P999), us(l.Max))
	if rep.ProbeReplications > 0 {
		fmt.Printf("  probes: %d attack replications completed, %d recovered the canary\n",
			rep.ProbeReplications, rep.ProbeSuccesses)
	}
	for _, c := range rep.Classes {
		fmt.Printf("  class %-12s %5d req, %4d crashes, %4d detections, p50 %s µs, p99 %s µs\n",
			c.Name, c.Requests, c.Crashes, c.Detections, us(c.Latency.P50), us(c.Latency.P99))
	}
}

// PrintSweep renders the offered-load sweep of the load job p.
func PrintSweep(sw *pssp.LoadSweepReport, p daemon.LoadParams) {
	p = daemon.NormalizeLoadParams(p)
	if p.Arrivals == "" {
		p.Arrivals = "poisson"
	}
	fmt.Printf("sweep %s (%s, scheme %s): %d points\n", p.App, p.Arrivals, p.Scheme, len(sw.Points))
	for _, pt := range sw.Points {
		rep := pt.Report
		fmt.Printf("  x%-5g offered %8.3f/Mcycle  achieved %8.3f/Mcycle  eff %.3f  p99 %s µs\n",
			pt.Multiplier, rep.OfferedPerMcycle, rep.AchievedPerMcycle,
			rep.Efficiency(), us(rep.Latency.P99))
	}
	if sw.KneeMultiplier > 0 {
		fmt.Printf("saturation knee: x%g (largest multiplier with efficiency >= %.2f)\n",
			sw.KneeMultiplier, pssp.KneeEfficiency)
	} else {
		fmt.Println("saturation knee: not located (closed loop, or all points past the knee)")
	}
}

// PrintFuzz renders the result of the fuzz job p; timeBox is the wall-clock
// box a TimedOut result hit.
func PrintFuzz(res daemon.FuzzResult, p daemon.FuzzParams, timeBox time.Duration) {
	rep := res.FuzzReport
	fmt.Printf("%s (scheme %s): %d execs over %d shard(s)", rep.Label, daemon.NormalizeFuzzParams(p).Scheme, rep.Execs, rep.Shards)
	if res.TimedOut {
		fmt.Printf(" [time box %v hit]", timeBox)
	}
	fmt.Println()
	if sum := res.UntilStall; sum != nil {
		fmt.Printf("  continuous: frontier stalled after %d round(s), %d total execs\n",
			sum.Rounds, sum.TotalExecs)
	}
	fmt.Printf("  coverage: %d edges (frontier %016x), corpus %d entries\n",
		rep.Edges, rep.CoverageHash, rep.CorpusSize)
	fmt.Printf("  crashes: %d executions, %d unique site(s)", rep.Crashes, len(rep.Findings))
	if rep.ExecsToFirstCrash > 0 {
		fmt.Printf(", first at exec %d", rep.ExecsToFirstCrash)
	}
	fmt.Println()
	for i, f := range rep.Findings {
		kind := f.Kind
		if f.Detected {
			kind = "canary-detected: " + kind
		}
		fmt.Printf("  finding %d: rip=0x%x %s\n", i, f.CrashPC, kind)
		fmt.Printf("    shard %d exec %d, input %d bytes, minimized %d bytes -> overflow after %d bytes\n",
			f.Shard, f.Exec, len(f.Input), len(f.Minimized), f.OverflowLen())
	}
}
