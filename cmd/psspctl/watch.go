package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/daemon/client"
	"repro/internal/obs"
)

// watchInterval is the dashboard redraw period. One second keeps the
// control connection chatter negligible next to lease traffic while still
// reading as "live".
const watchInterval = time.Second

// runWatch is the -watch verb: a live dashboard over the daemon's stats
// and metrics RPCs, redrawn once a second until ctx is interrupted.
// It supersedes polling `psspctl -stats` in a shell loop — one connection,
// one screen, quantiles included.
func runWatch(ctx context.Context, c *client.Client, addr string) error {
	tick := time.NewTicker(watchInterval)
	defer tick.Stop()
	for {
		frame, err := watchFrame(ctx, c, addr)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Println()
				return nil
			}
			return err
		}
		// Home the cursor and clear below: repainting in place flickers
		// less than a full-screen erase.
		fmt.Fprint(os.Stdout, "\x1b[H\x1b[2J"+frame)
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-tick.C:
		}
	}
}

// watchFrame renders one dashboard screen: statsText plus the metrics.
func watchFrame(ctx context.Context, c *client.Client, addr string) (string, error) {
	st, err := c.Stats(ctx)
	if err != nil {
		return "", err
	}
	var series []obs.Series
	if err := c.Call(ctx, "metrics", nil, &series); err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "psspctl watch — %s — %s (refresh %s, ^C to quit)\n\n",
		addr, time.Now().Format("15:04:05"), watchInterval)
	b.WriteString(statsText(st))
	if len(series) > 0 {
		b.WriteString("\nmetrics:\n")
		for _, s := range series {
			if s.Hist != nil {
				fmt.Fprintf(&b, "  %-42s n=%-7d p50=%-11s p99=%-11s max=%s\n",
					s.Name, s.Hist.Count, watchDur(s.Hist.P50), watchDur(s.Hist.P99), watchDur(s.Hist.Max))
				continue
			}
			fmt.Fprintf(&b, "  %-42s %g\n", s.Name, s.Value)
		}
	}
	return b.String(), nil
}

// statsText renders a daemon's stats, for -stats and the dashboard: the
// lease counters, the worker table and the submitted jobs.
func statsText(st daemon.Stats) string {
	var b strings.Builder
	fs := st.Fabric
	fmt.Fprintf(&b, "leases: %d issued, %d reassigned", fs.LeasesIssued, fs.LeasesReassigned)
	if st.FrontierEdges > 0 {
		fmt.Fprintf(&b, " — frontier %d edges", st.FrontierEdges)
	}
	b.WriteString("\n\nworkers:\n")
	if len(fs.Workers) == 0 {
		b.WriteString("  (none attached)\n")
	}
	for _, w := range fs.Workers {
		state := "idle"
		switch {
		case !w.Alive:
			state = "dead"
		case w.Busy:
			state = "busy"
		}
		fmt.Fprintf(&b, "  %-24s %-4s leases=%-5d shards=%-7d %8.1f shards/s\n",
			w.Name, state, w.Leases, w.ShardsDone, w.ShardsPerSec)
	}
	if len(st.Jobs) > 0 {
		b.WriteString("\njobs:\n" + jobsText(st.Jobs))
	}
	return b.String()
}

// jobsText lists submitted jobs, one line each.
func jobsText(jobs []daemon.JobStatus) string {
	var b strings.Builder
	for _, j := range jobs {
		fmt.Fprintf(&b, "job %d %-9s %s", j.ID, j.Kind, j.State)
		if j.Error != "" {
			fmt.Fprintf(&b, ": %s", j.Error)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// watchDur renders a nanosecond quantile human-readably.
func watchDur(ns uint64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
