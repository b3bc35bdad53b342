// Command figures runs the measurement campaign and regenerates the
// study's figures (3-14 and the appendix series) as SAS-style text
// charts.  The campaign's sessions fan out over the session engine's
// worker pool, or, with -backends, shard across a fleet of fx8d
// nodes (failed or slow backends are retried and hedged; local
// compute is the fallback), and the completed campaign is served
// through the two-tier cache: memoized in-process and, with -cache,
// persisted to the on-disk campaign store shared with the other
// tools and fx8d.
//
// Usage:
//
//	figures [-scale quick|paper] [-only NAME] [-workers N] [-cache DIR]
//	        [-backends HOST:PORT,...]
//
// -only selects a single figure by name (e.g. "6", "12", "B.3").
package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/remote"
)

func main() { cli.Main(run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	scale := fs.String("scale", "quick", "campaign scale: quick or paper")
	only := fs.String("only", "", "render a single figure by name")
	workers := fs.Int("workers", 0, "parallel session workers (0 = one per CPU, or sized to the backend fleet)")
	cacheDir := fs.String("cache", "", "campaign store directory (shared with the other tools and fx8d)")
	backends := fs.String("backends", "", "comma-separated fx8d backends (host:port,...) to shard campaign sessions across")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	cfg, err := core.ScaleConfig(*scale)
	if err != nil {
		return err
	}
	runner := remote.StudyRunner(remote.ParseBackends(*backends))
	st, err := core.StudyAtRunner(*cacheDir, cfg, *workers, runner)
	if err != nil {
		return err
	}

	if *only != "" {
		fig, ok := experiments.Lookup(experiments.Figures(), *only)
		if !ok {
			return fmt.Errorf("unknown figure %q (valid figures: %s)",
				*only, strings.Join(experiments.Names(experiments.Figures()), ", "))
		}
		fmt.Fprintln(stdout, fig.Render(st))
		return nil
	}
	for _, f := range experiments.Figures() {
		fmt.Fprintln(stdout, f.Render(st))
	}
	return nil
}
