// Asynchronous adversary demo (paper §4, Figure 5): in the asynchronous
// variant of amnesiac flooding, a scheduling adversary that delays one of
// two colliding messages keeps the triangle's flood alive forever. The
// simulator proves it by detecting a repeated global configuration — a
// finite certificate of an infinite execution.
//
// The demo runs everything through the sim façade's model axis: the
// adversary is the registry spec "adversary:collision", selected with
// sim.WithModel exactly like a protocol or an engine.
//
//	go run ./examples/asyncadversary
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"amnesiacflood/internal/graph/gen"
	"amnesiacflood/internal/sim"
	"amnesiacflood/internal/trace"

	// Register the adversary model families and the amnesiac protocol
	// they run.
	_ "amnesiacflood/internal/async"
	_ "amnesiacflood/internal/core"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	fmt.Println("## Figure 5: the triangle under the delaying adversary")
	fmt.Println()
	tri := gen.Cycle(3)
	sess, err := sim.New(tri,
		sim.WithModel("adversary:collision"),
		sim.WithOrigins(1),
		sim.WithTrace(true),
	)
	if err != nil {
		return err
	}
	res, err := sess.Run(ctx)
	if err != nil {
		return err
	}
	for _, rec := range res.Trace {
		edges := make([]string, len(rec.Sends))
		for i, s := range rec.Sends {
			edges[i] = trace.Letters(s.From) + "->" + trace.Letters(s.To)
		}
		fmt.Printf("round %d: %s\n", rec.Round, strings.Join(edges, " "))
	}
	fmt.Printf("\noutcome: %s\n", res.Outcome)
	fmt.Printf("the configuration at round %d recurs at round %d — the execution is periodic and never terminates\n\n",
		res.Certificate.Start, res.Certificate.Start+res.Certificate.Length)

	fmt.Println("## The same adversary across topologies")
	fmt.Println()
	for _, spec := range []string{
		"cycle:n=3", "cycle:n=5", "cycle:n=6", "cycle:n=7",
		"path:n=8", "bintree:levels=4", "complete:n=4",
	} {
		g := gen.MustBuild(spec, 1)
		sess, err := sim.New(g,
			sim.WithModel("adversary:collision"),
			sim.WithMaxRounds(4096),
		)
		if err != nil {
			return err
		}
		r, err := sess.Run(ctx)
		if err != nil {
			return err
		}
		detail := ""
		if r.Certificate != nil {
			detail = fmt.Sprintf(" (period %d)", r.Certificate.Length)
		}
		fmt.Printf("%-16s %s%s\n", g.Name()+":", r.Outcome, detail)
	}
	fmt.Println()
	fmt.Println("## Control: the synchronous (zero-delay) adversary on the triangle")
	ctrl, err := sim.New(tri, sim.WithModel("adversary:sync"), sim.WithOrigins(1))
	if err != nil {
		return err
	}
	cres, err := ctrl.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("outcome: %s after %d rounds — asynchrony, not the graph, causes non-termination\n",
		cres.Outcome, cres.Rounds)
	return nil
}
