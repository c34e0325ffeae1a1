// Command afshard is a shard worker (see internal/shard): it joins a
// coordinator, leases spec groups and executes them with the resilient
// scenario runner, uploading their rows until the coordinator reports the
// suite done. The coordinator is `afbench -suite -shard-coordinator ADDR`,
// which serves the lease protocol and merges the uploads into its ordinary
// sink stack:
//
//	afbench -suite -shard-coordinator :9090 \
//	        -graphs "grid:rows=8,cols=8;cycle:n=65" -protocols amnesiac,classic \
//	        -format jsonl -out suite.jsonl.gz -lease 30s
//	afshard -coordinator http://10.0.0.5:9090 -name w1 -pool 8
//
// Any number of workers may join or die at any time; a killed worker's
// lease expires and its group is reassigned. The merged output is
// order-normalised byte-identical to a single-process `afbench -suite` run
// of the same matrix (scripts/suitediff.sh asserts it in `make
// suite-shard`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"amnesiacflood/internal/shard"

	// Self-registering protocols and model families: workers execute the
	// leased specs by name.
	_ "amnesiacflood/internal/registry/all"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "afshard:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("afshard", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL, e.g. http://host:9090 (mandatory)")
	name := fs.String("name", "", "worker name for lease attribution (default host-derived)")
	pool := fs.Int("pool", 0, "local runner pool width per leased group (0 = GOMAXPROCS capped at 8)")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, or error")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	if *coordinator == "" {
		return fmt.Errorf("-coordinator is mandatory (the coordinator's base URL)")
	}
	workerName := *name
	if workerName == "" {
		host, _ := os.Hostname()
		workerName = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w, err := shard.NewWorker(shard.WorkerConfig{
		Coordinator: *coordinator,
		Name:        workerName,
		Pool:        *pool,
		Logger:      slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})),
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	fmt.Fprintln(os.Stderr, "afshard: worker done")
	return nil
}
