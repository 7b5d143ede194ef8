// Command rrserved hosts many tenants — each an independent streaming
// scheduler (internal/sched.Stream) with its own policy — behind the
// length-prefixed binary protocol of internal/serve (docs/SERVER.md).
//
// Usage:
//
//	rrserved                          # listen on 127.0.0.1:7145, in-memory only
//	rrserved -addr :7145 -ckpt state  # durable: checkpoints in state/, recovered
//	                                  # automatically on restart
//	rrserved -round-interval 10ms     # pace rounds instead of applying eagerly
//	rrserved -bdr                     # bounded-delay admission control: tenants may
//	                                  # reserve (rate, delay) pairs, checked against
//	                                  # the machine's supply bound before admission
//
// Durable mode uses the group-commit checkpoint log (docs/CHECKPOINT.md):
// all tenants' checkpoints are appended to shared segment files and one
// background fsync per -ckpt-commit-interval covers every append in the
// window, so checkpoint cost stays flat as tenant counts grow.
//
// Which backlogged tenant a worker serves next is the cross-tenant
// allocator's decision: weighted deficit round-robin with delay-factor
// escalation (docs/SCHEDULING.md). Every counter the server keeps — the
// tenants' scheduling rows and the checkpoint log's — is read through
// one stats request (rrload, or serve.Client.ReadOut).
//
// With -bdr the server additionally runs bounded-delay-reservation
// admission control (docs/SCHEDULING.md "Admission"): a tenant may
// declare a (rate, delay) reservation at open, the server checks it
// against the shard's residual supply bound and either guarantees it —
// the fractional-share controller clamps the tenant's scheduling weight
// and per-pass budget so the guarantee holds under any competing load —
// or rejects the open with a typed admission error carrying the
// residual capacity. The capacity model follows -shards: each shard
// supplies rate 1 at delay bound 1, under a machine of rate -shards.
//
// SIGTERM or SIGINT drains gracefully: the server stops admitting work,
// applies every queued round tick, writes a final checkpoint per tenant
// and then exits; a second signal forces immediate exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7145", "TCP listen address")
		ckptDir      = flag.String("ckpt", "", "checkpoint directory (empty = no durability)")
		ckptEvery    = flag.Int("checkpoint-every", 64, "rounds between periodic per-tenant checkpoints")
		ckptCommit   = flag.Duration("ckpt-commit-interval", 0, "checkpoint-log group-commit fsync interval (0 = default 2ms)")
		ckptSegBytes = flag.Int("ckpt-segment-bytes", 0, "log segment size before rotation (0 = default 4MiB)")
		interval     = flag.Duration("round-interval", 0, "pace round application (0 = apply eagerly; negative is an error)")
		shards       = flag.Int("shards", 0, "round-engine worker shards (0 = GOMAXPROCS, capped at 16)")
		maxTen       = flag.Int("max-tenants", 0, "live tenant limit (0 = default 4096)")
		queueCap     = flag.Int("queue-cap", 0, "default per-tenant queue cap (0 = default 64)")
		bdrOn        = flag.Bool("bdr", false, "enable bounded-delay-reservation admission control")
		quiet        = flag.Bool("quiet", false, "suppress operational log lines")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv, err := serve.NewServer(serve.Config{
		Addr:               *addr,
		CheckpointDir:      *ckptDir,
		CheckpointEvery:    *ckptEvery,
		CkptCommitInterval: *ckptCommit,
		CkptSegmentBytes:   *ckptSegBytes,
		RoundInterval:      *interval,
		Shards:             *shards,
		MaxTenants:         *maxTen,
		DefaultQueueCap:    *queueCap,
		BDR:                *bdrOn,
		Logf:               logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logf("rrserved: listening on %s (%d tenants recovered)", srv.Addr(), srv.NumTenants())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		logf("rrserved: %v: draining (again to force exit)", sig)
		go func() {
			<-sigs
			logf("rrserved: forced exit")
			os.Exit(1)
		}()
		start := time.Now()
		if err := srv.Shutdown(); err != nil {
			logf("rrserved: drain: %v", err)
			os.Exit(1)
		}
		logf("rrserved: drained in %v", time.Since(start).Round(time.Millisecond))
	}()

	if err := srv.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Serve returns once the listener closes; wait for the drain started
	// by the signal handler to finish flushing before exiting.
	_ = srv.Shutdown()
}
