// Command rrproxy is the scale-out router tier in front of a fleet of
// rrserved backends (internal/proxy): it speaks the client protocol on
// the front, shards tenants across the backends by rendezvous hashing
// on tenant ID, fans out the all-tenant stats request, and — with
// -standby — tees every mutating frame to a warm-standby backend so a
// dead primary fails over by resuming from the standby's state instead
// of rewinding clients. See docs/SERVER.md "Fleet".
//
// Usage:
//
//	rrproxy -backends 127.0.0.1:7145,127.0.0.1:7146
//	rrproxy -addr :7200 -backends host1:7145,host2:7145 -standby host3:7145
//
// SIGTERM or SIGINT stops the proxy after flushing the standby tee.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/proxy"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7200", "TCP listen address")
		backends = flag.String("backends", "", "comma-separated rrserved backend addresses (required)")
		standby  = flag.String("standby", "", "warm-standby rrserved address (empty = no standby)")
		quiet    = flag.Bool("quiet", false, "suppress operational log lines")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}
	px, err := proxy.New(proxy.Config{
		Addr:     *addr,
		Backends: list,
		Standby:  *standby,
		Logf:     logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logf("rrproxy: listening on %s, %d backends, standby %q", px.Addr(), len(list), *standby)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		logf("rrproxy: %v: stopping (again to force exit)", sig)
		go func() {
			<-sigs
			logf("rrproxy: forced exit")
			os.Exit(1)
		}()
		px.Close()
	}()

	if err := px.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	px.Close()
	if n := px.TeeDropped(); n > 0 {
		logf("rrproxy: standby tee dropped %d frames over the run", n)
	}
}
