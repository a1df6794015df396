// Command gendpr-node runs one genome data owner as a standalone process:
// it loads the member's private shard, listens for the leader's connection,
// performs mutual remote attestation, and serves encrypted intermediate
// results for one assessment.
//
// All processes of a deployment must share the attestation authority seed
// (see cmd/gendpr-authority).
//
// The node shuts down cleanly on SIGINT/SIGTERM: a parked serving loop is
// interrupted mid-wait rather than lingering until the next leader message.
//
// Usage:
//
//	gendpr-authority -out authority.seed
//	gendpr-node -listen 127.0.0.1:7001 -case shard1.vcf -authority authority.seed
//	gendpr-node -listen 127.0.0.1:7002 -case shard2.vcf -authority authority.seed
//	gendpr-leader -members 127.0.0.1:7001,127.0.0.1:7002 \
//	    -case shard0.vcf -reference ref.vcf -authority authority.seed
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"gendpr/internal/cliutil"
	"gendpr/internal/enclave"
	"gendpr/internal/federation"
	"gendpr/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gendpr-node:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gendpr-node", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "address to accept the leader connection on")
		caseFile  = fs.String("case", "", "private case-shard VCF file (required)")
		authority = fs.String("authority", "", "attestation-authority seed file (required)")
		id        = fs.String("id", "gdo", "member identifier for logs")
		serves    = fs.Int("serves", 1, "number of assessments to serve before exiting; 0 serves forever, with concurrent sessions (daemon deployments)")
		idle      = fs.Duration("idle-timeout", 0, "per-session bound on waiting for the next leader message (0 waits forever)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *caseFile == "" || *authority == "" {
		return fmt.Errorf("-case and -authority are required")
	}

	shard, err := cliutil.ReadVCF(*caseFile)
	if err != nil {
		return err
	}
	auth, err := cliutil.LoadAuthority(*authority)
	if err != nil {
		return err
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		return err
	}
	member, err := federation.NewMember(*id, shard, platform, auth)
	if err != nil {
		return err
	}

	listener, err := transport.Listen(*listen)
	if err != nil {
		return err
	}
	defer listener.Close()
	fmt.Printf("%s: holding %d genomes x %d SNPs, listening on %s\n",
		*id, shard.N(), shard.L(), listener.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A signal must also unblock the Accept call itself, which has no
	// context of its own: close the listener when the context falls.
	go func() {
		<-ctx.Done()
		_ = listener.Close()
	}()

	return serveAssessments(ctx, member, listener, *serves, federation.ServeOptions{IdleTimeout: *idle}, func(format string, args ...any) {
		fmt.Printf("%s: "+format+"\n", append([]any{*id}, args...)...)
	})
}

// acceptor is the slice of transport.Listener the serving loop needs; tests
// substitute a scripted implementation.
type acceptor interface {
	Accept() (transport.Conn, error)
}

// Accept-retry backoff bounds: transient listener errors (EMFILE, ECONNABORTED
// and friends) are retried with doubling delays instead of killing the node.
const (
	acceptBackoffBase = 50 * time.Millisecond
	acceptBackoffMax  = 2 * time.Second
)

// serveAssessments is the node's serving loop. Only a clean shutdown consumes
// a serve slot: a session that dies on a transport failure is treated as an
// interrupted run whose leader may redial (the leader retries over a fresh
// attested connection), so the node logs it and keeps accepting. A closed
// listener — the shutdown path — ends the loop cleanly, as does context
// cancellation.
func serveAssessments(ctx context.Context, member *federation.Member, l acceptor, serves int, opts federation.ServeOptions, logf func(format string, args ...any)) error {
	if serves <= 0 {
		return serveConcurrently(ctx, member, l, opts, logf)
	}
	served := 0
	acceptEach(ctx, l, logf, func(conn transport.Conn) bool {
		err := member.ServeContext(ctx, conn, opts)
		_ = conn.Close()
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				logf("shutting down: %v", ctx.Err())
				return false
			}
			logf("session ended early (%v), awaiting reconnect", err)
			return true
		}
		served++
		logComplete(member, logf)
		return served < serves
	})
	return nil
}

// serveConcurrently is the -serves 0 loop: accept forever and serve each
// leader connection in its own goroutine, so a daemon leader with several
// federation slots can drive overlapping assessments through one node.
// Member session state is per-connection and mutex-guarded, which makes
// overlapping sessions safe. Shutdown closes the listener (ending the accept
// loop) and waits for live sessions to observe the canceled context.
func serveConcurrently(ctx context.Context, member *federation.Member, l acceptor, opts federation.ServeOptions, logf func(format string, args ...any)) error {
	var sessions sync.WaitGroup
	defer sessions.Wait()
	acceptEach(ctx, l, logf, func(conn transport.Conn) bool {
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			err := member.ServeContext(ctx, conn, opts)
			_ = conn.Close()
			switch {
			case ctx != nil && ctx.Err() != nil:
				logf("session ended at shutdown: %v", ctx.Err())
			case err != nil:
				logf("session ended early (%v), awaiting reconnect", err)
			default:
				logComplete(member, logf)
			}
		}()
		return true
	})
	return nil
}

// acceptEach hands every accepted connection to handle until handle returns
// false, the listener closes, or ctx is canceled. Accept errors are retried
// with capped exponential backoff.
func acceptEach(ctx context.Context, l acceptor, logf func(format string, args ...any), handle func(transport.Conn) bool) {
	backoff := acceptBackoffBase
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || (ctx != nil && ctx.Err() != nil) {
				// Listener closed underneath us: the shutdown path.
				return
			}
			logf("accept failed (%v), retrying in %v", err, backoff)
			if err := sleepCtx(ctx, backoff); err != nil {
				return
			}
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffBase
		if !handle(conn) {
			return
		}
	}
}

// logComplete logs a finished assessment with the selection it broadcast.
func logComplete(member *federation.Member, logf func(format string, args ...any)) {
	if sel := member.LastResult(); sel != nil {
		logf("assessment complete, broadcast selection %s", sel)
	} else {
		logf("assessment complete")
	}
}

// sleepCtx sleeps for d unless the context is canceled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
