// Command gendpr-leader coordinates a multi-process GenDPR assessment: it
// loads the leader's own shard and the public reference panel, dials each
// member node, attests the channels, drives the three-phase protocol, and
// prints the safe-to-release selection.
//
// With -checkpoint-dir the leader snapshots every phase boundary to disk; a
// run interrupted by a crash or SIGINT/SIGTERM can then be continued by a
// (possibly re-elected) leader started with -resume and the same member list,
// which replays the completed phases from the snapshot instead of recomputing
// them.
//
// With -serve the leader becomes an always-on assessment daemon instead of a
// one-shot runner: it exposes an HTTP API (POST /assess, GET /stats, GET
// /healthz) over the same attested federation, admits concurrent requests
// under bounded queueing and per-tenant quotas, deduplicates identical
// in-flight requests, resumes identical repeats from retained checkpoints,
// and drains gracefully on SIGINT/SIGTERM — finishing or checkpointing every
// in-flight run before exiting.
//
// See cmd/gendpr-node for the full deployment walkthrough; benchmark/'s
// svc_cold and svc_replay workloads measure the same service under load.
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gendpr/internal/checkpoint"
	"gendpr/internal/cliutil"
	"gendpr/internal/core"
	"gendpr/internal/enclave"
	"gendpr/internal/federation"
	"gendpr/internal/genome"
	"gendpr/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gendpr-leader:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gendpr-leader", flag.ContinueOnError)
	var (
		members      = fs.String("members", "", "comma-separated member addresses (required)")
		caseFile     = fs.String("case", "", "leader's private case-shard VCF (required)")
		refFile      = fs.String("reference", "", "public reference-panel VCF (required)")
		authority    = fs.String("authority", "", "attestation-authority seed file (required)")
		colluders    = fs.Int("f", 0, "tolerated colluding members")
		conservative = fs.Bool("conservative", false, "tolerate every f in 1..G-1")
		ckptDir      = fs.String("checkpoint-dir", "", "directory for phase-boundary snapshots; an interrupted run can be continued with -resume")
		resume       = fs.Bool("resume", false, "seed the run from a compatible snapshot left in -checkpoint-dir by an interrupted leader (daemon mode: keep retained snapshots)")

		serveAddr   = fs.String("serve", "", "run as an always-on assessment daemon on this HTTP address instead of a one-shot assessment")
		slots       = fs.Int("slots", 1, "daemon: concurrent federation runs")
		queueDepth  = fs.Int("queue-depth", 16, "daemon: bounded admission-queue depth; a full queue sheds immediately")
		tenantRate  = fs.Float64("tenant-rate", 0, "daemon: per-tenant sustained admissions per second (0 disables rate quotas)")
		tenantBurst = fs.Int("tenant-burst", 0, "daemon: per-tenant admission burst (0 derives from -tenant-rate)")
		tenantConc  = fs.Int("tenant-concurrency", 0, "daemon: per-tenant cap on admitted-but-unfinished requests (0 disables)")
		defDeadline = fs.Duration("default-deadline", 0, "daemon: deadline for requests that do not carry one (0 leaves them unbounded)")
		drainGrace  = fs.Duration("drain-grace", 10*time.Second, "daemon: how long a drain lets in-flight runs finish before canceling them at the next phase boundary")
	)
	ff := cliutil.RegisterFaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *members == "" || *caseFile == "" || *refFile == "" || *authority == "" {
		return fmt.Errorf("-members, -case, -reference and -authority are required")
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint-dir")
	}

	shard, err := cliutil.ReadVCF(*caseFile)
	if err != nil {
		return err
	}
	reference, err := cliutil.ReadVCF(*refFile)
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
	leader, err := federation.NewLeader("leader", shard, platform, auth)
	if err != nil {
		return err
	}

	opts := ff.Options("gendpr-leader")
	var store *checkpoint.FileStore
	if *ckptDir != "" {
		store, err = checkpoint.NewFileStore(*ckptDir)
		if err != nil {
			return err
		}
		if !*resume {
			// Without -resume leftover snapshots are stale by declaration:
			// remove the root snapshot and every retained daemon namespace
			// rather than silently continuing from them.
			if err := store.ClearAll(); err != nil {
				return err
			}
		}
	}
	addrs := make([]string, 0)
	for _, raw := range strings.Split(*members, ",") {
		addrs = append(addrs, strings.TrimSpace(raw))
	}
	policy := core.CollusionPolicy{F: *colluders, Conservative: *conservative}

	if *serveAddr != "" {
		cfg := service.Config{
			Slots:             *slots,
			QueueDepth:        *queueDepth,
			TenantRate:        *tenantRate,
			TenantBurst:       *tenantBurst,
			TenantConcurrency: *tenantConc,
			DefaultDeadline:   *defDeadline,
			DrainGrace:        *drainGrace,
		}
		if store != nil {
			cfg.Checkpoints = store
		}
		if ff.LogJSON {
			cfg.OnEvent = cliutil.ServiceEventLogger("gendpr-leader")
		}
		return runDaemon(*serveAddr, leader, addrs, reference, opts, cfg)
	}
	return runOnce(leader, shard, reference, addrs, policy, opts, store, *ckptDir)
}

// runOnce drives a single assessment, exactly as the pre-daemon CLI did.
func runOnce(leader *federation.Leader, shard, reference *genome.Matrix, addrs []string, policy core.CollusionPolicy, opts federation.RunOptions, store *checkpoint.FileStore, ckptDir string) error {
	if store != nil {
		opts.Checkpoints = store
	}
	links, cleanup, err := service.NewTCPDialer(addrs, opts.DialTimeout)()
	if err != nil {
		return err
	}
	defer cleanup()
	fmt.Printf("leader: %d members connected, %d local genomes, %d reference genomes, %d SNPs\n",
		len(links), shard.N(), reference.N(), shard.L())

	// SIGINT/SIGTERM cancels the run: in-flight exchanges are interrupted and
	// the assessment stops at the next boundary, leaving the checkpoint (if
	// any) behind for a -resume restart.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	report, err := leader.RunLinksContext(ctx, links, reference, core.DefaultConfig(), policy, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) && ckptDir != "" {
			return fmt.Errorf("interrupted; completed phases are snapshotted in %s — rerun with -resume to continue: %w", ckptDir, err)
		}
		return err
	}
	if report.Resumed {
		fmt.Printf("resumed from checkpoint in %s\n", ckptDir)
	}
	if report.CorruptionRecovered {
		fmt.Printf("checkpoint store recovered from a corrupt snapshot (resumed from the boundary before it)\n")
	}
	fmt.Printf("selection: %s\n", report.Selection)
	for _, e := range report.Excluded {
		// Provider index 0 is the leader's own shard; members start at 1.
		fmt.Printf("excluded: member %s failed mid-run and was dropped under quorum degradation\n", addrs[e-1])
	}
	for _, r := range report.Rejoined {
		fmt.Printf("rejoined: member %s was excluded mid-run, re-attested, and rejoined at a phase boundary\n", addrs[r-1])
	}
	for _, b := range report.Blamed {
		fmt.Printf("blamed: member %s, %s during %s (query %s, evidence %s/%s)\n",
			b.Member, b.Kind, b.Phase, b.Query, digestPrefix(b.Prior), digestPrefix(b.Observed))
	}
	fmt.Printf("residual identification power: %.3f\n", report.Selection.Power)
	fmt.Printf("combinations evaluated: %d\n", report.Combinations)
	t := report.Timings
	fmt.Printf("timings: aggregation %v, indexing %v, LD %v, LR-test %v, total %v\n",
		t.DataAggregation, t.Indexing, t.LD, t.LRTest, t.Total())
	return nil
}

// runDaemon serves assessments over the federation until SIGINT/SIGTERM, then
// drains: admission stops, queued requests are shed with a structured
// rejection, in-flight runs get the grace period to finish (or are canceled
// at their next phase boundary, checkpoint saved), and every admitted request
// resolves before the process exits.
func runDaemon(addr string, leader *federation.Leader, addrs []string, reference *genome.Matrix, opts federation.RunOptions, cfg service.Config) error {
	cfg.Backend = &service.FederationBackend{
		Leader:      leader,
		Dial:        service.NewTCPDialer(addrs, opts.DialTimeout),
		Reference:   reference,
		MemberNames: addrs,
		Options:     opts,
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("daemon: listening on %s (%d members, %d slots, queue %d)\n",
		ln.Addr(), len(addrs), cfg.Slots, cfg.QueueDepth)

	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	// Re-arm before releasing the first registration so there is no window in
	// which a repeated signal falls back to the default disposition and kills
	// the process: during drain it instead cuts the grace period short,
	// canceling in-flight runs at their next phase boundary (checkpoint
	// saved).
	drainCtx, stopDrain := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopDrain()
	stop()

	fmt.Println("daemon: draining — admission stopped, waiting for in-flight runs (signal again to cancel them now)")
	if err := srv.Drain(drainCtx); err != nil {
		return err
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutdownCtx)

	st := srv.Stats()
	fmt.Printf("daemon: drained — admitted %d, completed %d, failed %d, shed %d (post-admission %d), coalesced %d, reused %d\n",
		st.Admitted, st.Completed, st.Failed, st.TotalShed(), st.ShedAfterAdmission, st.Coalesced, st.Reused)
	if st.Latency.Count > 0 {
		fmt.Printf("daemon: latency p50 %v, p95 %v, p99 %v over %d completed\n",
			st.Latency.P50, st.Latency.P95, st.Latency.P99, st.Latency.Count)
	}
	return nil
}

// digestPrefix renders blame evidence compactly; the digests are hashes of
// wire payloads, never the payloads themselves.
func digestPrefix(d []byte) string {
	if len(d) == 0 {
		return "-"
	}
	if len(d) > 4 {
		d = d[:4]
	}
	return hex.EncodeToString(d)
}
