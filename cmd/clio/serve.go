package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clio/internal/fd"
	"clio/internal/serve"
)

// parseServeConfig parses the "clio serve" flag set into a server
// config and drain budget, validating flag combinations. Split from
// serveMain so tests can exercise flag handling without binding a
// socket.
func parseServeConfig(args []string) (serve.Config, time.Duration, error) {
	fs := flag.NewFlagSet("clio serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen address (\":0\" picks a free port)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	maxInFlight := fs.Int("max-inflight", 32, "bound on concurrently admitted requests (429 beyond)")
	cacheCap := fs.Int("cache", 64, "D(G) memo cache capacity in entries (0 disables)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	mine := fs.Bool("mine", false, "mine inclusion dependencies when sessions start")
	journalDir := fs.String("journal-dir", "", "crash-safe sessions: journal every session here and replay on boot (empty disables)")
	journalFsync := fs.Int("journal-fsync", 1, "fsync the journal after every Nth append")
	snapshotEvery := fs.Int("snapshot-every", 0, "journal a session-state snapshot every Nth op, bounding replay cost (0 = the server default, 64; negative disables; needs -journal-dir)")
	idleTTL := fs.Duration("idle-ttl", 0, "tombstone sessions idle longer than this into the archive (0 disables; needs -journal-dir)")
	archiveDir := fs.String("archive-dir", "", "directory for tombstoned session journals (default <journal-dir>/archive)")
	maxRows := fs.Int64("max-rows", 0, "per-request row budget; exceeding answers 413 (0 = unlimited)")
	maxBytes := fs.Int64("max-bytes", 0, "per-request approximate byte budget; exceeding answers 413 (0 = unlimited)")
	spillDir := fs.String("spill-dir", "", "spill directory: operators over the -max-rows/-max-bytes in-memory caps write temp partitions here instead of answering 413 (empty disables)")
	maxSpillBytes := fs.Int64("max-spill-bytes", 0, "bound on bytes concurrently resident in spill files; exceeding answers 413 (0 = unlimited; needs -spill-dir)")
	spillRecursion := fs.Int("spill-recursion-depth", 3, "how many times an oversized spill partition may be re-partitioned with a fresh hash salt before answering 413 (recursion_exhausted); 0 disables recursion")
	sessionMaxRows := fs.Int64("session-max-rows", 0, "per-session request row budget, layered under -max-rows (0 = unlimited)")
	sessionMaxBytes := fs.Int64("session-max-bytes", 0, "per-session request byte budget, layered under -max-bytes (0 = unlimited)")
	sessionRPS := fs.Float64("session-rps", 0, "per-session token-bucket rate limit in requests/second (0 disables)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint sent with 429 responses")
	accessLog := fs.Bool("access-log", false, "emit a structured JSON access-log line per request to stderr")
	slowMS := fs.Int("slow-ms", 0, "log requests slower than this many milliseconds at warning level (0 disables)")
	traceBuffer := fs.Int("trace-buffer", 0, "retained span trees per list (recent and slowest) for /debug/traces (0 = default 32, negative disables)")
	if err := fs.Parse(args); err != nil {
		return serve.Config{}, 0, err
	}

	if *journalDir == "" {
		switch {
		case *idleTTL > 0:
			return serve.Config{}, 0, fmt.Errorf("clio serve: -idle-ttl requires -journal-dir (idle expiry archives the session journal)")
		case *snapshotEvery > 0:
			return serve.Config{}, 0, fmt.Errorf("clio serve: -snapshot-every requires -journal-dir (snapshots are journal records)")
		case *archiveDir != "":
			return serve.Config{}, 0, fmt.Errorf("clio serve: -archive-dir requires -journal-dir")
		}
	}
	if *idleTTL < 0 {
		return serve.Config{}, 0, fmt.Errorf("clio serve: -idle-ttl must be >= 0")
	}
	if *sessionRPS < 0 {
		return serve.Config{}, 0, fmt.Errorf("clio serve: -session-rps must be >= 0")
	}
	if *slowMS < 0 {
		return serve.Config{}, 0, fmt.Errorf("clio serve: -slow-ms must be >= 0")
	}
	if *spillDir == "" && *maxSpillBytes != 0 {
		return serve.Config{}, 0, fmt.Errorf("clio serve: -max-spill-bytes requires -spill-dir")
	}
	if *maxSpillBytes < 0 {
		return serve.Config{}, 0, fmt.Errorf("clio serve: -max-spill-bytes must be >= 0")
	}
	if *spillRecursion < 0 {
		return serve.Config{}, 0, fmt.Errorf("clio serve: -spill-recursion-depth must be >= 0")
	}
	// The budget encodes "disabled" as negative and "default" as zero;
	// the flag surface uses 0 for disabled and defaults to 3.
	recursionDepth := *spillRecursion
	if recursionDepth == 0 {
		recursionDepth = -1
	}
	if *spillDir != "" {
		if err := os.MkdirAll(*spillDir, 0o755); err != nil {
			return serve.Config{}, 0, fmt.Errorf("clio serve: -spill-dir: %w", err)
		}
	}

	cfg := serve.Config{
		Addr:              *addr,
		RequestTimeout:    *timeout,
		MaxInFlight:       *maxInFlight,
		CacheCapacity:     *cacheCap,
		MineINDs:          *mine,
		JournalDir:        *journalDir,
		JournalFsyncEvery: *journalFsync,
		SnapshotEvery:     *snapshotEvery,
		IdleTTL:           *idleTTL,
		ArchiveDir:        *archiveDir,
		Budget:            fd.Budget{MaxRows: *maxRows, MaxBytes: *maxBytes, SpillDir: *spillDir, MaxSpillBytes: *maxSpillBytes, SpillRecursionDepth: recursionDepth},
		SessionBudget:     fd.Budget{MaxRows: *sessionMaxRows, MaxBytes: *sessionMaxBytes},
		SessionRPS:        *sessionRPS,
		RetryAfter:        *retryAfter,
		SlowThreshold:     time.Duration(*slowMS) * time.Millisecond,
		TraceBufferSize:   *traceBuffer,
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	if *cacheCap == 0 {
		cfg.CacheCapacity = -1 // Config zero means "default"; -1 disables
	}
	return cfg, *drain, nil
}

// serveMain runs the long-lived HTTP/JSON mapping service ("clio
// serve"). It listens until SIGINT/SIGTERM, then shuts down
// gracefully, draining in-flight requests.
func serveMain(args []string) error {
	cfg, drain, err := parseServeConfig(args)
	if err != nil {
		return err
	}
	srv := serve.New(cfg)
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "clio serve listening on http://%s\n", srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "clio serve: shutting down")

	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return srv.Shutdown(drainCtx)
}
