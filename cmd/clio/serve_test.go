package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"clio/internal/fd"
)

// The serve flag set must surface every lifecycle knob in the config
// and reject combinations the server cannot honor.
func TestParseServeConfig(t *testing.T) {
	cfg, drain, err := parseServeConfig([]string{
		"-journal-dir", "/tmp/j",
		"-snapshot-every", "8",
		"-idle-ttl", "30m",
		"-archive-dir", "/tmp/a",
		"-session-max-rows", "1000",
		"-session-max-bytes", "4096",
		"-session-rps", "2.5",
		"-drain", "3s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.JournalDir != "/tmp/j" || cfg.SnapshotEvery != 8 || cfg.IdleTTL != 30*time.Minute ||
		cfg.ArchiveDir != "/tmp/a" || cfg.SessionRPS != 2.5 {
		t.Errorf("lifecycle flags not threaded into config: %+v", cfg)
	}
	if cfg.SessionBudget != (fd.Budget{MaxRows: 1000, MaxBytes: 4096}) {
		t.Errorf("session budget flags not threaded: %+v", cfg.SessionBudget)
	}
	if drain != 3*time.Second {
		t.Errorf("drain = %v, want 3s", drain)
	}
}

func TestParseServeConfigObservabilityFlags(t *testing.T) {
	cfg, _, err := parseServeConfig([]string{
		"-access-log",
		"-slow-ms", "250",
		"-trace-buffer", "64",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AccessLog != os.Stderr {
		t.Error("-access-log did not wire stderr into the config")
	}
	if cfg.SlowThreshold != 250*time.Millisecond {
		t.Errorf("SlowThreshold = %v, want 250ms", cfg.SlowThreshold)
	}
	if cfg.TraceBufferSize != 64 {
		t.Errorf("TraceBufferSize = %d, want 64", cfg.TraceBufferSize)
	}
	// Defaults: no access log, no slow threshold, default retention.
	cfg, _, err = parseServeConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.AccessLog != nil || cfg.SlowThreshold != 0 || cfg.TraceBufferSize != 0 {
		t.Errorf("observability on by default: %+v", cfg)
	}
}

func TestParseServeConfigDefaults(t *testing.T) {
	cfg, _, err := parseServeConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SnapshotEvery != 0 || cfg.IdleTTL != 0 || cfg.ArchiveDir != "" ||
		cfg.SessionRPS != 0 || !cfg.SessionBudget.Unlimited() {
		t.Errorf("lifecycle features on by default: %+v", cfg)
	}
	// The historic "-cache 0 disables" quirk must survive the refactor.
	cfg, _, err = parseServeConfig([]string{"-cache", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CacheCapacity != -1 {
		t.Errorf("-cache 0 parsed to capacity %d, want -1 (disabled)", cfg.CacheCapacity)
	}
}

func TestParseServeConfigRejectsBadCombos(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"idle_ttl_without_journal", []string{"-idle-ttl", "5m"}, "-idle-ttl requires -journal-dir"},
		{"snapshot_without_journal", []string{"-snapshot-every", "4"}, "-snapshot-every requires -journal-dir"},
		{"archive_without_journal", []string{"-archive-dir", "/tmp/a"}, "-archive-dir requires -journal-dir"},
		{"negative_idle_ttl", []string{"-journal-dir", "/tmp/j", "-idle-ttl", "-1s"}, "-idle-ttl must be >= 0"},
		{"negative_session_rps", []string{"-session-rps", "-1"}, "-session-rps must be >= 0"},
		{"unknown_flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"journal_compact_removed", []string{"-journal-dir", "/tmp/j", "-journal-compact", "8"}, "flag provided but not defined: -journal-compact"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := parseServeConfig(c.args)
			if err == nil {
				t.Fatalf("args %v parsed without error", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
