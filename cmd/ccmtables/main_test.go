package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("2, 4,6")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
	if _, err := parseFloats("2,x"); err == nil {
		t.Fatal("bad float accepted")
	}
}

func TestRunSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	err := run(context.Background(), []string{
		"-n", "400", "-trials", "1", "-r", "6", "-all", "-quiet",
		"-csv", csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "r,protocol,metric,") {
		t.Fatalf("unexpected CSV: %s", data[:60])
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-r", "nope"}); err == nil {
		t.Fatal("bad r list accepted")
	}
	if err := run(context.Background(), []string{"-n", "100", "-trials", "1", "-r", "6", "-protocols", "bogus", "-quiet"}); err == nil {
		t.Fatal("bogus protocol accepted")
	}
	// strconv.ParseFloat accepts "NaN"; the sweep validator must not.
	if err := run(context.Background(), []string{"-n", "100", "-trials", "1", "-r", "6", "-loss", "NaN", "-quiet"}); err == nil {
		t.Fatal("NaN loss accepted")
	}
}

func TestRunLossMode(t *testing.T) {
	if err := run(context.Background(), []string{"-n", "300", "-trials", "1", "-r", "6", "-loss", "0,0.5", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-n", "300", "-trials", "1", "-r", "6", "-loss", "bogus"}); err == nil {
		t.Fatal("bad loss list accepted")
	}
}

func TestRunDensityMode(t *testing.T) {
	if err := run(context.Background(), []string{"-trials", "1", "-r", "6", "-density", "300,600", "-quiet"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-trials", "1", "-r", "6", "-density", "x"}); err == nil {
		t.Fatal("bad density list accepted")
	}
}

// TestRunObservabilityFlags drives one small sweep with every observability
// sink attached and checks the artifacts parse.
func TestRunObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	cpu := filepath.Join(dir, "cpu.pprof")
	err := run(context.Background(), []string{
		"-n", "300", "-trials", "1", "-r", "6", "-figure", "3",
		"-progress", "off", "-trace-out", trace, "-metrics", "json", "-cpuprofile", cpu,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("trace line %d is not valid JSON: %s", i+1, line)
		}
	}
	if b, err := os.ReadFile(cpu); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("cpu profile not a gzip stream (err=%v)", err)
	}
}

func TestRunProgressModes(t *testing.T) {
	for _, mode := range []string{"text", "json", "off"} {
		err := run(context.Background(), []string{
			"-n", "300", "-trials", "1", "-r", "6", "-figure", "3", "-progress", mode})
		if err != nil {
			t.Errorf("run(-progress %s): %v", mode, err)
		}
	}
	if err := run(context.Background(), []string{"-n", "300", "-trials", "1", "-r", "6", "-progress", "bogus"}); err == nil {
		t.Fatal("bad progress mode accepted")
	}
}

// TestRunHTTPIntrospection: -http on an ephemeral port starts, serves the
// sweep, and shuts down cleanly; a bad address is a startup error.
func TestRunHTTPIntrospection(t *testing.T) {
	err := run(context.Background(), []string{
		"-n", "300", "-trials", "1", "-r", "6", "-figure", "3", "-quiet",
		"-http", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"-n", "300", "-trials", "1", "-r", "6", "-figure", "3", "-quiet",
		"-http", "not-an-address"}); err == nil {
		t.Fatal("bad -http address accepted")
	}
}
