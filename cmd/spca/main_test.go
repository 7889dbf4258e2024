package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"spca"
)

// TestMain lets a test re-execute this test binary as the spca command
// itself (see runCommand).
func TestMain(m *testing.M) {
	if os.Getenv("SPCA_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs the spca command with args in a child process and returns
// its standard error.
func runCommand(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SPCA_TEST_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("spca %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stderr.String()
}

// TestNormalExitReportsNoInterrupt runs short fits to completion: a run that
// received no signal must not tell the user it was interrupted. The exit
// path's own context cleanup must not look like a signal to the watcher.
func TestNormalExitReportsNoInterrupt(t *testing.T) {
	for i := 0; i < 10; i++ {
		stderr := runCommand(t, "-dataset", "tweets", "-rows", "200", "-cols", "40", "-d", "3", "-iters", "2")
		if strings.Contains(stderr, "interrupted") {
			t.Fatalf("run %d: normal exit reported an interrupt:\n%s", i, stderr)
		}
	}
}

func TestLoadInputValidation(t *testing.T) {
	if _, err := loadInput("", "", 0, 0, 0, 1, 0); err == nil {
		t.Fatal("expected error with neither -in nor -dataset")
	}
	if _, err := loadInput("x", "tweets", 10, 10, 0, 1, 0); err == nil {
		t.Fatal("expected error with both -in and -dataset")
	}
	if _, err := loadInput("", "bogus-kind", 10, 10, 0, 1, 0); err == nil {
		t.Fatal("expected error for unknown dataset kind")
	}
	if _, err := loadInput(filepath.Join(t.TempDir(), "missing"), "", 0, 0, 0, 1, 0); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestLoadInputGenerate(t *testing.T) {
	y, err := loadInput("", "tweets", 50, 30, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if y.R != 50 || y.C != 30 {
		t.Fatalf("dims %dx%d", y.R, y.C)
	}
}

func TestLoadInputFile(t *testing.T) {
	y := spca.GenerateDataset(spca.DatasetSpec{Kind: spca.Tweets, Rows: 20, Cols: 15, Seed: 3})
	path := filepath.Join(t.TempDir(), "m.spmx")
	if err := spca.SaveSparseFile(path, y, false); err != nil {
		t.Fatal(err)
	}
	got, err := loadInput(path, "", 0, 0, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != y.NNZ() {
		t.Fatal("file round trip mismatch")
	}
}
