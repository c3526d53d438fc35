package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the slinfer command: with
// SLINFER_MAIN_ARGS set, the process runs main on those arguments instead
// of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SLINFER_MAIN_ARGS"); ok {
		os.Args = append([]string{"slinfer"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command on args and returns its combined output and
// exit code.
func runMain(t *testing.T, args string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SLINFER_MAIN_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("run %q: %v", args, err)
	}
	return string(out), 0
}

// Negative prefix-store sizes used to be coerced to the defaults and run;
// the flag check now rejects them before any trace is read. A negative
// -prefix-cpu-mb keeps its documented meaning (no host tier). Impossible
// testbeds are rejected the same way: a negative node count used to run
// with no nodes of that kind, and -cpu 0 -gpu 0 silently became 4+4 on a
// single replay and node-less shards on a fleet.
func TestNegativePrefixSizesRejected(t *testing.T) {
	missing := t.TempDir() + "/missing.jsonl"
	for _, c := range []struct{ args, want string }{
		{"-prefix -prefix-gpu-mb -5", "-prefix-gpu-mb must be >= 0, got -5"},
		{"-prefix -prefix-block -3", "-prefix-block must be >= 0, got -3"},
		{"-cpu -1", "-cpu must be >= 0, got -1"},
		{"-gpu -2", "-gpu must be >= 0, got -2"},
		{"-cpu 0 -gpu 0", "-cpu and -gpu are both 0"},
		{"-cpu 0 -gpu 0 -shards 2", "-cpu and -gpu are both 0"},
	} {
		out, code := runMain(t, "-trace "+missing+" "+c.args)
		if code != 2 || !strings.Contains(out, c.want) {
			t.Errorf("%s: exit %d, output:\n%s\nwant exit 2 and %q", c.args, code, out, c.want)
		}
	}
	if out, code := runMain(t, "-trace "+missing+" -prefix -prefix-cpu-mb -1"); code == 2 {
		t.Errorf("-prefix-cpu-mb -1 rejected by the flag check:\n%s", out)
	}
}
