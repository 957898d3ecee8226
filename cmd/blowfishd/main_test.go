package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestInvalidBudgetExits runs the daemon's main in a child process with a
// budget that NewAccountant rejects: it must exit non-zero before serving,
// never fall back to unlimited tenant ledgers.
func TestInvalidBudgetExits(t *testing.T) {
	if args := os.Getenv("BLOWFISHD_TEST_ARGS"); args != "" {
		os.Args = append([]string{"blowfishd"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-tenant-eps -1", "-tenant-eps NaN", "-tenant-eps +Inf", "-tenant-eps 1 -tenant-delta -0.5"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestInvalidBudgetExits$")
		cmd.Env = append(os.Environ(), "BLOWFISHD_TEST_ARGS=-addr 127.0.0.1:0 "+args)
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err %v, want exit status 2; output:\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "non-finite or negative budget") {
			t.Errorf("%s: output does not name the invalid budget:\n%s", args, out)
		}
	}
}
