package main

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// runWithin calls run and fails the test if it has not returned within a
// few seconds: every case here must fail before the daemon starts serving.
func runWithin(t *testing.T, args []string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run(args, io.Discard) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("run(%q) is still serving; want an early error", args)
		return nil
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	if err := runWithin(t, []string{"-no-such-flag"}); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}

func TestRunFailsOnAddressInUse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addrFile := filepath.Join(t.TempDir(), "addr")
	if err := runWithin(t, []string{"-addr", ln.Addr().String(), "-addr-file", addrFile}); err == nil {
		t.Fatalf("run listened on %s, which is already bound", ln.Addr())
	}
	if _, err := os.Stat(addrFile); !os.IsNotExist(err) {
		t.Errorf("failed run published an address file (stat err %v)", err)
	}
}

func TestWriteAddrFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "addr")
	if err := writeAddrFile(path, "127.0.0.1:4242"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "127.0.0.1:4242\n" {
		t.Errorf("address file = %q, want %q", got, "127.0.0.1:4242\n")
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "addr-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Errorf("temp files left behind: %v", leftovers)
	}
}

func TestWriteAddrFileMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "addr")
	if err := writeAddrFile(path, "127.0.0.1:4242"); err == nil {
		t.Fatal("writeAddrFile succeeded in a directory that does not exist")
	}
}
