// Integration tests for the command-line tools: the full deployment
// story of paper section 5 — tyconame (network name service), dityco
// (nodes over TCP), tycosh (program submission) — plus the tyco and
// tycoasm developer tools. The binaries are built once per test run.
package repro

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binaries builds every cmd into a shared temp dir.
func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "dityco-bin-")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"tyco", "tyconame", "dityco", "tycosh", "tycoasm", "tycobench"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, tool), "./cmd/"+tool)
			cmd.Dir = "."
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("build %s: %v\n%s", tool, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildDir
}

func TestTycoRunsProgram(t *testing.T) {
	bin := binaries(t)
	out, err := exec.Command(filepath.Join(bin, "tyco"), "-e",
		`def Cell(self, v) = self?{ read(r) = r![v] | Cell[self, v] }
		 in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = println("cell:", w)))`).CombinedOutput()
	if err != nil {
		t.Fatalf("tyco: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "cell: 9") {
		t.Fatalf("out = %q", out)
	}
}

func TestTycoTypeError(t *testing.T) {
	bin := binaries(t)
	out, err := exec.Command(filepath.Join(bin, "tyco"), "-e", `println(1 + true)`).CombinedOutput()
	if err == nil {
		t.Fatalf("type error not reported: %s", out)
	}
	if !strings.Contains(string(out), "type error") {
		t.Fatalf("out = %q", out)
	}
}

func TestTycoShowAssembly(t *testing.T) {
	bin := binaries(t)
	out, err := exec.Command(filepath.Join(bin, "tyco"), "-S", "-e", `new x x![1]`).CombinedOutput()
	if err != nil {
		t.Fatalf("tyco -S: %v\n%s", err, out)
	}
	for _, want := range []string{".unit", ".block", "newc", "send"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("assembly missing %q:\n%s", want, out)
		}
	}
}

func TestTycoasmCompileDisassembleVerify(t *testing.T) {
	bin := binaries(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.ty")
	if err := os.WriteFile(src, []byte(`new x (x![2] | x?(v) = println(v * 21))`), 0o644); err != nil {
		t.Fatal(err)
	}
	tycoasm := filepath.Join(bin, "tycoasm")
	if out, err := exec.Command(tycoasm, "-c", src).CombinedOutput(); err != nil {
		t.Fatalf("compile: %v\n%s", err, out)
	}
	unit := filepath.Join(dir, "prog.tyco")
	if out, err := exec.Command(tycoasm, "-verify", unit).CombinedOutput(); err != nil {
		t.Fatalf("verify: %v\n%s", err, out)
	} else if !strings.Contains(string(out), "verifies") {
		t.Fatalf("verify out = %q", out)
	}
	out, err := exec.Command(tycoasm, "-d", unit).CombinedOutput()
	if err != nil {
		t.Fatalf("disasm: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "send") {
		t.Fatalf("disassembly = %q", out)
	}
}

// freePort grabs an ephemeral port and releases it for a child
// process to bind.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestFullDeployment drives the paper's deployment: a name service, two
// node daemons on TCP, and two tycosh submissions whose sites interact
// across the network (a remote message with a shipped-back reply).
func TestFullDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test")
	}
	bin := binaries(t)
	nsAddr := freePort(t)
	n1Listen, n1IO := freePort(t), freePort(t)
	n2Listen, n2IO := freePort(t), freePort(t)

	start := func(name string, args ...string) *exec.Cmd {
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	start("tyconame", "-listen", nsAddr)
	waitPort(t, nsAddr)
	start("dityco", "-node", "1", "-listen", n1Listen, "-ioport", n1IO, "-ns", nsAddr,
		"-peers", "2="+n2Listen)
	start("dityco", "-node", "2", "-listen", n2Listen, "-ioport", n2IO, "-ns", nsAddr,
		"-peers", "1="+n1Listen)
	waitPort(t, n1IO)
	waitPort(t, n2IO)

	// Server on node 1: a squaring service. Submit via the tycosh
	// binary and stream its output in the background.
	serverOut := submitViaShell(t, bin, n1IO, "server",
		`def Serve(p) = p?(x, r) = (r![x * x] | Serve[p]) in export new p Serve[p]`)
	// Client on node 2: one RPC, print the result.
	clientOut := submitViaShell(t, bin, n2IO, "client",
		`import p from server in let y = p![12] in println("answer", y)`)

	deadline := time.After(30 * time.Second)
	for {
		if strings.Contains(clientOut.String(), "answer 144") {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("client never produced the answer.\nclient: %q\nserver: %q",
				clientOut.String(), serverOut.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// shellOutput accumulates a tycosh session's streamed output.
type shellOutput struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *shellOutput) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func submitViaShell(t *testing.T, bin, ioAddr, site, src string) *shellOutput {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, "tycosh"), "-node", ioAddr, "-site", site, "-e", src)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	out := &shellOutput{}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			out.mu.Lock()
			out.b.WriteString(sc.Text())
			out.b.WriteString("\n")
			out.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return out
}

func waitPort(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("port %s never came up", addr)
}

// TestDitycoRejectsNSList pins the single-address -ns flag: the
// authority shards behind one address, so a comma-separated list is a
// configuration error, not a replica set.
func TestDitycoRejectsNSList(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test")
	}
	bin := binaries(t)
	out, err := exec.Command(filepath.Join(bin, "dityco"), "-ns", "127.0.0.1:1,127.0.0.1:2").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-ns takes one address") {
		t.Fatalf("dityco accepted an address list: err=%v output=%q", err, out)
	}
}
