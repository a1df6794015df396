package gendpr_test

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCLIs compiles every command into a temporary directory once per test
// run and returns the directory.
func buildCLIs(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration test builds binaries")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	return dir
}

func runCLI(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestCLIEndToEnd drives the whole toolchain: dataset generation, an
// in-process federation run with a signed release, release verification,
// and a real multi-process deployment over TCP.
func TestCLIEndToEnd(t *testing.T) {
	bins := buildCLIs(t)
	data := t.TempDir()

	// 1. Generate a pre-sharded signed dataset.
	out := runCLI(t, filepath.Join(bins, "genomegen"),
		"-snps", "200", "-case", "240", "-out", data, "-shards", "3", "-sign=false")
	for _, want := range []string{"case.vcf", "reference.vcf", "shard-2.vcf"} {
		if !strings.Contains(out, want) {
			t.Fatalf("genomegen output missing %q:\n%s", want, out)
		}
	}

	// 2. Single-process federation with a signed release.
	releasePath := filepath.Join(data, "release.json")
	out = runCLI(t, filepath.Join(bins, "gendpr"),
		"-case", filepath.Join(data, "case.vcf"),
		"-reference", filepath.Join(data, "reference.vcf"),
		"-gdos", "3", "-f", "1",
		"-release", releasePath, "-study", "cli-test")
	if !strings.Contains(out, "selection: MAF") {
		t.Fatalf("gendpr output missing selection:\n%s", out)
	}
	if !strings.Contains(out, "combinations evaluated: 4") {
		t.Fatalf("gendpr output missing collusion combinations:\n%s", out)
	}

	// 3. Verify the release.
	out = runCLI(t, filepath.Join(bins, "gendpr-verify"),
		"-release", releasePath, "-key", releasePath+".pub", "-top", "2")
	if !strings.Contains(out, "signature: OK") {
		t.Fatalf("gendpr-verify did not accept the release:\n%s", out)
	}
	if !strings.Contains(out, `study "cli-test"`) {
		t.Fatalf("gendpr-verify lost the study id:\n%s", out)
	}

	// 4. Tampered releases must fail verification.
	raw, err := os.ReadFile(releasePath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `"studyId": "cli-test"`, `"studyId": "evil"`, 1)
	if tampered == string(raw) {
		t.Fatal("tampering substitution failed")
	}
	tamperedPath := filepath.Join(data, "tampered.json")
	if err := os.WriteFile(tamperedPath, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bins, "gendpr-verify"),
		"-release", tamperedPath, "-key", releasePath+".pub")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("gendpr-verify accepted a tampered release:\n%s", out)
	}

	// 5. Multi-process deployment: authority seed + two nodes + leader.
	seedPath := filepath.Join(data, "authority.seed")
	runCLI(t, filepath.Join(bins, "gendpr-authority"), "-out", seedPath)

	type nodeProc struct {
		cmd  *exec.Cmd
		addr string
	}
	var nodes []nodeProc
	for i := 0; i < 2; i++ {
		cmd := exec.Command(filepath.Join(bins, "gendpr-node"),
			"-listen", "127.0.0.1:0", // ephemeral: no port collisions across runs
			"-case", filepath.Join(data, "shard-"+string(rune('1'+i))+".vcf"),
			"-authority", seedPath,
			"-id", "gdo-"+string(rune('1'+i)))
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		// The node announces its bound address on the first stdout line.
		scanner := bufio.NewScanner(stdout)
		if !scanner.Scan() {
			t.Fatalf("node %d produced no output", i)
		}
		line := scanner.Text()
		idx := strings.LastIndex(line, "listening on ")
		if idx < 0 {
			t.Fatalf("node %d banner %q missing address", i, line)
		}
		addr := strings.TrimSpace(line[idx+len("listening on "):])
		go func() { // drain remaining output so the node never blocks
			for scanner.Scan() {
			}
		}()
		nodes = append(nodes, nodeProc{cmd: cmd, addr: addr})
	}
	defer func() {
		for _, n := range nodes {
			_ = n.cmd.Process.Kill()
			_, _ = n.cmd.Process.Wait()
		}
	}()

	// The leader retries are handled by TCP connect; give the nodes a
	// moment to bind by retrying the leader a few times.
	leaderBin := filepath.Join(bins, "gendpr-leader")
	leaderArgs := []string{
		"-members", nodes[0].addr + "," + nodes[1].addr,
		"-case", filepath.Join(data, "shard-0.vcf"),
		"-reference", filepath.Join(data, "reference.vcf"),
		"-authority", seedPath,
	}
	var leaderOut []byte
	var err2 error
	for attempt := 0; attempt < 50; attempt++ {
		leaderOut, err2 = exec.Command(leaderBin, leaderArgs...).CombinedOutput()
		if err2 == nil {
			break
		}
		if !strings.Contains(string(leaderOut), "connection refused") {
			t.Fatalf("gendpr-leader: %v\n%s", err2, leaderOut)
		}
		time.Sleep(100 * time.Millisecond) // nodes still binding
	}
	err = err2
	if err != nil {
		t.Fatalf("gendpr-leader never connected: %v\n%s", err, leaderOut)
	}
	if !strings.Contains(string(leaderOut), "selection: MAF") {
		t.Fatalf("leader output missing selection:\n%s", leaderOut)
	}
	for _, n := range nodes {
		if err := n.cmd.Wait(); err != nil {
			t.Errorf("node %s exited with %v", n.addr, err)
		}
	}
}

// TestCLIExperimentsSmoke exercises the experiments tool on its smallest
// configuration. Table 4 exits non-zero when GenDPR's selection differs from
// the centralized one, which runCLI turns into a failure.
func TestCLIExperimentsSmoke(t *testing.T) {
	bins := buildCLIs(t)
	out := runCLI(t, filepath.Join(bins, "experiments"), "-only", "table4", "-scale", "0.01")
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "GenDPR") {
		t.Fatalf("experiments output unexpected:\n%s", out)
	}
}
