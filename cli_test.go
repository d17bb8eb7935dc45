package gfmap

// End-to-end tests of the command-line tools: each binary is built once
// into a temporary directory and driven the way a user would drive it.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildTools compiles all commands once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "gfmap-cli")
		if err != nil {
			buildErr = err
			return
		}
		buildDir = dir
		cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
			"./cmd/asyncmap", "./cmd/hazardcheck", "./cmd/libaudit", "./cmd/paperbench", "./cmd/tracelint")
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("build output: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building CLIs: %v", buildErr)
	}
	return buildDir
}

func run(t *testing.T, name string, stdin string, args ...string) (string, int) {
	t.Helper()
	stdout, stderr, code := runSplit(t, name, stdin, args...)
	return stdout + stderr, code
}

// runSplit runs a built tool keeping stdout and stderr separate, for
// tests of the stream contract.
func runSplit(t *testing.T, name string, stdin string, args ...string) (string, string, int) {
	t.Helper()
	dir := buildTools(t)
	cmd := exec.Command(filepath.Join(dir, name), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v\n%s%s", name, err, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String(), code
}

const fig3Eqn = `
INPUT(a, b, c)
OUTPUT(f)
f = a*b + a'*c + b*c;
`

func TestCLIAsyncmapStdin(t *testing.T) {
	out, code := run(t, "asyncmap", fig3Eqn, "-lib", "LSI9K", "-mode", "async", "-verify")
	if code != 0 {
		t.Fatalf("asyncmap failed (%d):\n%s", code, out)
	}
	for _, want := range []string{"mode=async", "hazard safety: cones checked", "new hazards 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIAsyncmapSyncIntroducesHazard(t *testing.T) {
	out, code := run(t, "asyncmap", fig3Eqn, "-lib", "LSI9K", "-mode", "sync", "-verify")
	if code != 2 {
		t.Fatalf("sync verify should exit 2 on introduced hazards, got %d:\n%s", code, out)
	}
	if !strings.Contains(out, "not a subset") {
		t.Errorf("expected a hazard-violation detail:\n%s", out)
	}
}

func TestCLIAsyncmapFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig3.eqn")
	if err := os.WriteFile(path, []byte(fig3Eqn), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "asyncmap", "", "-lib", "CMOS3", "-q", path)
	if code != 0 {
		t.Fatalf("asyncmap file failed (%d):\n%s", code, out)
	}
	if strings.Contains(out, "INPUT(") {
		t.Error("-q should suppress the netlist body")
	}
	if !strings.Contains(out, "library=CMOS3") {
		t.Errorf("missing stats line:\n%s", out)
	}
}

func TestCLIAsyncmapBadInput(t *testing.T) {
	if out, code := run(t, "asyncmap", "garbage", "-lib", "LSI9K"); code == 0 {
		t.Errorf("garbage input should fail:\n%s", out)
	}
	if out, code := run(t, "asyncmap", fig3Eqn, "-lib", "NoSuchLib"); code == 0 {
		t.Errorf("unknown library should fail:\n%s", out)
	}
}

func TestCLIHazardcheck(t *testing.T) {
	out, code := run(t, "hazardcheck", "", "s'*a + s*b")
	if code != 0 {
		t.Fatalf("hazardcheck failed (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "static-1") {
		t.Errorf("mux report missing static-1 hazard:\n%s", out)
	}
	out, code = run(t, "hazardcheck", "", "-fix", "s'*a + s*b")
	if code != 0 || !strings.Contains(out, "repaired cover") {
		t.Errorf("fix output wrong (%d):\n%s", code, out)
	}
	if _, code := run(t, "hazardcheck", "", "((("); code == 0 {
		t.Error("bad expression should fail")
	}
}

func TestCLILibaudit(t *testing.T) {
	out, code := run(t, "libaudit", "")
	if code != 0 {
		t.Fatalf("libaudit failed (%d):\n%s", code, out)
	}
	for _, want := range []string{"LSI9K", "CMOS3", "GDT", "Actel", "29%"} {
		if !strings.Contains(out, want) {
			t.Errorf("census missing %q:\n%s", want, out)
		}
	}
	out, code = run(t, "libaudit", "", "-lib", "ActelAct2")
	if code != 0 {
		t.Fatalf("libaudit ActelAct2 failed (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "0 hazardous (0%)") {
		t.Errorf("Act2 should audit hazard-free:\n%s", out)
	}
}

// TestCLILibauditVerboseGolden pins the per-cell reports of libaudit -v
// byte for byte: annotation no longer keeps the compact §4 records, so
// the tool computes them itself and must print exactly what it printed
// when annotation did.
func TestCLILibauditVerboseGolden(t *testing.T) {
	for _, lib := range []string{"Actel", "LSI9K"} {
		want, err := os.ReadFile(filepath.Join("testdata", "libaudit", lib+"-v.txt"))
		if err != nil {
			t.Fatal(err)
		}
		out, _, code := runSplit(t, "libaudit", "", "-lib", lib, "-v")
		if code != 0 {
			t.Fatalf("libaudit -lib %s -v failed (%d):\n%s", lib, code, out)
		}
		if out != string(want) {
			t.Errorf("libaudit -lib %s -v differs from testdata/libaudit/%s-v.txt", lib, lib)
		}
	}
}

func TestCLIPaperbenchTable1(t *testing.T) {
	out, code := run(t, "paperbench", "", "-table", "1")
	if code != 0 {
		t.Fatalf("paperbench failed (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "MUX") {
		t.Errorf("table 1 output wrong:\n%s", out)
	}
}

// TestCLIStatsJSONStderr pins the stream contract: with the netlist on
// stdout, -stats json must put the JSON on stderr so piped netlists stay
// machine-parseable; with -q the JSON owns stdout.
func TestCLIStatsJSONStderr(t *testing.T) {
	stdout, stderr, code := runSplit(t, "asyncmap", fig3Eqn, "-lib", "LSI9K", "-stats", "json")
	if code != 0 {
		t.Fatalf("asyncmap failed (%d):\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "INPUT(") {
		t.Errorf("netlist missing from stdout:\n%s", stdout)
	}
	if strings.Contains(stdout, `"Mode"`) {
		t.Errorf("stats JSON leaked onto stdout:\n%s", stdout)
	}
	var st struct {
		Mode  string
		Gates int
	}
	if err := json.Unmarshal([]byte(stderr), &st); err != nil {
		t.Fatalf("stderr is not a stats JSON object: %v\n%s", err, stderr)
	}
	if st.Mode != "async" || st.Gates == 0 {
		t.Errorf("stats JSON wrong: %+v", st)
	}

	stdout, stderr, code = runSplit(t, "asyncmap", fig3Eqn, "-lib", "LSI9K", "-stats", "json", "-q")
	if code != 0 {
		t.Fatalf("asyncmap -q failed (%d):\n%s%s", code, stdout, stderr)
	}
	if err := json.Unmarshal([]byte(stdout), &st); err != nil {
		t.Fatalf("with -q the stats JSON should own stdout: %v\n%s", err, stdout)
	}
	if strings.TrimSpace(stderr) != "" {
		t.Errorf("unexpected stderr with -q: %s", stderr)
	}
}

// TestCLIAsyncmapTrace drives the whole observability surface: trace and
// event files are written, the trace passes the tracelint schema checker
// with all pipeline-phase spans required, and -hist emits comment-style
// histogram lines that don't break the netlist stream.
func TestCLIAsyncmapTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	events := filepath.Join(dir, "events.jsonl")
	stdout, stderr, code := runSplit(t, "asyncmap", fig3Eqn,
		"-lib", "LSI9K", "-trace", trace, "-events", events, "-hist")
	if code != 0 {
		t.Fatalf("asyncmap failed (%d):\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "INPUT(") {
		t.Errorf("netlist missing:\n%s", stdout)
	}
	for _, want := range []string{"# hist map_hazard_analyze_seconds", "# hist map_cuts_per_node", "# counter map_cones = 1"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-hist output missing %q:\n%s", want, stdout)
		}
	}
	for _, ln := range strings.Split(stdout, "\n") {
		if ln != "" && !strings.HasPrefix(ln, "#") && !strings.HasPrefix(ln, "INPUT") &&
			!strings.HasPrefix(ln, "OUTPUT") && !strings.Contains(ln, "=") {
			t.Errorf("non-comment, non-netlist line on stdout: %q", ln)
		}
	}
	lintOut, lintCode := run(t, "tracelint", "",
		"-require", "decompose,partition,cuts,match,hazard,cover,emit", trace, events)
	if lintCode != 0 {
		t.Fatalf("tracelint rejected the trace (%d):\n%s", lintCode, lintOut)
	}
	if !strings.Contains(lintOut, "OK") {
		t.Errorf("tracelint output: %s", lintOut)
	}

	// The traced run must produce the same netlist as an untraced one.
	plain, _, code := runSplit(t, "asyncmap", fig3Eqn, "-lib", "LSI9K")
	if code != 0 {
		t.Fatal("untraced run failed")
	}
	netlistOf := func(out string) string {
		var keep []string
		for _, ln := range strings.Split(out, "\n") {
			if !strings.HasPrefix(ln, "#") {
				keep = append(keep, ln)
			}
		}
		return strings.Join(keep, "\n")
	}
	if netlistOf(stdout) != netlistOf(plain) {
		t.Errorf("tracing perturbed the netlist:\n%s\nvs\n%s", netlistOf(stdout), netlistOf(plain))
	}
}

// TestCLITracelintRejects: the schema checker must fail on malformed
// traces and on traces missing required spans.
func TestCLITracelintRejects(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"traceEvents":[{"ph":"X"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := run(t, "tracelint", "", bad); code == 0 {
		t.Errorf("nameless event should fail lint:\n%s", out)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"traceEvents":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := run(t, "tracelint", "", "-require", "decompose", empty); code == 0 {
		t.Errorf("missing required span should fail lint:\n%s", out)
	}
	notJSON := filepath.Join(dir, "nope.json")
	if err := os.WriteFile(notJSON, []byte(`garbage`), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := run(t, "tracelint", "", notJSON); code == 0 {
		t.Errorf("garbage should fail lint:\n%s", out)
	}
}

// TestCLIPaperbenchJSON: the -json report is valid JSON, stamped with an
// environment fingerprint, and carries per-design histogram summaries.
func TestCLIPaperbenchJSON(t *testing.T) {
	stdout, stderr, code := runSplit(t, "paperbench", "", "-json", "-", "-lib", "Actel")
	if code != 0 {
		t.Fatalf("paperbench -json failed (%d):\n%s", code, stderr)
	}
	var rep struct {
		Fingerprint struct {
			GoVersion  string `json:"go_version"`
			GOOS       string `json:"goos"`
			NumCPU     int    `json:"num_cpu"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			Library    string `json:"library"`
		} `json:"fingerprint"`
		Designs []struct {
			Design     string                     `json:"design"`
			Gates      int                        `json:"gates"`
			Histograms map[string]json.RawMessage `json:"histograms"`
		} `json:"designs"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Fingerprint.GoVersion == "" || rep.Fingerprint.GOOS == "" ||
		rep.Fingerprint.NumCPU < 1 || rep.Fingerprint.GOMAXPROCS < 1 {
		t.Errorf("fingerprint incomplete: %+v", rep.Fingerprint)
	}
	if rep.Fingerprint.Library != "Actel" {
		t.Errorf("fingerprint library = %q", rep.Fingerprint.Library)
	}
	if len(rep.Designs) == 0 {
		t.Fatal("no designs in report")
	}
	for _, d := range rep.Designs {
		if d.Gates == 0 {
			t.Errorf("%s: no gates", d.Design)
		}
		if _, ok := d.Histograms["map_cuts_per_node"]; !ok {
			t.Errorf("%s: missing cuts-per-node histogram", d.Design)
		}
	}
}

func TestCLIAsyncmapCustomLibrary(t *testing.T) {
	dir := t.TempDir()
	lib := filepath.Join(dir, "tiny.genlib")
	if err := os.WriteFile(lib, []byte(`
LIBRARY tiny
GATE INV - 0.3 a' ;
GATE BUF - 0.3 a ;
GATE AND2 - 0.5 a*b ;
GATE OR2 - 0.5 a + b ;
GATE MUX - 0.8 s'*a + s*b ;
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "asyncmap", fig3Eqn, "-libfile", lib, "-mode", "async", "-verify")
	if code != 0 {
		t.Fatalf("custom library mapping failed (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "new hazards 0") {
		t.Errorf("verification missing:\n%s", out)
	}
}
