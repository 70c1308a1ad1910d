// Package cmd_test runs the four CLI tools end to end as compiled
// binaries: generate a sampled workload, link it (with and without LSH),
// and grade the links against the truth file — the complete workflow a
// downstream user would script.
package cmd_test

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// build compiles one command into dir and returns the binary path.
func build(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "slim/cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var so, se strings.Builder
	cmd.Stdout = &so
	cmd.Stderr = &se
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", bin, args, err, so.String(), se.String())
	}
	return so.String(), se.String()
}

func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	genBin := build(t, dir, "slim-gen")
	linkBin := build(t, dir, "slim-link")
	evalBin := build(t, dir, "slim-eval")

	// 1. Generate a sampled workload.
	_, genErr := runCmd(t, genBin,
		"-kind", "cab", "-taxis", "24", "-days", "2", "-interval", "420",
		"-sample", "-ratio", "0.5", "-inclusion", "0.6", "-dir", dir, "-seed", "5")
	if !strings.Contains(genErr, "true pairs") {
		t.Fatalf("slim-gen summary missing: %s", genErr)
	}
	for _, f := range []string{"E.csv", "I.csv", "truth.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing output %s: %v", f, err)
		}
	}

	// 2. Link without LSH.
	links, linkErr := runCmd(t, linkBin,
		"-e", filepath.Join(dir, "E.csv"), "-i", filepath.Join(dir, "I.csv"))
	if !strings.HasPrefix(links, "u,v,score") {
		t.Fatalf("slim-link header missing:\n%s", links)
	}
	if !strings.Contains(linkErr, "stop threshold") {
		t.Fatalf("slim-link summary missing:\n%s", linkErr)
	}
	linksPath := filepath.Join(dir, "links.csv")
	if err := os.WriteFile(linksPath, []byte(links), 0o644); err != nil {
		t.Fatal(err)
	}

	// 3. Grade.
	evalOut, _ := runCmd(t, evalBin,
		"-links", linksPath, "-truth", filepath.Join(dir, "truth.csv"))
	if !strings.Contains(evalOut, "precision:") || !strings.Contains(evalOut, "f1:") {
		t.Fatalf("slim-eval output malformed:\n%s", evalOut)
	}
	// The clean synthetic workload should link with decent quality.
	if strings.Contains(evalOut, "f1:        0.0") {
		t.Errorf("suspiciously poor CLI linkage:\n%s", evalOut)
	}

	// 4. Link again with LSH; summary must include filter stats.
	_, lshErr := runCmd(t, linkBin,
		"-e", filepath.Join(dir, "E.csv"), "-i", filepath.Join(dir, "I.csv"),
		"-lsh", "-lsh-threshold", "0.01", "-lsh-level", "12", "-lsh-step", "48")
	if !strings.Contains(lshErr, "lsh: rows=1 ") {
		t.Fatalf("slim-link LSH summary missing:\n%s", lshErr)
	}
}

// TestCLILinkQuotesIDs: ids holding a comma and a quote survive the
// whole pipeline. slim-link quotes them in its links CSV the way the
// dataset CSV does, so slim-eval's csv.Reader parses every row and grades
// the renamed workload exactly as it grades the original.
func TestCLILinkQuotesIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	genBin := build(t, dir, "slim-gen")
	linkBin := build(t, dir, "slim-link")
	evalBin := build(t, dir, "slim-eval")
	runCmd(t, genBin, "-kind", "cab", "-taxis", "24", "-days", "2", "-interval", "420",
		"-sample", "-inclusion", "0.6", "-dir", dir, "-seed", "5")
	plain, _ := runCmd(t, linkBin, "-e", filepath.Join(dir, "E.csv"), "-i", filepath.Join(dir, "I.csv"))
	gradePlain, _ := runCmd(t, evalBin, "-links", writeFile(t, dir, "links.csv", plain), "-truth", filepath.Join(dir, "truth.csv"))

	// Rename every id x to `x,"q` in both sides and the truth.
	rename := func(name string, cols ...int) string {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows[1:] {
			for _, c := range cols {
				row[c] += `,"q`
			}
		}
		var out strings.Builder
		cw := csv.NewWriter(&out)
		cw.WriteAll(rows)
		return writeFile(t, dir, "quoted-"+name, out.String())
	}
	ePath, iPath, truthPath := rename("E.csv", 0), rename("I.csv", 0), rename("truth.csv", 0, 1)
	quoted, _ := runCmd(t, linkBin, "-e", ePath, "-i", iPath)
	rows, err := csv.NewReader(strings.NewReader(quoted)).ReadAll()
	if err != nil {
		t.Fatalf("links CSV does not parse: %v\n%s", err, quoted)
	}
	if want := strings.Count(plain, "\n"); len(rows) != want || len(rows) < 2 {
		t.Fatalf("links CSV holds %d rows, want %d (the unrenamed run's)", len(rows), want)
	}
	for _, row := range rows[1:] {
		if !strings.HasSuffix(row[0], `,"q`) || !strings.HasSuffix(row[1], `,"q`) {
			t.Fatalf("link row %q lost its ids' comma or quote", row)
		}
	}
	gradeQuoted, _ := runCmd(t, evalBin, "-links", writeFile(t, dir, "quoted-links.csv", quoted), "-truth", truthPath)
	if gradeQuoted != gradePlain {
		t.Fatalf("renamed ids grade\n%s\nwant\n%s", gradeQuoted, gradePlain)
	}
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIGenGroundDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	genBin := build(t, dir, "slim-gen")
	out := filepath.Join(dir, "sm.csv")
	_, genErr := runCmd(t, genBin, "-kind", "sm", "-users", "50", "-days", "3", "-out", out)
	if !strings.Contains(genErr, "entities") {
		t.Fatalf("summary missing: %s", genErr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "entity,lat,lng,unix") {
		t.Fatalf("csv header missing:\n%.100s", data)
	}
}

func TestCLIExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	expBin := build(t, dir, "slim-experiments")
	out, _ := runCmd(t, expBin, "-tiny", "fig2")
	if !strings.Contains(out, "score histogram") || !strings.Contains(out, "finished in") {
		t.Fatalf("fig2 output malformed:\n%s", out)
	}
	out, _ = runCmd(t, expBin, "-tiny", "tuning")
	if !strings.Contains(out, "chosen level") {
		t.Fatalf("tuning output malformed:\n%s", out)
	}
}

// startSlimd launches the service binary and waits for it to log its
// bound address, returning the process, the base URL, and the boot line
// logged before it.
func startSlimd(t *testing.T, bin string, args ...string) (*exec.Cmd, string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// The service logs its bound address once it is serving: a structured
	// line with msg=listening and the addr attribute (the debug server's
	// line has a different, quoted msg and never matches).
	type listening struct{ addr, boot string }
	addrCh := make(chan listening, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		boot := ""
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "msg=boot ") {
				boot = line
			}
			if !strings.Contains(line, "msg=listening ") {
				continue
			}
			if i := strings.Index(line, "addr="); i >= 0 {
				rest := line[i+len("addr="):]
				if j := strings.Index(rest, " "); j > 0 {
					rest = rest[:j]
				}
				select {
				case addrCh <- listening{rest, boot}:
				default:
				}
			}
		}
	}()
	select {
	case l := <-addrCh:
		return cmd, "http://" + l.addr, l.boot
	case <-time.After(30 * time.Second):
		t.Fatal("slimd never reported its listen address")
		return nil, "", ""
	}
}

// TestCLISlimd boots the linkage service seeded with a generated
// workload, exercises its HTTP API from the outside, and shuts it down
// gracefully — the full service lifecycle as a deployment would see it.
func TestCLISlimd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	genBin := build(t, dir, "slim-gen")
	slimdBin := build(t, dir, "slimd")

	_, genErr := runCmd(t, genBin,
		"-kind", "cab", "-taxis", "20", "-days", "2", "-interval", "420",
		"-sample", "-ratio", "0.5", "-inclusion", "0.6", "-dir", dir, "-seed", "11")
	if !strings.Contains(genErr, "true pairs") {
		t.Fatalf("slim-gen summary missing: %s", genErr)
	}

	// A free loopback port for the debug listener (it logs its own line,
	// which startSlimd does not parse).
	dl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	debugAddr := dl.Addr().String()
	dl.Close()

	cmd, base, boot := startSlimd(t, slimdBin,
		"-addr", "127.0.0.1:0", "-debounce", "100ms", "-debug-addr", debugAddr,
		"-e", filepath.Join(dir, "E.csv"), "-i", filepath.Join(dir, "I.csv"))

	// One boot line before the listening line breaks the boot down by step
	// (engine_ms: no -data-dir), and leaves the address to that line.
	for _, key := range []string{"seeds_ms=", "engine_ms=", "link_ms=", "ready_ms="} {
		if !strings.Contains(boot, " "+key) {
			t.Errorf("boot line lacks %s: %q", key, boot)
		}
	}
	if strings.Contains(boot, "addr=") || strings.Contains(boot, "recover_ms=") {
		t.Errorf("boot line %q names an address or a recovery", boot)
	}

	// The debug address serves pprof and nothing else.
	for path, want := range map[string]int{"/debug/pprof/": 200, "/debug/vars": 404} {
		resp, err := http.Get("http://" + debugAddr + path)
		if err != nil {
			t.Fatalf("GET debug %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET debug %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	get := func(path string, v any) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	if code := get("/healthz", nil); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	// The seed datasets are linked at boot.
	var links struct {
		Total int `json:"total"`
	}
	if code := get("/v1/links", &links); code != 200 || links.Total == 0 {
		t.Fatalf("GET /v1/links = %d, total %d; want seeded links", code, links.Total)
	}
	var stats struct {
		EntitiesE int    `json:"entities_e"`
		Runs      uint64 `json:"runs"`
	}
	if code := get("/v1/stats", &stats); code != 200 || stats.EntitiesE == 0 || stats.Runs == 0 {
		t.Fatalf("GET /v1/stats = %d, %+v", code, stats)
	}

	// Freshness tracing end to end: ingest one batch over HTTP, force a
	// relink, and require the ingest-to-visible histogram to have counted
	// it and the staleness gauge to be back at ~0 (pipeline quiesced).
	getMetrics := func() string {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET /metrics = %d", resp.StatusCode)
		}
		return sb.String()
	}
	metric := func(body, sample string) float64 {
		t.Helper()
		for _, line := range strings.Split(body, "\n") {
			if rest, found := strings.CutPrefix(line, sample+" "); found {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("bad value for %s: %q", sample, rest)
				}
				return v
			}
		}
		t.Fatalf("metric %s absent from /metrics", sample)
		return 0
	}
	before := metric(getMetrics(), "slim_ingest_to_visible_seconds_count")
	body := strings.NewReader(`{"records":[{"entity":"fresh-1","lat":40.7,"lng":-74.0,"unix":1700000000}]}`)
	if resp, err := http.Post(base+"/v1/datasets/e/records", "application/json", body); err != nil || resp.StatusCode != 202 {
		t.Fatalf("ingest: %v (status %d)", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Post(base+"/v1/link", "application/json", nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("relink: %v (status %d)", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	after := getMetrics()
	if count := metric(after, "slim_ingest_to_visible_seconds_count"); count <= before {
		t.Errorf("slim_ingest_to_visible_seconds_count = %v, want > %v after ingest+relink", count, before)
	}
	if stale := metric(after, "slim_link_staleness_seconds"); stale > 1 {
		t.Errorf("slim_link_staleness_seconds = %v after quiesce, want ~0", stale)
	}

	// Graceful shutdown on SIGTERM.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("slimd exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("slimd did not shut down on SIGTERM")
	}
}

// TestCLISlimdChaos is the fault-injection e2e through the real binary:
// boot slimd with a deterministic -fault schedule (a WAL fsync failure
// and a relink panic), stream batches from the outside, and require the
// degraded-mode contract — a 503 + Retry-After naming the storage
// domain, self-healing, a contained panic visible in /metrics and
// /healthz — then kill -9 and prove the recovered linkage holds exactly
// the acked batches.
func TestCLISlimdChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	slimdBin := build(t, dir, "slimd")
	dataDir := filepath.Join(dir, "data")
	// Inline fsync so a nacked append never consumes a sequence number;
	// checkpoints off so the fault schedule counts WAL fsyncs only (the
	// log accounts for every batch either way: nothing truncates it). The
	// sync fault skips the boot write of the base and lands on an early
	// WAL append;
	// the relink panic fires on the first forced run (a fresh seedless
	// boot never runs on its own with a 1h debounce, so that run is ours).
	baseArgs := []string{"-addr", "127.0.0.1:0", "-debounce", "1h",
		"-threshold", "none", "-data-dir", dataDir, "-fsync-interval", "0",
		"-snapshot-every", "-1"}
	chaosArgs := append(append([]string{}, baseArgs...),
		"-fault", "fs.sync:error:after=3:count=1,engine.relink:panic=chaos:count=1")

	cmd1, base1, _ := startSlimd(t, slimdBin, chaosArgs...)

	getJSON := func(base, path string, v any) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("GET %s: decode: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	type healthz struct {
		Status  string `json:"status"`
		Domains []struct {
			Domain string `json:"domain"`
			Status string `json:"status"`
		} `json:"domains"`
	}
	domainStatus := func(base, domain string) (overall, status string) {
		t.Helper()
		var hz healthz
		if code := getJSON(base, "/healthz", &hz); code != 200 {
			t.Fatalf("healthz = %d, want 200 even mid-fault", code)
		}
		for _, d := range hz.Domains {
			if d.Domain == domain {
				return hz.Status, d.Status
			}
		}
		return hz.Status, ""
	}

	mkBody := func(e string, off float64, startUnix int64) string {
		var sb strings.Builder
		sb.WriteString(`{"records":[`)
		for k := 0; k < 20; k++ {
			if k > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, `{"entity":%q,"lat":%g,"lng":-122.3,"unix":%d}`,
				e, 37.5+off+float64(k%4)*0.06, startUnix+int64(k)*900)
		}
		sb.WriteString("]}")
		return sb.String()
	}

	// Stream three entity pairs; the armed fsync fault rejects one batch
	// with the degraded contract, after which the node must heal and the
	// retry must land. Every acked append consumes exactly one sequence
	// number, so the final next_seq pins "rejected batches left no trace".
	rejections, ackedAppends := 0, 0
	for i, e := range []string{"a", "b", "c"} {
		off := float64(i) * 0.8
		for _, ds := range []struct{ path, entity string }{
			{"/v1/datasets/e/records", "e-" + e},
			{"/v1/datasets/i/records", "i-" + e},
		} {
			body := mkBody(ds.entity, off, 1_000_000)
			deadline := time.Now().Add(15 * time.Second)
			for {
				resp, err := http.Post(base1+ds.path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				status := resp.StatusCode
				retryAfter := resp.Header.Get("Retry-After")
				var errBody struct {
					Domain string `json:"domain"`
				}
				if status != 202 {
					json.NewDecoder(resp.Body).Decode(&errBody)
				}
				resp.Body.Close()
				if status == 202 {
					ackedAppends++
					break
				}
				if status != 503 {
					t.Fatalf("ingest %s: status %d, want 202 or degraded 503", ds.entity, status)
				}
				if retryAfter == "" || errBody.Domain != "storage" {
					t.Fatalf("degraded 503 contract violated: Retry-After=%q domain=%q",
						retryAfter, errBody.Domain)
				}
				rejections++
				// Liveness holds while degraded; then wait out the reopen.
				if overall, storageDom := domainStatus(base1, "storage"); overall == "degraded" && storageDom != "degraded" {
					t.Fatalf("healthz overall=%s but storage domain=%q", overall, storageDom)
				}
				for {
					if _, storageDom := domainStatus(base1, "storage"); storageDom == "healthy" {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("storage domain never healed after fault exhausted")
					}
					time.Sleep(20 * time.Millisecond)
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("ingest %s never acked", ds.entity)
			}
		}
	}
	if rejections == 0 {
		t.Fatal("armed fsync fault never landed — no batch was rejected")
	}
	if ackedAppends != 6 {
		t.Fatalf("acked appends = %d, want 6", ackedAppends)
	}

	post := func(base, path string) int {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// The first forced run hits the armed relink panic. Containment means
	// it still answers 200 (republishing the previous — here empty —
	// result) and the process survives.
	if code := post(base1, "/v1/link"); code != 200 {
		t.Fatalf("panicked /v1/link = %d, want 200 (contained, previous result republished)", code)
	}
	if overall, relinkDom := domainStatus(base1, "relink"); overall != "degraded" || relinkDom != "degraded" {
		t.Fatalf("healthz after contained panic: overall=%s relink=%s, want degraded", overall, relinkDom)
	}
	metrics := func(base string) string {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if body := metrics(base1); !strings.Contains(body, "slim_relink_panics_total 1") {
		t.Error("slim_relink_panics_total != 1 after contained panic")
	}
	// The next run recovers the relink domain and republishes fresh links.
	if code := post(base1, "/v1/link"); code != 200 {
		t.Fatalf("recovery /v1/link = %d", code)
	}
	if overall, relinkDom := domainStatus(base1, "relink"); overall != "ok" || relinkDom != "healthy" {
		t.Fatalf("healthz after recovery run: overall=%s relink=%s, want healthy", overall, relinkDom)
	}

	type linkJSON struct {
		U     string  `json:"u"`
		V     string  `json:"v"`
		Score float64 `json:"score"`
	}
	getLinks := func(base string) (links []linkJSON) {
		t.Helper()
		var out struct {
			Links []linkJSON `json:"links"`
		}
		if code := getJSON(base, "/v1/links", &out); code != 200 {
			t.Fatalf("GET /v1/links = %d", code)
		}
		return out.Links
	}
	before := getLinks(base1)
	if len(before) != 3 {
		t.Fatalf("post-chaos links = %+v, want 3 pairs", before)
	}

	// kill -9 mid-flight, then recover on the same directory with no
	// faults armed: the linkage must rebuild from exactly the acked WAL.
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()
	cmd2, base2, _ := startSlimd(t, slimdBin, baseArgs...)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base2 + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered slimd never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
	after := getLinks(base2)
	if len(after) != len(before) {
		t.Fatalf("recovered links = %+v, want %+v", after, before)
	}
	sort.Slice(before, func(i, j int) bool { return before[i].U < before[j].U })
	sort.Slice(after, func(i, j int) bool { return after[i].U < after[j].U })
	for i := range before {
		if before[i].U != after[i].U || before[i].V != after[i].V ||
			math.Abs(before[i].Score-after[i].Score) > 1e-9 {
			t.Fatalf("link %d drifted across chaos crash: %+v vs %+v", i, before[i], after[i])
		}
	}
	var stats struct {
		Storage *struct {
			NextSeq uint64 `json:"next_seq"`
		} `json:"storage"`
	}
	if code := getJSON(base2, "/v1/stats", &stats); code != 200 {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	if stats.Storage == nil || stats.Storage.NextSeq != 7 {
		t.Fatalf("recovered storage stats = %+v, want next_seq 7 (rejected appends consume no seq)",
			stats.Storage)
	}

	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd2.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("recovered slimd exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("recovered slimd did not shut down on SIGTERM")
	}
}

func TestCLIErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	linkBin := build(t, dir, "slim-link")
	evalBin := build(t, dir, "slim-eval")

	// Missing required flags must exit non-zero.
	if err := exec.Command(linkBin).Run(); err == nil {
		t.Error("slim-link without flags should fail")
	}
	if err := exec.Command(evalBin).Run(); err == nil {
		t.Error("slim-eval without flags should fail")
	}
	// Nonexistent input file.
	if err := exec.Command(linkBin, "-e", "nope.csv", "-i", "nope2.csv").Run(); err == nil {
		t.Error("slim-link with missing files should fail")
	}

	// slim-experiments without a figure, or with an unknown one, exits 2
	// with a usage line naming every figure, in run order, and "all".
	expBin := build(t, dir, "slim-experiments")
	want := []string{"fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "tuning", "thresholds", "all"}
	for _, args := range [][]string{nil, {"fig3"}} {
		var stderr strings.Builder
		cmd := exec.Command(expBin, args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("slim-experiments %v: %v, want exit status 2", args, err)
		}
		_, names, _ := strings.Cut(stderr.String(), "<")
		names, _, _ = strings.Cut(names, ">")
		if got := strings.Split(names, "|"); !slices.Equal(got, want) {
			t.Errorf("slim-experiments %v: usage names %q, want %q", args, got, want)
		}
	}
}

// TestCLISlimdCrashRecovery is the durability e2e: stream batches into a
// slimd with a data directory, kill -9 the process, restart it on the
// same directory, and require the recovered service to serve identical
// links (modulo relink version) without re-ingesting anything.
func TestCLISlimdCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	slimdBin := build(t, dir, "slimd")
	dataDir := filepath.Join(dir, "data")
	args := []string{"-addr", "127.0.0.1:0", "-debounce", "1h",
		"-threshold", "none", "-data-dir", dataDir, "-fsync-interval", "1ms"}

	cmd1, base1, boot1 := startSlimd(t, slimdBin, args...)
	if !strings.Contains(boot1, " recover_ms=") || strings.Contains(boot1, "engine_ms=") {
		t.Errorf("boot line with -data-dir times recovery, not an engine build: %q", boot1)
	}

	type linkJSON struct {
		U     string  `json:"u"`
		V     string  `json:"v"`
		Score float64 `json:"score"`
	}
	getLinks := func(base string) (links []linkJSON) {
		t.Helper()
		resp, err := http.Get(base + "/v1/links")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Links []linkJSON `json:"links"`
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET /v1/links = %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Links
	}
	post := func(base, path string, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Stream three entity pairs in separate acknowledged batches.
	mkBody := func(e string, off float64, startUnix int64) string {
		var sb strings.Builder
		sb.WriteString(`{"records":[`)
		for k := 0; k < 20; k++ {
			if k > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, `{"entity":%q,"lat":%g,"lng":-122.3,"unix":%d}`,
				e, 37.5+off+float64(k%4)*0.06, startUnix+int64(k)*900)
		}
		sb.WriteString("]}")
		return sb.String()
	}
	for i, e := range []string{"a", "b", "c"} {
		off := float64(i) * 0.8
		if resp := post(base1, "/v1/datasets/e/records", mkBody("e-"+e, off, 1_000_000)); resp.StatusCode != 202 {
			t.Fatalf("ingest e-%s = %d", e, resp.StatusCode)
		}
		if resp := post(base1, "/v1/datasets/i/records", mkBody("i-"+e, off, 1_000_030)); resp.StatusCode != 202 {
			t.Fatalf("ingest i-%s = %d", e, resp.StatusCode)
		}
	}
	if resp := post(base1, "/v1/link", ""); resp.StatusCode != 200 {
		t.Fatalf("POST /v1/link = %d", resp.StatusCode)
	}
	before := getLinks(base1)
	if len(before) != 3 {
		t.Fatalf("pre-crash links = %+v, want 3 pairs", before)
	}

	// kill -9: no graceful shutdown, no final checkpoint.
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()

	// Restart on the same directory: recovery must replay the WAL. The
	// seedless restart proves the links come from the data dir alone.
	cmd2, base2, _ := startSlimd(t, slimdBin, args...)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base2 + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted slimd never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
	after := getLinks(base2)
	if len(after) != len(before) {
		t.Fatalf("recovered links = %+v, want %+v", after, before)
	}
	sortFn := func(ls []linkJSON) {
		sort.Slice(ls, func(i, j int) bool { return ls[i].U < ls[j].U })
	}
	sortFn(before)
	sortFn(after)
	for i := range before {
		if before[i].U != after[i].U || before[i].V != after[i].V ||
			math.Abs(before[i].Score-after[i].Score) > 1e-9 {
			t.Fatalf("link %d drifted across crash: %+v vs %+v", i, before[i], after[i])
		}
	}

	// Storage stats prove the persistence pipeline was exercised.
	resp, err := http.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Storage *struct {
			NextSeq uint64 `json:"next_seq"`
		} `json:"storage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Storage == nil || stats.Storage.NextSeq != 7 {
		t.Fatalf("recovered storage stats = %+v, want next_seq 7 (6 replayed batches)", stats.Storage)
	}

	// Graceful shutdown of the recovered process.
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd2.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("recovered slimd exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("recovered slimd did not shut down on SIGTERM")
	}
}
