package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"slim"
)

// slimdArgs are the flags both serve workloads boot slimd with (see
// serveDebounce); everything not named is the slimd default.
func slimdArgs(in *inputs, dataDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-lsh",
		"-debounce", serveDebounce.String(),
		"-run-journal", strconv.Itoa(serveRunJournal),
		"-e", in.ePath, "-i", in.iPath,
	}
}

// service is one running slimd and the harness's way to talk to it.
type service struct {
	proc *child
	base string
	ctl  *http.Client // control-plane calls outside the measured schedule
}

// boot starts slimd on dataDir and waits until /readyz answers 200.
func boot(h *harness, in *inputs, dataDir, logName string) (*service, error) {
	proc, err := h.start(filepath.Join(h.dir, logName), "", "slimd", slimdArgs(in, dataDir)...)
	if err != nil {
		return nil, err
	}
	addr, err := proc.waitListening(60 * time.Second)
	if err != nil {
		return nil, err
	}
	s := &service{proc: proc, base: "http://" + addr, ctl: newClient()}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.ctl.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, errors.New("slimd never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newClient returns a client with one connection of its own, so the
// number of connections to slimd is the number of sender goroutines.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

func (s *service) getJSON(path string, v any) error {
	resp, err := s.ctl.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads /metrics into name{labels} → value.
func (s *service) scrape() (map[string]float64, error) {
	resp, err := s.ctl.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, ln := range strings.Split(string(b), "\n") {
		if ln == "" || ln[0] == '#' {
			continue
		}
		k := strings.LastIndexByte(ln, ' ')
		if k < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(ln[k+1:], 64); err == nil {
			out[ln[:k]] = v
		}
	}
	return out, nil
}

// runJSON is the part of a /v1/runs entry the benchmark reads.
type runJSON struct {
	StartUnixMs  int64   `json:"start_unix_ms"`
	DurationMs   float64 `json:"duration_ms"`
	ShortCircuit bool    `json:"short_circuit"`
	Panicked     bool    `json:"panicked"`
	Rescored     int64   `json:"rescored"`
	Retained     int64   `json:"retained"`
}

// publishes reports whether the run made newly buffered records visible.
func (r runJSON) publishes() bool { return !r.ShortCircuit && !r.Panicked }

// runs returns the flight recorder's entries, oldest first.
func (s *service) runs(limit int) ([]runJSON, error) {
	var body struct {
		Runs []runJSON `json:"runs"`
	}
	if err := s.getJSON("/v1/runs?limit="+strconv.Itoa(limit), &body); err != nil {
		return nil, err
	}
	sort.SliceStable(body.Runs, func(a, b int) bool { return body.Runs[a].StartUnixMs < body.Runs[b].StartUnixMs })
	return body.Runs, nil
}

type statsJSON struct {
	IngestedE uint64 `json:"ingested_e"`
	IngestedI uint64 `json:"ingested_i"`
	Links     int    `json:"links"`
}

func (s *service) links() ([]slim.Link, error) {
	var body struct {
		Links []struct {
			U, V  string
			Score float64
		} `json:"links"`
	}
	if err := s.getJSON("/v1/links", &body); err != nil {
		return nil, err
	}
	out := make([]slim.Link, len(body.Links))
	for k, l := range body.Links {
		out[k] = slim.Link{U: slim.EntityID(l.U), V: slim.EntityID(l.V), Score: l.Score}
	}
	return out, nil
}

// shot is one request of the open-loop schedule: an ingest request, or a
// links page read when req is nil.
type shot struct {
	due time.Duration // offset from the start of the stream
	req *request
}

// outcome is what became of one shot.
type outcome struct {
	due, done time.Time
	// late is how long after it could have sent (the due time, or the end
	// of the previous request on this connection) the generator did send.
	late    time.Duration
	ok      bool
	records int
}

// fire sends the shots of one connection on schedule and never earlier.
// It is open loop: a late answer delays the next request's sending but
// not its due time, which is what latency is measured from.
func fire(base string, t0 time.Time, shots []shot, pageLimit, totalLinks int) []outcome {
	client := newClient()
	out := make([]outcome, 0, len(shots))
	var prevDone time.Time
	reads := 0
	for _, sh := range shots {
		due := t0.Add(sh.due)
		time.Sleep(time.Until(due))
		sent := time.Now()
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		o := outcome{due: due, late: sent.Sub(ready)}
		var resp *http.Response
		var err error
		if sh.req != nil {
			o.records = len(sh.req.recs)
			resp, err = client.Post(base+sh.req.path, sh.req.contentType, bytes.NewReader(sh.req.body))
		} else {
			offset := 0
			if totalLinks > 0 {
				offset = reads * pageLimit % totalLinks
			}
			reads++
			resp, err = client.Get(fmt.Sprintf("%s/v1/links?offset=%d&limit=%d", base, offset, pageLimit))
		}
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			o.ok = resp.StatusCode/100 == 2
		}
		o.done = time.Now()
		prevDone = o.done
		out = append(out, o)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// schedule lays the stream out on at most two sender goroutines, one
// connection each: the flushes' E and I requests side by side
// (serve_fresh) or one after the other on the first, with the links-page
// reads on the second (serve_revisit).
func schedule(in *inputs, sc scale) [2][]shot {
	var lanes [2][]shot
	for k := range in.flushes {
		due := time.Duration(k) * in.period
		fl := &in.flushes[k]
		if in.concurrentEI {
			lanes[0] = append(lanes[0], shot{due, &fl.reqs[0]})
			lanes[1] = append(lanes[1], shot{due, &fl.reqs[1]})
		} else {
			lanes[0] = append(lanes[0], shot{due, &fl.reqs[0]}, shot{due, &fl.reqs[1]})
		}
	}
	if in.pageReads {
		for due := time.Duration(0); due < time.Duration(len(in.flushes))*in.period; due += sc.readPeriod {
			lanes[1] = append(lanes[1], shot{due: due})
		}
	}
	return lanes
}

// runServe measures one serve_* workload against a real slimd.
func runServe(h *harness, sc scale, seconds int, res *result) error {
	// Set up: generate, write the seed CSVs, encode every request body,
	// boot slimd until it is ready. The last boot is the one measured.
	var in *inputs
	var svc *service
	var dataDir string
	var setups []float64
	for k := 0; k < sc.setups; k++ {
		if svc != nil {
			svc.proc.kill()
		}
		start := time.Now()
		var err error
		if in, err = generate(res.Workload, sc, res.Seed, h.dir, seconds); err != nil {
			return err
		}
		if dataDir, err = h.subdir(fmt.Sprintf("data-%d", k)); err != nil {
			return err
		}
		if svc, err = boot(h, in, dataDir, fmt.Sprintf("slimd-%d.log", k)); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.fingerprint = in.fingerprint
	res.set("setup_s", median(setups))
	if len(in.flushes) == 0 {
		return errors.New("no flushes generated: the run is shorter than one flush period")
	}

	var st statsJSON
	if err := svc.getJSON("/v1/stats", &st); err != nil {
		return err
	}
	before, err := svc.scrape()
	if err != nil {
		return err
	}
	cpu0, err := svc.proc.cpuSeconds()
	if err != nil {
		return err
	}

	lanes := schedule(in, sc)
	// Collect the set-up's garbage now, so that the harness's own collector
	// does not take a core from slimd in the middle of the stream.
	runtime.GC()
	t0 := time.Now().Add(20 * time.Millisecond)
	var outcomes [2][]outcome
	var wg sync.WaitGroup
	for k := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[k] = fire(svc.base, t0, lanes[k], sc.pageLimit, st.Links)
		}()
	}
	wg.Wait()

	var ingests, reads []outcome
	for k, lane := range outcomes {
		for j, o := range lane {
			if lanes[k][j].req != nil {
				ingests = append(ingests, o)
			} else {
				reads = append(reads, o)
			}
		}
	}

	// Wait until a run that started after the last acknowledgement has
	// published, then read the whole flight recorder.
	var lastAck time.Time
	acked := 0
	for _, o := range ingests {
		if o.ok {
			acked += o.records
			if o.done.After(lastAck) {
				lastAck = o.done
			}
		}
	}
	var runs []runJSON
	for deadline := time.Now().Add(5 * time.Second); ; {
		if runs, err = svc.runs(serveRunJournal); err != nil {
			return err
		}
		if visibleAt(runs, lastAck) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cpu1, err := svc.proc.cpuSeconds()
	if err != nil {
		return err
	}
	rss, err := svc.proc.peakRSSMB()
	if err != nil {
		return err
	}
	after, err := svc.scrape()
	if err != nil {
		return err
	}

	var ackMs, visMs, readMs, lateMs []float64
	for _, o := range ingests {
		res.Attempted++
		lateMs = append(lateMs, ms(o.late))
		dueMs := float64(o.due.UnixNano()) / 1e6
		at := visibleAt(runs, o.done)
		if !o.ok || at == 0 || at-dueMs > ms(sc.visibleLimit) {
			res.Failed++
			continue
		}
		ackMs = append(ackMs, ms(o.done.Sub(o.due)))
		visMs = append(visMs, at-dueMs)
	}
	for _, o := range reads {
		res.Attempted++
		lateMs = append(lateMs, ms(o.late))
		if !o.ok {
			res.Failed++
			continue
		}
		readMs = append(readMs, ms(o.done.Sub(o.due)))
	}

	links, err := svc.links()
	if err != nil {
		return err
	}
	f1 := slim.Evaluate(links, in.truth).F1
	res.set("visible_ms_p50", quantile(visMs, 0.5))
	res.set("visible_ms_p95", quantile(visMs, 0.95))
	res.set("ack_ms_p50", quantile(ackMs, 0.5))
	res.set("ack_ms_p95", quantile(ackMs, 0.95))
	res.set("read_ms_p50", quantile(readMs, 0.5))
	res.set("read_ms_p95", quantile(readMs, 0.95))
	res.set("cpu_s", cpu1-cpu0)
	res.set("rss_mb", rss)
	res.set("f1", f1)
	res.set("bench.gen_late_ms_p95", quantile(lateMs, 0.95))
	res.set("obs.gc_pause_s", after["slim_go_gc_pause_total_seconds"]-before["slim_go_gc_pause_total_seconds"])
	res.set("obs.heap_mb", after["slim_go_heap_alloc_bytes"]/(1<<20))
	if floor := sc.f1Floor[res.Workload]; f1 < floor {
		res.violate("f1 %.4f below the floor %.4f", f1, floor)
	}
	if late := res.values["bench.gen_late_ms_p95"]; late > sc.genLateLimitMs {
		res.violate("the load generator ran %.2f ms late at p95 (limit %.0f ms)", late, sc.genLateLimitMs)
	}

	// What the relinks of the measured phase did, from the flight recorder.
	var nRuns, rescored, retained int64
	for _, r := range runs {
		if r.StartUnixMs < t0.UnixMilli() || !r.publishes() {
			continue
		}
		nRuns++
		rescored += r.Rescored
		retained += r.Retained
	}
	res.set("serve.runs", float64(nRuns))
	res.set("serve.pairs_rescored", float64(rescored))
	ratio := 0.0
	if rescored+retained > 0 {
		ratio = float64(retained) / float64(rescored+retained)
	}
	res.set("serve.retained_ratio", ratio)
	switch res.Workload {
	case "serve_fresh":
		if retained != 0 {
			res.violate("serve_fresh retained %d scored pairs: its relinks are no longer full rescores", retained)
		}
	case "serve_revisit":
		if ratio < sc.minRetainedRatio {
			res.violate("serve_revisit retained only %.2f of the scored pairs (want at least %.2f)", ratio, sc.minRetainedRatio)
		}
		if err := crashAndRecover(h, in, svc, dataDir, links, acked, res); err != nil {
			return err
		}
	}
	res.set("failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
	if res.Trace {
		return traceServe(h, sc, in, res)
	}
	return nil
}

// visibleAt returns when (unix ms) the records acknowledged at ack became
// link-visible: the end of the first publishing run that started at or
// after the acknowledgement was received. 0 means no such run yet. Both
// sides of the comparison are truncated to the flight recorder's
// millisecond, which keeps it monotone.
func visibleAt(runs []runJSON, ack time.Time) float64 {
	ackMs := ack.UnixMilli()
	k := sort.Search(len(runs), func(k int) bool { return runs[k].StartUnixMs >= ackMs })
	for ; k < len(runs); k++ {
		if runs[k].publishes() {
			return float64(runs[k].StartUnixMs) + runs[k].DurationMs
		}
	}
	return 0
}

// crashAndRecover kills slimd with SIGKILL once everything sent is
// visible, restarts it on the same data directory and checks that the
// restart holds every acknowledged record and publishes the same links.
func crashAndRecover(h *harness, in *inputs, svc *service, dataDir string, links []slim.Link, acked int, res *result) error {
	start := time.Now()
	svc.proc.kill()
	again, err := boot(h, in, dataDir, "slimd-recovered.log")
	res.Attempted++
	if err != nil {
		res.Failed++
		res.violate("restart after kill -9: %v", err)
		return nil
	}
	res.set("recover_s", time.Since(start).Seconds())

	var st statsJSON
	if err := again.getJSON("/v1/stats", &st); err != nil {
		return err
	}
	if got := int(st.IngestedE + st.IngestedI); got != acked {
		res.violate("recovered %d streamed records, %d were acknowledged", got, acked)
	}
	recovered, err := again.links()
	if err != nil {
		return err
	}
	if !samePairs(links, recovered) {
		res.violate("links after recovery (%d) differ from the links before the kill (%d)", len(recovered), len(links))
	}
	return nil
}

func samePairs(a, b []slim.Link) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[[2]slim.EntityID]struct{}, len(a))
	for _, l := range a {
		set[[2]slim.EntityID{l.U, l.V}] = struct{}{}
	}
	for _, l := range b {
		if _, ok := set[[2]slim.EntityID{l.U, l.V}]; !ok {
			return false
		}
	}
	return true
}
