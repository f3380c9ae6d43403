package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flowpulse/internal/core"
	"flowpulse/internal/experiments"
	"flowpulse/internal/sim"
	"flowpulse/internal/trace"
)

// recordRun simulates one faulted training run and returns the .fpt
// recording bytes (the serve e2e input).
func recordRun(t *testing.T, remediated bool, seed uint64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.fpt")
	tr := experiments.Trial{
		Scenario: core.Scenario{
			Leaves: 4, Spines: 2,
			BytesPerRank: 1 << 20,
			Background:   4 * sim.Microsecond,
			Seed:         seed,
		},
		Fault:      core.LeafSpineLink{LeafOrd: 2, SpineOrd: 1},
		DropRate:   0.05,
		CleanIters: 2,
		FaultIters: 4,
		Remediate:  remediated,
		TracePath:  path,
		TraceLabel: fmt.Sprintf("serve-test-%d", seed),
	}
	if _, err := tr.Run(); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSequentialParity is the tentpole acceptance criterion: alerts
// (and remediation actions) raised by the service on a streamed
// recording are fingerprint-identical to offline replay of the same
// file — and to the trailer the recorder sealed online.
func TestSequentialParity(t *testing.T) {
	raw := recordRun(t, true, 7)
	rr, err := trace.Replay(bytes.NewReader(raw), trace.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Events) == 0 {
		t.Fatal("recording produced no events; fixture too tame for a parity test")
	}

	srv := newTestServer(t, Config{Shards: 3})
	defer srv.Drain(5 * time.Second)
	st, err := srv.IngestStream(bytes.NewReader(raw), ModeSeq, "parity")
	if err != nil {
		t.Fatalf("IngestStream: %v", err)
	}
	if st.Parity != "exact" {
		t.Fatalf("parity = %q (fp %016x, trailer %016x)", st.Parity, st.Fingerprint, st.TrailerFingerprint)
	}
	if st.Fingerprint != rr.Fingerprint {
		t.Fatalf("service fp %016x != offline replay fp %016x", st.Fingerprint, rr.Fingerprint)
	}
	if st.Events != int64(len(rr.Events)) || st.Actions != int64(len(rr.Actions)) {
		t.Fatalf("service %d events / %d actions, offline %d / %d",
			st.Events, st.Actions, len(rr.Events), len(rr.Actions))
	}
	if st.Windows != int64(rr.Windows) {
		t.Fatalf("service %d windows, offline %d", st.Windows, rr.Windows)
	}
}

// TestFanoutBucketParity: the sharded fan-out path preserves only
// per-(job, leaf) order, so its combined fingerprint must equal
// offline replay's order-insensitive BucketFingerprint.
func TestFanoutBucketParity(t *testing.T) {
	raw := recordRun(t, false, 11)
	rr, err := trace.Replay(bytes.NewReader(raw), trace.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Events) == 0 {
		t.Fatal("recording produced no events")
	}

	srv := newTestServer(t, Config{Shards: 4})
	defer srv.Drain(5 * time.Second)
	st, err := srv.IngestStream(bytes.NewReader(raw), ModeFanout, "fanout")
	if err != nil {
		t.Fatalf("IngestStream: %v", err)
	}
	if st.Mode != ModeFanout || st.Parity != "bucket" {
		t.Fatalf("mode=%q parity=%q", st.Mode, st.Parity)
	}
	if st.Fingerprint != rr.BucketFingerprint {
		t.Fatalf("service bucket fp %016x != offline bucket fp %016x", st.Fingerprint, rr.BucketFingerprint)
	}
	if st.Events != int64(len(rr.Events)) {
		t.Fatalf("service %d events, offline %d", st.Events, len(rr.Events))
	}
}

// TestRemediatedStreamForcesSequential: a fan-out request for a
// remediated recording is demoted to sequential (fan-out cannot replay
// the probe loop's global order) and still reaches exact parity.
func TestRemediatedStreamForcesSequential(t *testing.T) {
	raw := recordRun(t, true, 13)
	srv := newTestServer(t, Config{})
	defer srv.Drain(5 * time.Second)
	st, err := srv.IngestStream(bytes.NewReader(raw), ModeFanout, "forced")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != ModeSeq || st.Parity != "exact" {
		t.Fatalf("mode=%q parity=%q, want forced sequential exact", st.Mode, st.Parity)
	}
}

// TestTCPMultiProducer streams ≥8 recordings concurrently over real
// TCP connections and asserts per-producer isolation: every session's
// fingerprint equals its own file's offline replay — windows from one
// producer never bleed into another's detection state.
func TestTCPMultiProducer(t *testing.T) {
	const producers = 8
	raws := make([][]byte, producers)
	wants := make([]uint64, producers)
	var prep sync.WaitGroup
	errs := make([]error, producers)
	for i := 0; i < producers; i++ {
		prep.Add(1)
		go func(i int) {
			defer prep.Done()
			raws[i] = recordRun(t, i%2 == 0, uint64(20+i))
			rr, err := trace.Replay(bytes.NewReader(raws[i]), trace.ReplayOptions{})
			if err != nil {
				errs[i] = err
				return
			}
			wants[i] = rr.Fingerprint
		}(i)
	}
	prep.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("producer %d prep: %v", i, err)
		}
	}

	srv := newTestServer(t, Config{Token: "hunter2", Shards: 4, RingSize: 32})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Drain(10 * time.Second)

	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := DialProducer(l.Addr().String(), "hunter2", ModeSeq, fmt.Sprintf("prod-%d", i), 5*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			// Dribble the stream in small writes to interleave producers.
			raw := raws[i]
			for len(raw) > 0 {
				n := 4096
				if n > len(raw) {
					n = len(raw)
				}
				if _, err := p.Write(raw[:n]); err != nil {
					errs[i] = err
					return
				}
				raw = raw[n:]
			}
			st, err := p.Close()
			if err != nil {
				errs[i] = err
				return
			}
			if st.Fingerprint != wants[i] {
				errs[i] = fmt.Errorf("producer %d: fp %016x, want %016x (parity %s)", i, st.Fingerprint, wants[i], st.Parity)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("producer %d: %v", i, err)
		}
	}
}

// TestTCPBadToken: a wrong token is refused before any frame decodes.
func TestTCPBadToken(t *testing.T) {
	srv := newTestServer(t, Config{Token: "secret"})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Drain(time.Second)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "FPS1 token=wrong\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.Contains(line, "bad token") {
		t.Fatalf("line=%q err=%v", line, err)
	}
	if srv.met.authFailures.Load() != 1 {
		t.Fatalf("auth failures = %d", srv.met.authFailures.Load())
	}
}

// TestHTTPSurface drives the whole operational surface over HTTP:
// subscribe to /alerts, POST a recording to /ingest, and check
// /metrics and /healthz.
func TestHTTPSurface(t *testing.T) {
	raw := recordRun(t, true, 31)
	srv := newTestServer(t, Config{Token: "tok"})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	defer srv.Drain(5 * time.Second)

	// Subscribe to the alert stream before ingesting.
	alertReq, _ := http.NewRequest("GET", ts.URL+"/alerts", nil)
	alertResp, err := http.DefaultClient.Do(alertReq)
	if err != nil {
		t.Fatal(err)
	}
	defer alertResp.Body.Close()
	alertLines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(alertResp.Body)
		for sc.Scan() {
			alertLines <- sc.Text()
		}
		close(alertLines)
	}()

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.Status, err)
	}

	// Unauthenticated ingest is refused.
	resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated ingest: %s", resp.Status)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/ingest?label=http-prod", bytes.NewReader(raw))
	req.Header.Set("Authorization", "Bearer tok")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st SessionStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || st.Parity != "exact" || st.Events == 0 {
		t.Fatalf("ingest: %s %+v", resp.Status, st)
	}

	// The alert stream saw at least one NDJSON alert for this session.
	deadline := time.After(5 * time.Second)
	sawAlert := false
	for !sawAlert {
		select {
		case line := <-alertLines:
			if strings.Contains(line, `"type":"alert"`) && strings.Contains(line, `"session":"http-prod"`) {
				sawAlert = true
			}
		case <-deadline:
			t.Fatal("no alert on /alerts stream")
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	metricsText := mbuf.String()
	for _, want := range []string{
		"flowpulse_windows_total", "flowpulse_alerts_total",
		"flowpulse_sessions_total 1", "flowpulse_shard_depth{shard=\"0\"}",
		"flowpulse_windows_per_second",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsText)
		}
	}
	if strings.Contains(metricsText, "flowpulse_windows_total 0\n") {
		t.Error("windows_total still zero after ingest")
	}
}

// TestRulesRouting: a file-sink rule receives exactly the alerts that
// match its deviation floor, and ParseRule round-trips the CLI form.
func TestRulesRouting(t *testing.T) {
	r, err := ParseRule("name=ops,min_dev=0.1,sink=file,path=" + filepath.Join(t.TempDir(), "x.ndjson"))
	if err != nil || r.Name != "ops" || r.MinDeviation != 0.1 || r.Sink != "file" {
		t.Fatalf("ParseRule: %+v %v", r, err)
	}
	if _, err := ParseRule("min_dev=abc"); err == nil {
		t.Fatal("bad min_dev accepted")
	}
	if _, err := ParseRule("sink"); err == nil {
		t.Fatal("non-k=v accepted")
	}

	raw := recordRun(t, false, 41)
	sinkPath := filepath.Join(t.TempDir(), "alerts.ndjson")
	srv := newTestServer(t, Config{Rules: []Rule{
		{Name: "everything", Sink: "file", Path: sinkPath},
		{Name: "impossible", MinDeviation: 99, Sink: "log"},
	}})
	st, err := srv.IngestStream(bytes.NewReader(raw), ModeFanout, "ruled")
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain(5 * time.Second)
	if st.Events == 0 {
		t.Fatal("no events")
	}
	sunk, err := os.ReadFile(sinkPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(sunk, []byte("\n"))
	if int64(lines) != st.Events {
		t.Fatalf("file sink got %d lines, want %d", lines, st.Events)
	}
	var first alertLine
	if err := json.Unmarshal(sunk[:bytes.IndexByte(sunk, '\n')], &first); err != nil {
		t.Fatalf("sink line not JSON: %v", err)
	}
	if first.Session != "ruled" || first.Type != "alert" {
		t.Fatalf("sink line: %+v", first)
	}
	if srv.rules.rules[1].hits != 0 {
		t.Fatalf("min_dev=99 rule matched %d alerts", srv.rules.rules[1].hits)
	}
}

// TestDrainRefusesNewStreams: after Drain begins, new sessions are
// refused and the drain reports clean.
func TestDrainRefusesNewStreams(t *testing.T) {
	srv := newTestServer(t, Config{})
	if !srv.Drain(time.Second) {
		t.Fatal("idle drain not clean")
	}
	if _, err := srv.IngestStream(bytes.NewReader(nil), ModeSeq, "late"); err == nil {
		t.Fatal("ingest accepted after drain")
	}
}

// TestTornStreamReported: a producer dying mid-frame yields a status
// with the torn-stream error, and everything decoded before the tear
// still processed.
func TestTornStreamReported(t *testing.T) {
	raw := recordRun(t, false, 51)
	srv := newTestServer(t, Config{})
	defer srv.Drain(5 * time.Second)
	st, err := srv.IngestStream(bytes.NewReader(raw[:len(raw)-7]), ModeSeq, "torn")
	if err == nil || !strings.Contains(err.Error(), "mid-frame") {
		t.Fatalf("err = %v", err)
	}
	if st == nil || st.Windows == 0 {
		t.Fatalf("pre-tear windows lost: %+v", st)
	}
}

// TestMetricsScrapeDuringTCPIngest scrapes /metrics in a tight loop
// while back-to-back fan-out sessions stream over TCP, each opening its
// buckets mid-stream. Under -race it pins that a scrape reads only
// bucket state published under the session lock. Scrapes go through
// the real handler in-process, so they are frequent enough to overlap
// bucket creation.
func TestMetricsScrapeDuringTCPIngest(t *testing.T) {
	const sessions = 6
	raw := recordRun(t, false, 17)
	rr, err := trace.Replay(bytes.NewReader(raw), trace.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}

	srv := newTestServer(t, Config{Token: "tok", Shards: 3, RingSize: 16})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Drain(5 * time.Second)

	h := srv.HTTPHandler()
	scrape := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("scrape: status %d", rec.Code)
		}
		return rec.Body.String()
	}
	done := make(chan struct{})
	scrapes := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scrapes <- n
				return
			default:
			}
			scrape()
			n++
		}
	}()

	var windows int64
	for i := 0; i < sessions; i++ {
		p, err := DialProducer(l.Addr().String(), "tok", ModeFanout, fmt.Sprintf("scraped-%d", i), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Write(raw); err != nil {
			t.Fatal(err)
		}
		st, err := p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Error != "" || st.Fingerprint != rr.BucketFingerprint {
			t.Fatalf("session %d: status %+v, want bucket fp %016x", i, st, rr.BucketFingerprint)
		}
		windows += st.Windows
	}
	close(done)
	if n := <-scrapes; n == 0 {
		t.Error("no scrape completed during ingest")
	}
	if want := fmt.Sprintf("flowpulse_windows_total %d\n", windows); !strings.Contains(scrape(), want) {
		t.Fatalf("final scrape missing %q", want)
	}
}
