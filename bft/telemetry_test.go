package bft_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bftfast/bft"
	"bftfast/internal/obs"
	"bftfast/internal/obs/telemetry"
)

func scrape(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestReplicaTelemetry runs a group with one replica serving telemetry,
// executes operations, and checks the scrape carries live engine, phase,
// transport, and process series with the right labels.
func TestReplicaTelemetry(t *testing.T) {
	client, replicas, cleanup := startCluster(t, bft.NewChannelNetwork(), 4, []int{100})
	defer cleanup()

	addr, err := replicas[0].ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTelemetry: %v", err)
	}
	if got := replicas[0].TelemetryAddr(); got != addr {
		t.Errorf("TelemetryAddr = %q, want %q", got, addr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const ops = 8
	for i := 0; i < ops; i++ {
		if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}

	code, body := scrape(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	samples, err := telemetry.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("parsing scrape: %v", err)
	}
	series := map[string]float64{}
	for _, s := range samples {
		if s.Label("quantile") != "" {
			continue
		}
		series[s.Name] = s.Value
		if s.Label("node") != "0" || s.Label("role") != "replica" {
			t.Fatalf("%s: labels %v, want node=0 role=replica", s.Name, s.Labels)
		}
	}
	if len(series) < 20 {
		t.Errorf("scrape has %d series, want >= 20:\n%s", len(series), body)
	}
	if got := series["bft_engine_executed_requests"]; got < ops {
		t.Errorf("executed_requests = %v, want >= %d", got, ops)
	}
	if got := series["bft_phase_execute_ns_count"]; got < 1 {
		t.Errorf("phase.execute_ns count = %v, want >= 1 (phase tracker not wired)", got)
	}
	for _, name := range []string{"bft_transport_inbox_drops", "bft_transport_inbox_depth",
		"bft_proc_goroutines", "bft_proc_heap_bytes", "bft_engine_view"} {
		if _, ok := series[name]; !ok {
			t.Errorf("series %s missing from scrape", name)
		}
	}

	code, body = scrape(t, addr, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d: %s", code, body)
	}
	for _, want := range []string{`"role": "replica"`, `"last_executed"`, `"peers"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/statusz missing %s:\n%s", want, body)
		}
	}
	if code, _ := scrape(t, addr, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz status %d", code)
	}
	// No flight recorder configured: the endpoint must not exist.
	if code, _ := scrape(t, addr, "/flight"); code != http.StatusNotFound {
		t.Errorf("/flight without recorder: status %d, want 404", code)
	}

	hc := replicas[0].HostStats()
	if hc.InboxDrops != 0 {
		t.Errorf("InboxDrops = %d on an idle channel network", hc.InboxDrops)
	}
}

// TestReplicaFlightDump drives a traced replica, dumps its flight ring,
// and decodes the BFTTRC01 file.
func TestReplicaFlightDump(t *testing.T) {
	net := bft.NewChannelNetwork()
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, 100})
	if err := bft.Provision(rand.New(rand.NewSource(2)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	var replicas []*bft.Replica
	for i := 0; i < 4; i++ {
		cfg := bft.DefaultConfig(4, i)
		cfg.Trace = bft.NewTraceRecorder(i, 1024)
		r, err := bft.StartReplica(cfg, &counterSM{}, rings[i], net)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		replicas = append(replicas, r)
	}
	client, err := bft.StartClient(bft.NewClientConfig(4, 100), rings[4], net)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}

	path := filepath.Join(t.TempDir(), "flight.bfttrc")
	replicas[0].SetFlightDump(path)
	got, err := replicas[0].DumpFlight()
	if err != nil {
		t.Fatalf("DumpFlight: %v", err)
	}
	file, err := os.Open(got)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	events, err := obs.ReadTrace(file)
	if err != nil {
		t.Fatalf("decoding flight dump: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("flight dump is empty after committed operations")
	}

	// The /flight endpoint must stream the same ring.
	addr, err := replicas[0].ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	code, body := scrape(t, addr, "/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight status %d", code)
	}
	streamed, err := obs.ReadTrace(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("decoding /flight stream: %v", err)
	}
	if len(streamed) < len(events) {
		t.Errorf("/flight returned %d events, dump had %d", len(streamed), len(events))
	}
}

// TestReplicaCloseOrdering is the shutdown-ordering regression test: Close
// must stop the telemetry server and flush the flight recorder before the
// event loop dies, so the endpoint disappears cleanly (no scrape against a
// dead node) and the dump file exists afterwards. A second Close must be
// harmless.
func TestReplicaCloseOrdering(t *testing.T) {
	net := bft.NewChannelNetwork()
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, 100})
	if err := bft.Provision(rand.New(rand.NewSource(3)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	var replicas []*bft.Replica
	for i := 0; i < 4; i++ {
		cfg := bft.DefaultConfig(4, i)
		cfg.Trace = bft.NewTraceRecorder(i, 256)
		r, err := bft.StartReplica(cfg, &counterSM{}, rings[i], net)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	client, err := bft.StartClient(bft.NewClientConfig(4, 100), rings[4], net)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
		t.Fatalf("invoke: %v", err)
	}

	path := filepath.Join(t.TempDir(), "final.bfttrc")
	replicas[0].SetFlightDump(path)
	addr, err := replicas[0].ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client.Close()
	done := make(chan struct{})
	go func() {
		for _, r := range replicas {
			r.Close()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked")
	}

	// The endpoint is gone, not serving errors.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("telemetry endpoint still reachable after Close")
	}
	// The final flush ran while the loop was alive.
	file, err := os.Open(path)
	if err != nil {
		t.Fatalf("flight ring not flushed on Close: %v", err)
	}
	defer file.Close()
	events, err := obs.ReadTrace(file)
	if err != nil {
		t.Fatalf("decoding close-time dump: %v", err)
	}
	if len(events) == 0 {
		t.Error("close-time dump is empty")
	}

	replicas[0].Close() // idempotent

	// Snapshot calls after Close fail rather than hang.
	if _, err := replicas[0].MetricsSnapshot(); err == nil {
		t.Error("MetricsSnapshot after Close succeeded, want error")
	}
}

// TestClientTelemetry checks the client-side endpoint serves its counters.
func TestClientTelemetry(t *testing.T) {
	client, _, cleanup := startCluster(t, bft.NewChannelNetwork(), 4, []int{100})
	defer cleanup()

	addr, err := client.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTelemetry: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	code, body := scrape(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	samples, err := telemetry.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("parsing scrape: %v", err)
	}
	seen := map[string]bool{}
	for _, s := range samples {
		seen[s.Name] = true
		if s.Name == "bft_client_completed" {
			if s.Value < 3 || s.Label("role") != "client" || s.Label("node") != "100" {
				t.Errorf("bad client sample %+v", s)
			}
		}
		if s.Name == "bft_client_replier_skips" && s.Value != 0 {
			t.Errorf("replier skips in a fault-free run: %+v", s)
		}
	}
	for _, name := range []string{"bft_client_completed", "bft_client_replier_skips"} {
		if !seen[name] {
			t.Fatalf("%s missing:\n%s", name, body)
		}
	}
}
