package telemetry

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServerShutdownReleasesPort pins the graceful-shutdown satellite:
// after Shutdown returns, the port is free to rebind immediately.
func TestServerShutdownReleasesPort(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("server not reachable before shutdown: %v", err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The exact address must be rebindable: the listener is closed, not
	// lingering until process exit.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released after Shutdown: %v", err)
	}
	ln.Close()

	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
}

// TestServeMetrics boots the introspection server on an ephemeral port
// and checks that /metrics serves the installed probe's registry under
// the fpstudy prefix, that it serves nothing once the probe is removed,
// that /debug/vars is gone, and that the pprof index responds.
func TestServeMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pipeline.respondents").Add(42)
	Install(reg)
	defer Install(nil)
	Done(StageGenerate, 0, Start(), 42, 0)

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	for _, want := range []string{
		"fpstudy_pipeline_respondents 42\n",
		"fpstudy_latency_generate_seconds_count 1\n",
	} {
		if code != http.StatusOK || !strings.Contains(body, want) {
			t.Errorf("/metrics (status %d) missing %q:\n%s", code, want, body)
		}
	}
	if problem := validateExposition(body); problem != "" {
		t.Errorf("/metrics exposition invalid: %s", problem)
	}
	Install(nil)
	if code, body := get("/metrics"); code != http.StatusOK || body != "" {
		t.Errorf("/metrics with no probe installed: status %d, body %q", code, body)
	}
	if code, _ := get("/debug/vars"); code != http.StatusNotFound {
		t.Errorf("/debug/vars status %d, want 404", code)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index bad: status %d", code)
	}
}

func TestServerShutdownNil(t *testing.T) {
	var srv *Server
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("nil Shutdown: %v", err)
	}
}

// TestServerShutdownIdempotent: calling Shutdown twice (and Close after
// Shutdown) must not panic or error in a way that breaks deferred
// cleanup stacks — tools defer both on some exit paths.
func TestServerShutdownIdempotent(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil && err != http.ErrServerClosed {
		t.Fatalf("second Shutdown: %v", err)
	}
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("Close after Shutdown: %v", err)
	}
}

// TestServerMetricsScrapeDuringShutdown races /metrics scrapes against
// Shutdown under -race: scrapes either complete (the graceful drain)
// or fail with a connection error — never a partial write that parses
// as truncated exposition, and never a data race on the registry.
func TestServerMetricsScrapeDuringShutdown(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("scrape.test").Add(7)
	reg.Latency("latency.scrape_test").ObserveShard(0, time.Millisecond)
	Install(reg)
	defer Install(nil)

	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 50; j++ {
				resp, err := http.Get("http://" + addr + "/metrics")
				if err != nil {
					return // listener closed: expected once shutdown begins
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					return // connection dropped mid-read during forced close
				}
				if resp.StatusCode == http.StatusOK && !strings.Contains(string(body), "fpstudy_scrape_test 7") {
					t.Errorf("scrape missing counter:\n%s", body)
					return
				}
			}
		}()
	}
	close(start)
	// Let the scrapers get going, then shut down underneath them.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown during scrapes: %v", err)
	}
	wg.Wait()
}
