package otserv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func adminGet(t *testing.T, ts *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := copyBody(&b, resp); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), b.String()
}

func copyBody(b *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		b.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

// TestAdminHandler drives the HTTP admin surface against a live
// dispenser: /healthz answers, /metrics exposes server and per-session
// pool series in Prometheus text format, /sessions mirrors the STATS
// dump, and tearing the session down retires its series.
func TestAdminHandler(t *testing.T) {
	addr, srv := startServer(t, Config{})
	ts := httptest.NewServer(srv.AdminHandler())
	defer ts.Close()

	code, _, body := adminGet(t, ts, "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	c := dial(t, addr)
	sess, err := c.NewSession(SessionConfig{Params: "small", Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SenderCOTs(100); err != nil {
		t.Fatal(err)
	}

	code, ctype, body := adminGet(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics content type %q, want 0.0.4 exposition", ctype)
	}
	for _, want := range []string{
		"ironman_otserv_sessions 1",
		"ironman_otserv_sessions_opened_total 1",
		`ironman_pool_draws_total{session="1",half="sender",params="small"}`,
		`ironman_pool_dispensed_total{session="1",half="sender",params="small"} 100`,
		"ironman_pool_draw_wait_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, ctype, body = adminGet(t, ts, "/sessions")
	if code != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/sessions: %d %q", code, ctype)
	}
	var dump StatsDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/sessions JSON: %v", err)
	}
	if dump.Sessions != 1 || len(dump.PerSession) != 1 ||
		dump.PerSession[0].Sender.Dispensed != 100 {
		t.Fatalf("/sessions dump: %+v", dump)
	}

	code, _, body = adminGet(t, ts, "/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline: %d %q", code, body)
	}

	// Teardown must retire the session's metric series so registry
	// cardinality tracks live sessions.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, body = adminGet(t, ts, "/metrics")
	if strings.Contains(body, `session="1"`) {
		t.Fatal("per-session series survived teardown")
	}
	if !strings.Contains(body, "ironman_otserv_sessions_closed_total 1") {
		t.Fatal("closed counter missing after teardown")
	}
}

// TestStatsDrawStormConsistency is the STATS-staleness regression
// test: after a concurrent draw storm over the wire protocol, the
// registry-served STATS totals must count every dispensed correlation
// — exactly, not approximately. The session layer's test of the same
// name holds those totals to the pool's own Stats().
func TestStatsDrawStormConsistency(t *testing.T) {
	addr, _ := startServer(t, Config{})
	c := dial(t, addr)
	sess, err := c.NewSession(SessionConfig{Params: "small", Depth: 2})
	if err != nil {
		t.Fatal(err)
	}

	const (
		pairs = 6
		draws = 15
		n     = 64
	)
	var wg sync.WaitGroup
	for g := 0; g < pairs; g++ {
		wg.Add(2)
		// Each drawer gets its own protocol conn so draws truly race
		// inside the server, not in a client-side mutex.
		snd, err := dial(t, addr).AttachToken(sess.Token(), sess.SenderToken())
		if err != nil {
			t.Fatal(err)
		}
		rcv, err := dial(t, addr).AttachToken(sess.Token(), sess.ReceiverToken())
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer wg.Done()
			for i := 0; i < draws; i++ {
				if _, err := snd.SenderCOTs(n); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < draws; i++ {
				if _, _, err := rcv.ReceiverCOTs(n); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(pairs * draws * n)
	if st.Sender.Dispensed != want || st.Receiver.Dispensed != want {
		t.Fatalf("dispensed %d/%d, want %d each", st.Sender.Dispensed, st.Receiver.Dispensed, want)
	}
}
