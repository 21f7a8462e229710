package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/server"
)

// cmd/insightnotesd's default flags: the served workloads configure the
// engine and the front-end exactly as the daemon does out of the box.
const (
	daemonPlanCache     = 256
	daemonPageCap       = 64
	daemonMaxConcurrent = 64
	daemonQueueDepth    = 128
	daemonQueueWait     = time.Second
	daemonSessionTTL    = 5 * time.Minute
)

// endpoint is the HTTP front-end serving one database on a loopback
// port chosen by the kernel.
type endpoint struct {
	srv  *server.Server
	hs   *http.Server
	done chan error
	base string
}

// serve starts the front-end over db and waits until it answers
// /healthz.
func serve(db *engine.DB) (*endpoint, error) {
	srv, err := server.New(server.Config{
		DB:             db,
		SessionTimeout: daemonSessionTTL,
		DefaultTenant: server.TenantConfig{
			MaxConcurrent: daemonMaxConcurrent,
			QueueDepth:    daemonQueueDepth,
			QueueWait:     daemonQueueWait,
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &endpoint{srv: srv, hs: &http.Server{Handler: srv}, done: make(chan error, 1),
		base: "http://" + ln.Addr().String()}
	go func() { e.done <- e.hs.Serve(ln) }()
	c := newHTTPClient(e.base)
	defer c.close()
	resp, err := c.hc.Get(e.base + "/healthz")
	if err != nil {
		e.stop()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		e.stop()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return e, nil
}

// stop drains the listener and in-flight handlers, then the server. The
// database stays open; its owner closes it.
func (e *endpoint) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a handler still running after 10s is abandoned; Close below drains it
	if err := <-e.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	e.srv.Close()
}

// httpClient owns one keep-alive connection to the front-end.
type httpClient struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *httpClient) close() { c.tr.CloseIdleConnections() }

// post sends one JSON request and reads the whole response; the caller
// times it from before the call to its return (the last response byte).
func (c *httpClient) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// postJSON posts v and decodes a 2xx response into out.
func (c *httpClient) postJSON(path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	status, resp, err := c.post(path, body)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s: status %d: %s", path, status, bytes.TrimSpace(resp))
	}
	return json.Unmarshal(resp, out)
}

// session is one connection's server session with the mix's statements
// prepared, and the request body of every read in the mix's domain
// encoded up front so the loop spends no time building requests.
type session struct {
	c      *httpClient
	path   map[int]string    // kind -> endpoint path
	bodies map[string][]byte // read key -> request body
}

const benchTenant = "bench"

func openSession(c *httpClient, mix *readMix) (*session, error) {
	var sess struct {
		ID string `json:"session_id"`
	}
	if err := c.postJSON("/v1/sessions", map[string]string{"tenant": benchTenant}, &sess); err != nil {
		return nil, err
	}
	s := &session{c: c, path: map[int]string{}, bodies: map[string][]byte{}}
	stmtIDs := map[int]string{}
	for kind, k := range servedKinds {
		if !k.prepared {
			s.path[kind] = "/v1/query"
			continue
		}
		var st struct {
			ID string `json:"stmt_id"`
		}
		if err := c.postJSON("/v1/sessions/"+sess.ID+"/prepare", map[string]string{"sql": k.sql}, &st); err != nil {
			return nil, err
		}
		stmtIDs[kind] = st.ID
		s.path[kind] = "/v1/sessions/" + sess.ID + "/execute"
	}
	for _, q := range mix.all() {
		var v any
		if servedKinds[q.kind].prepared {
			v = map[string]any{"stmt_id": stmtIDs[q.kind], "params": jsonParams(q.params)}
		} else {
			v = map[string]any{"sql": q.literalSQL(), "tenant": benchTenant}
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		s.bodies[q.key] = b
	}
	return s, nil
}

func (s *session) read(q readReq) (int, []byte, error) {
	return s.c.post(s.path[q.kind], s.bodies[q.key])
}

func jsonParams(ps []model.Value) []any {
	out := make([]any, len(ps))
	for i, p := range ps {
		out[i] = jsonValue(p)
	}
	return out
}
