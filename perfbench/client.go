package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// client issues the benchmark's HTTP requests and counts them, so
// per-request ratios can be taken against what was actually sent.
type client struct {
	hc   *http.Client
	sent atomic.Int64
}

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
	}}
}

// do sends one request and returns the body of a 2xx response; any other
// status is an error carrying the body.
func (c *client) do(ctx context.Context, method, url, ctype string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	c.sent.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, data)
	}
	return data, nil
}

func (c *client) get(ctx context.Context, url string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, url, "", nil)
}

func (c *client) post(ctx context.Context, url, ctype string, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, url, ctype, body)
}

// getJSON GETs url and decodes the JSON answer into v.
func (c *client) getJSON(ctx context.Context, url string, v any) error {
	data, err := c.get(ctx, url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("GET %s: decode: %w", url, err)
	}
	return nil
}

// scrape fetches a node's /metrics. Scrapes bypass the request counter:
// they are the benchmark observing, not load.
func (c *client) scrape(ctx context.Context, base string) (promText, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}
