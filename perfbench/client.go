package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// answer is what the server returned for one operation: the neighbor lists
// of a search or batch, or the ID an insert was given.
type answer struct {
	neighbors [][]serve.Neighbor
	id        int
	size      int // response body bytes
}

// client sends a workload's operations to one base URL over at most conns
// connections and keeps every answer for the oracle.
type client struct {
	hc   *http.Client
	base string
	src  *opSource
	// phase prefixes the X-Request-ID of every request, so the spans of
	// separate phases never share an ID.
	phase string

	mu      sync.Mutex
	answers map[int]answer
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

func newClient(hc *http.Client, base string, src *opSource) *client {
	return &client{hc: hc, base: base, src: src, answers: map[int]answer{}}
}

func requestID(phase string, i int) string { return phase + "-" + strconv.Itoa(i) }

// send is the client's sendFunc: it posts operation i and records the
// answer. Any status but 200 is a failure, 429/503/504 included.
func (c *client) send(ctx context.Context, _ int, i int) error {
	o := c.src.get(i)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+opPaths[o.kind], bytes.NewReader(o.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, requestID(c.phase, i))
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", opPaths[o.kind], resp.StatusCode, bytes.TrimSpace(body))
	}
	a := answer{size: len(body)}
	switch o.kind {
	case opSearch:
		var r serve.SearchResponse
		err = json.Unmarshal(body, &r)
		a.neighbors = [][]serve.Neighbor{r.Neighbors}
	case opBatch:
		var r serve.SearchBatchResponse
		err = json.Unmarshal(body, &r)
		a.neighbors = r.Neighbors
	case opInsert:
		var r serve.InsertResponse
		err = json.Unmarshal(body, &r)
		a.id = r.ID
	case opDelete:
		var r serve.DeleteResponse
		err = json.Unmarshal(body, &r)
		if err == nil && !r.Deleted {
			err = fmt.Errorf("delete %d not confirmed", o.id)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", opPaths[o.kind], err)
	}
	c.mu.Lock()
	c.answers[i] = a
	c.mu.Unlock()
	return nil
}

// getJSON fetches url into out.
func getJSON(ctx context.Context, hc *http.Client, url string, out interface{}) error {
	resp, err := get(ctx, hc, url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// scrapeMetrics fetches and parses a node's /metrics histograms.
func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (map[string]*histogram, error) {
	resp, err := get(ctx, hc, base+"/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseHistograms(resp.Body)
}

// postJSON posts in to url and decodes a 200 answer into out.
func postJSON(ctx context.Context, hc *http.Client, url string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
