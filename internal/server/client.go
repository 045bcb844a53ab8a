package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"presto/internal/campaign"
)

// Client is the Go client for a prestod daemon — the programmatic
// face of cmd/prestoctl and examples/serving. The zero value is not
// usable; set BaseURL.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7377".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Event streams are
	// long-lived, so any custom client must not set a global Timeout;
	// bound calls with the context instead.
	HTTPClient *http.Client
}

// APIError is a non-2xx daemon response.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's backpressure hint on 429 responses.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("prestod: %s (HTTP %d)", e.Message, e.StatusCode)
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues a request and decodes the JSON response into out (when
// non-nil), mapping non-2xx responses to *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //prestolint:allow errdrop -- response body is read-only; close on the read side cannot lose data
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError decodes the server's {"error": ...} envelope.
func apiError(resp *http.Response) error {
	e := &APIError{StatusCode: resp.StatusCode}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&envelope); err == nil && envelope.Error != "" {
		e.Message = envelope.Error
	} else {
		e.Message = resp.Status
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// Submit posts a job; the returned status carries the assigned ID.
func (c *Client) Submit(ctx context.Context, req campaign.Request) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every retained job in submission order.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cancel requests cancellation and returns the job's status after the
// request was registered (the state may still be "running" while the
// campaign pool unwinds; Wait for the terminal state).
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Events streams the job's events from seq `since`, invoking fn for
// each. It returns nil when the stream ends (the job reached a
// terminal state), fn's error if it aborts the stream, or the
// transport/ctx error.
func (c *Client) Events(ctx context.Context, id string, since int, fn func(Event) error) error {
	path := "/v1/jobs/" + id + "/events"
	if since > 0 {
		path += "?since=" + strconv.Itoa(since)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //prestolint:allow errdrop -- response body is read-only; close on the read side cannot lose data
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("decoding event: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return nil
}

// Stats fetches the job's live percentile frames. With follow false a
// single frame is delivered; with follow true frames arrive at the
// server's cadence (or every interval, when > 0) until the job is
// terminal — the last frame has Final set. fn's error aborts the
// stream and is returned.
func (c *Client) Stats(ctx context.Context, id string, follow bool, interval time.Duration, fn func(StatsFrame) error) error {
	path := "/v1/jobs/" + id + "/stats"
	var params []string
	if follow {
		params = append(params, "follow=1")
	}
	if interval > 0 {
		params = append(params, "interval="+interval.String())
	}
	if len(params) > 0 {
		path += "?" + strings.Join(params, "&")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //prestolint:allow errdrop -- response body is read-only; close on the read side cannot lose data
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var f StatsFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("decoding stats frame: %w", err)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return nil
}

// Artifacts lists a job's servable artifact names.
func (c *Client) Artifacts(ctx context.Context, id string) ([]string, error) {
	var out struct {
		Artifacts []string `json:"artifacts"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/artifacts", nil, &out); err != nil {
		return nil, err
	}
	return out.Artifacts, nil
}

// Artifact fetches one artifact verbatim (the exact bytes the
// campaign wrote).
func (c *Client) Artifact(ctx context.Context, id, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/artifacts/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //prestolint:allow errdrop -- response body is read-only; close on the read side cannot lose data
	if resp.StatusCode >= 300 {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Wait blocks until the job reaches a terminal state, riding the
// event stream (with a polling fallback if the stream ends early) and
// returning the final status.
func (c *Client) Wait(ctx context.Context, id string) (*JobStatus, error) {
	for {
		if err := c.Events(ctx, id, 0, func(Event) error { return nil }); err != nil {
			return nil, err
		}
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
