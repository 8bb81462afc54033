package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/server"
)

// pollInterval is how long the client waits between status polls.
const pollInterval = time.Millisecond

// campaignTimeout fails a campaign that has not finished in this long.
const campaignTimeout = time.Minute

// client is the closed-loop load generator: one goroutine with one campaign
// outstanding, the next submitted only once the previous campaign's results
// have been read in full.
type client struct {
	base   string
	ndjson bool
	t      *tracer
	http   *http.Client
	body   bytes.Buffer // the last results body, reused across campaigns
}

func newClient(base string, ndjson bool, t *tracer) *client {
	return &client{
		base:   base,
		ndjson: ndjson,
		t:      t,
		http:   &http.Client{Transport: &http.Transport{}, Timeout: campaignTimeout},
	}
}

// close drops the client's idle keep-alive connections.
func (c *client) close() { c.http.CloseIdleConnections() }

// run submits one campaign, polls its status until it is terminal, and
// reads its results. It returns the time from submit until the results body
// was fully read; the body stays readable through c.body until the next
// call. With traced set it also fetches the campaign's span timeline and
// records it, with the poll count and latency, on the tracer.
func (c *client) run(camp server.Campaign, traced bool) (time.Duration, error) {
	payload, err := json.Marshal(camp)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	var st server.JobStatus
	if err := c.do(http.MethodPost, "/v1/campaigns", payload, http.StatusAccepted, &st); err != nil {
		return 0, fmt.Errorf("submit: %w", err)
	}
	if st.Sessions != sessionsPerCampaign {
		return 0, fmt.Errorf("campaign %s expanded to %d sessions, want %d", st.ID, st.Sessions, sessionsPerCampaign)
	}
	id := st.ID
	polls := 0
	for st.Status != server.StatusDone {
		switch st.Status {
		case server.StatusFailed, server.StatusCanceled:
			return 0, fmt.Errorf("campaign %s %s: %s", id, st.Status, st.Error)
		}
		if time.Since(start) > campaignTimeout {
			return 0, fmt.Errorf("campaign %s still %s after %s", id, st.Status, campaignTimeout)
		}
		time.Sleep(pollInterval)
		polls++
		if err := c.do(http.MethodGet, "/v1/campaigns/"+id, nil, http.StatusOK, &st); err != nil {
			return 0, fmt.Errorf("status: %w", err)
		}
	}
	path := "/v1/campaigns/" + id + "/results"
	if c.ndjson {
		path += "?format=ndjson"
	}
	c.body.Reset()
	if err := c.do(http.MethodGet, path, nil, http.StatusOK, &c.body); err != nil {
		return 0, fmt.Errorf("results: %w", err)
	}
	latency := time.Since(start)
	if c.ndjson {
		if rows := bytes.Count(c.body.Bytes(), []byte("\n")); rows != sessionsPerCampaign {
			return 0, fmt.Errorf("campaign %s streamed %d result rows, want %d", id, rows, sessionsPerCampaign)
		}
	} else if c.body.Len() == 0 {
		return 0, fmt.Errorf("campaign %s returned an empty results document", id)
	}

	if traced {
		var tr server.TraceResponse
		if err := c.do(http.MethodGet, "/v1/campaigns/"+id+"/trace", nil, http.StatusOK, &tr); err != nil {
			return 0, fmt.Errorf("trace: %w", err)
		}
		c.t.addSpans(tr.Spans)
		c.t.add("server.polls_per_campaign", float64(polls))
		c.t.add("client.campaign_ms", ms(latency))
	}
	return latency, nil
}

// health fetches the campaign server's /healthz counters.
func (c *client) health() (healthz, error) {
	var h healthz
	err := c.do(http.MethodGet, "/healthz", nil, http.StatusOK, &h)
	return h, err
}

// do sends one request and reads the response: into out when it is a
// *bytes.Buffer, JSON-decoded into out otherwise. Any status but want is an
// error.
func (c *client) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if buf, ok := out.(*bytes.Buffer); ok {
		_, err = buf.ReadFrom(resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err
	}
	// Drain what the decoder left (the trailing newline) so the connection
	// is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
